/**
 * @file
 * Non-blocking banked cache implementation.
 */

#include "mem/cache.h"

#include <algorithm>
#include <atomic>

#include "common/bitmanip.h"
#include "common/log.h"

namespace vortex::mem {

namespace {

/** Memory-side reqIds must be globally unique so fan-in routers can route
 *  responses; embed a per-instance id in the top bits (above both the
 *  fill pool's index/generation fields and the write marker bit 40). */
uint64_t
nextInstanceBase()
{
    static std::atomic<uint64_t> counter{1};
    return counter.fetch_add(1) << 41;
}

/** Marks an untracked (write) memory request id. */
constexpr uint64_t kWriteReqBit = 1ull << 40;

} // namespace

Cache::Bank::Bank(const CacheConfig& cfg, uint32_t index)
    : input(cfg.inputQueueDepth, "bank.input"),
      pipe(cfg.pipelineLatency)
{
    (void)index;
    uint32_t num_sets = cfg.size / (cfg.lineSize * cfg.numBanks *
                                    cfg.numWays);
    sets.assign(num_sets, std::vector<Way>(cfg.numWays));
}

Cache::Cache(const CacheConfig& config)
    : config_(config),
      memQueue_(config.memQueueDepth, "cache.memq"),
      instanceBase_(nextInstanceBase()),
      fillPool_(instanceBase_, "cache.fills")
{
    if (!isPow2(config.lineSize))
        fatal("cache '", config.name, "': lineSize must be a power of two");
    if (!isPow2(config.numBanks))
        fatal("cache '", config.name, "': numBanks must be a power of two");
    if (config.numWays == 0 || config.numPorts == 0 || config.numLanes == 0)
        fatal("cache '", config.name, "': zero-sized parameter");
    numSets_ = config.size /
               (config.lineSize * config.numBanks * config.numWays);
    if (numSets_ == 0 || !isPow2(numSets_))
        fatal("cache '", config.name,
              "': size/lineSize/banks/ways must give a power-of-two number "
              "of sets >= 1, got ", numSets_);
    banks_.reserve(config.numBanks);
    for (uint32_t b = 0; b < config.numBanks; ++b)
        banks_.emplace_back(config, b);
    lanes_.reserve(config.numLanes);
    for (uint32_t l = 0; l < config.numLanes; ++l)
        lanes_.emplace_back(config.laneQueueDepth, "cache.lane");
}

uint32_t
Cache::bankOf(Addr addr) const
{
    return (addr / config_.lineSize) & (config_.numBanks - 1);
}

uint32_t
Cache::setOf(Addr addr) const
{
    return (addr / config_.lineSize / config_.numBanks) & (numSets_ - 1);
}

uint32_t
Cache::tagOf(Addr addr) const
{
    return addr / config_.lineSize / config_.numBanks / numSets_;
}

bool
Cache::laneReady(uint32_t lane) const
{
    return !lanes_.at(lane).full();
}

void
Cache::lanePush(uint32_t lane, const CoreReq& req)
{
    lanes_.at(lane).push(req);
    ++pendingLaneReqs_;
    ctrs_.add(req.write ? Ctr::CoreWrites : Ctr::CoreReads);
}

void
Cache::memRsp(const MemRsp& rsp)
{
    memRspQueue_.push_back(rsp);
}

std::optional<uint32_t>
Cache::probe(Bank& bank, Addr addr) const
{
    uint32_t set = setOf(addr);
    uint32_t tag = tagOf(addr);
    auto& ways = bank.sets[set];
    for (uint32_t w = 0; w < ways.size(); ++w) {
        if (ways[w].valid && ways[w].tag == tag)
            return w;
    }
    return std::nullopt;
}

void
Cache::install(Bank& bank, Addr addr, Cycle now)
{
    uint32_t set = setOf(addr);
    uint32_t tag = tagOf(addr);
    auto& ways = bank.sets[set];
    // Already present (a second fill can race with flushAll in tests).
    for (Way& w : ways) {
        if (w.valid && w.tag == tag) {
            w.lastUsed = now;
            return;
        }
    }
    // Pick an invalid way, else evict LRU.
    Way* victim = nullptr;
    for (Way& w : ways) {
        if (!w.valid) {
            victim = &w;
            break;
        }
    }
    if (!victim) {
        victim = &ways[0];
        for (Way& w : ways) {
            if (w.lastUsed < victim->lastUsed)
                victim = &w;
        }
        ctrs_.add(Ctr::Evictions);
    }
    victim->valid = true;
    victim->tag = tag;
    victim->lastUsed = now;
}

bool
Cache::mshrHasSpace(const Bank& bank) const
{
    return bank.mshr.size() < config_.mshrEntries;
}

Cache::MshrEntry*
Cache::mshrFind(Bank& bank, Addr lineAddr)
{
    for (MshrEntry& e : bank.mshr) {
        if (e.pendingFill && e.lineAddr == lineAddr)
            return &e;
    }
    return nullptr;
}

void
Cache::drainPipes(Cycle now)
{
    if (pipeWork_ == 0)
        return;
    for (Bank& bank : banks_) {
        while (auto op = bank.pipe.dequeueReady(now)) {
            --pipeWork_;
            if (op->memReq) {
                // Space was reserved with an early-full check at schedule.
                memQueue_.push(*op->memReq);
            }
            for (const PortReq& p : op->ports) {
                if (rspCallback_)
                    rspCallback_(CoreRsp{p.reqId, p.lane, op->write, p.tag});
                ctrs_.add(Ctr::CoreRsps);
            }
        }
    }
}

void
Cache::drainMemQueue()
{
    while (!memQueue_.empty() && memSink_ && memSink_->reqReady()) {
        memSink_->reqPush(memQueue_.front());
        memQueue_.pop();
        ctrs_.add(Ctr::MemReqs);
    }
}

void
Cache::schedule(Cycle now)
{
    if (bankWork_ == 0)
        return;
    // Count memory-queue credits consumed this cycle across banks so two
    // banks cannot both claim the last slot.
    size_t memq_free = memQueue_.capacity() - memQueue_.size();
    // Subtract credits already promised to ops still inside bank pipes.
    size_t promised = pipePromisedMemReqs_;
    memq_free = memq_free > promised ? memq_free - promised : 0;

    for (Bank& bank : banks_) {
        // Priority 1: replay a filled MSHR entry (one per cycle).
        if (!bank.replayQueue.empty()) {
            MshrEntry entry = std::move(bank.replayQueue.front());
            bank.replayQueue.pop_front();
            --bankWork_;
            PipeOp op;
            op.ports = std::move(entry.ports);
            bank.pipe.enqueue(std::move(op), now);
            ++pipeWork_;
            ctrs_.add(Ctr::MshrReplays);
            continue;
        }
        // Priority 2: install an arrived fill and stage its replays.
        if (!bank.fillQueue.empty()) {
            Addr line_addr = bank.fillQueue.front();
            bank.fillQueue.pop_front();
            --bankWork_;
            install(bank, line_addr, now);
            // Move every MSHR entry waiting on this line to the replay
            // queue (merged entries replay back-to-back).
            for (auto it = bank.mshr.begin(); it != bank.mshr.end();) {
                if (it->lineAddr == line_addr) {
                    bank.replayQueue.push_back(std::move(*it));
                    ++bankWork_;
                    it = bank.mshr.erase(it);
                } else {
                    ++it;
                }
            }
            ctrs_.add(Ctr::Fills);
            continue;
        }
        // Priority 3: a core request from the bank input FIFO.
        if (bank.input.empty())
            continue;
        const BankReq& req = bank.input.front();
        if (req.write) {
            // Write-through: needs a memory-queue slot (early-full check).
            if (memq_free == 0) {
                ctrs_.add(Ctr::MemqStalls);
                continue;
            }
            --memq_free;
            ++pipePromisedMemReqs_;
            if (auto way = probe(bank, req.lineAddr)) {
                bank.sets[setOf(req.lineAddr)][*way].lastUsed = now;
                ctrs_.add(Ctr::WriteHits);
            } else {
                ctrs_.add(Ctr::WriteMisses);
            }
            PipeOp op;
            op.ports = req.ports;
            op.write = true;
            MemReq mreq;
            mreq.lineAddr = req.lineAddr;
            mreq.write = true;
            mreq.reqId = instanceBase_ | kWriteReqBit | nextWriteReqId_++;
            mreq.tag = req.ports.front().tag;
            op.memReq = mreq;
            bank.pipe.enqueue(std::move(op), now);
            ++pipeWork_;
            bank.input.pop();
            --bankWork_;
            continue;
        }
        // Read.
        if (auto way = probe(bank, req.lineAddr)) {
            bank.sets[setOf(req.lineAddr)][*way].lastUsed = now;
            ctrs_.add(Ctr::ReadHits);
            PipeOp op;
            op.ports = req.ports;
            bank.pipe.enqueue(std::move(op), now);
            ++pipeWork_;
            bank.input.pop();
            --bankWork_;
            continue;
        }
        // Read miss: merge into a pending MSHR entry if one exists.
        if (MshrEntry* entry = mshrFind(bank, req.lineAddr)) {
            entry->ports.append(req.ports.begin(), req.ports.end());
            ctrs_.add(Ctr::MshrMerges);
            ctrs_.add(Ctr::ReadMisses);
            bank.input.pop();
            --bankWork_;
            continue;
        }
        // New miss: needs an MSHR entry and a memory-queue slot.
        if (!mshrHasSpace(bank)) {
            ctrs_.add(Ctr::MshrStalls);
            continue;
        }
        if (memq_free == 0) {
            ctrs_.add(Ctr::MemqStalls);
            continue;
        }
        --memq_free;
        ++pipePromisedMemReqs_;
        ctrs_.add(Ctr::ReadMisses);
        MshrEntry entry;
        entry.lineAddr = req.lineAddr;
        entry.ports = req.ports;
        bank.mshr.push_back(std::move(entry));
        MemReq mreq;
        mreq.lineAddr = req.lineAddr;
        mreq.write = false;
        mreq.reqId = fillPool_.alloc(
            PendingFill{static_cast<uint32_t>(&bank - banks_.data()),
                        req.lineAddr});
        mreq.tag = req.ports.front().tag;
        PipeOp op; // carries only the memory request; responses come later
        op.memReq = mreq;
        bank.pipe.enqueue(std::move(op), now);
        ++pipeWork_;
        bank.input.pop();
        --bankWork_;
    }
}

void
Cache::selectBanks(Cycle now)
{
    (void)now;
    // Skip the bank x lane scan on the (common) cycles with no queued
    // lane requests at all.
    if (pendingLaneReqs_ == 0)
        return;
    // Gather head-of-queue candidates per bank.
    for (uint32_t b = 0; b < config_.numBanks; ++b) {
        Bank& bank = banks_[b];
        // Find candidate lanes.
        uint32_t candidates = 0;
        for (auto& lane : lanes_) {
            if (!lane.empty() && bankOf(lane.front().addr) == b)
                ++candidates;
        }
        if (candidates == 0)
            continue;
        ctrs_.add(Ctr::SelCandidates, candidates);
        if (bank.input.full()) {
            ctrs_.add(Ctr::SelInputFull, candidates);
            continue;
        }
        // Take the first candidate's line; coalesce same-line, same-type
        // requests into the virtual ports.
        BankReq breq;
        uint32_t taken = 0;
        for (auto& lane : lanes_) {
            if (lane.empty())
                continue;
            const CoreReq& creq = lane.front();
            if (bankOf(creq.addr) != b)
                continue;
            Addr line_addr = lineAddrOf(creq.addr);
            if (taken == 0) {
                breq.lineAddr = line_addr;
                breq.write = creq.write;
            } else if (line_addr != breq.lineAddr ||
                       creq.write != breq.write ||
                       taken >= config_.numPorts) {
                continue; // bank conflict: stays for a later cycle
            }
            breq.ports.push_back(PortReq{creq.reqId, creq.lane, creq.tag});
            lane.pop();
            --pendingLaneReqs_;
            ++taken;
        }
        bank.input.push(std::move(breq));
        ++bankWork_;
        ctrs_.add(Ctr::SelAccepted, taken);
        ctrs_.add(Ctr::SelConflicts, candidates - taken);
    }
}

void
Cache::tick(Cycle now)
{
    // 1. Matured pipeline ops emit responses / memory requests.
    size_t memq_before = memQueue_.size();
    drainPipes(now);
    size_t emitted = memQueue_.size() - memq_before;
    pipePromisedMemReqs_ -= std::min(pipePromisedMemReqs_, emitted);

    // 2. Forward memory requests downstream.
    drainMemQueue();

    // 3. Absorb memory responses into per-bank fill queues. A response
    // whose id the pool does not hold panics there ("unmatched request
    // id"), preserving the old unknown-fill check.
    while (!memRspQueue_.empty()) {
        const MemRsp& rsp = memRspQueue_.front();
        PendingFill fill = fillPool_.take(rsp.reqId);
        banks_[fill.bank].fillQueue.push_back(fill.lineAddr);
        ++bankWork_;
        memRspQueue_.pop_front();
    }

    // 4. Bank schedulers issue one operation each.
    schedule(now);

    // 5. Front-end bank selector moves lane heads into bank FIFOs.
    selectBanks(now);
}

bool
Cache::idle() const
{
    if (!memQueue_.empty() || !memRspQueue_.empty() || !fillPool_.empty())
        return false;
    for (const auto& lane : lanes_) {
        if (!lane.empty())
            return false;
    }
    for (const Bank& bank : banks_) {
        if (!bank.input.empty() || !bank.replayQueue.empty() ||
            !bank.fillQueue.empty() || !bank.mshr.empty() ||
            !bank.pipe.empty())
            return false;
    }
    return true;
}

void
Cache::flushAll()
{
    for (Bank& bank : banks_) {
        for (auto& set : bank.sets) {
            for (Way& w : set)
                w.valid = false;
        }
    }
    ctrs_.add(Ctr::Flushes);
}

double
Cache::bankUtilization() const
{
    return mem::bankUtilization(ctrs_[Ctr::SelAccepted],
                                ctrs_[Ctr::SelConflicts]);
}

} // namespace vortex::mem

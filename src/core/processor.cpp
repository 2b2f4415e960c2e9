/**
 * @file
 * Processor wiring and run loop.
 */

#include "core/processor.h"

#include "common/log.h"
#include "common/outcome.h"

namespace vortex::core {

Processor::Processor(const ArchConfig& config)
    : config_(config), sampler_(config.sampleInterval)
{
    if (config.numThreads == 0 || config.numThreads > 64)
        fatal("numThreads must be in [1, 64]");
    if (config.numWarps == 0 || config.numWarps > 64)
        fatal("numWarps must be in [1, 64]");
    if (config.numCores == 0)
        fatal("numCores must be >= 1");
    memSim_ = std::make_unique<mem::MemSim>(config.mem);
    for (uint32_t c = 0; c < config.numCores; ++c)
        cores_.push_back(std::make_unique<Core>(config, c, ram_, this));
    wire();
    pendingArrivals_.resize(config.numCores);
    // The flat counter layout, in collectStats' group order.
    slots_.threadInstrs = counters_.addSlot("core.thread_instrs");
    slots_.warpInstrs = counters_.addSlot("core.warp_instrs");
    slots_.core = counters_.addGroup<Core>("core");
    slots_.icache = counters_.addGroup<mem::Cache>("icache");
    slots_.dcache = counters_.addGroup<mem::Cache>("dcache");
    slots_.smem = counters_.addGroup<mem::SharedMem>("smem");
    slots_.tex = counters_.addGroup<tex::TexUnit>("tex");
    slots_.l2 = counters_.addGroup<mem::Cache>("l2");
    slots_.l3 = counters_.addGroup<mem::Cache>("l3");
    slots_.mem = counters_.addGroup<mem::MemSim>("mem");
}

namespace {

/** Connect @p upstream's memory side to lane @p lane of @p downstream. */
void
linkCacheToCache(mem::Cache& upstream, mem::Cache& downstream, uint32_t lane,
                 std::vector<std::unique_ptr<mem::MemSink>>& adapters)
{
    adapters.push_back(
        std::make_unique<mem::CacheMemPort>(downstream, lane));
    upstream.connectMem(adapters.back().get());
}

} // namespace

mem::MemSink*
Processor::staged(mem::MemSink* down, size_t depth)
{
    stagedPorts_.push_back(std::make_unique<mem::StagedMemPort>(down, depth));
    return stagedPorts_.back().get();
}

void
Processor::linkStagedL1(mem::Cache& l1, mem::Cache& downstream, uint32_t lane)
{
    adapters_.push_back(std::make_unique<mem::CacheMemPort>(downstream, lane));
    l1.connectMem(
        staged(adapters_.back().get(), l1.config().memQueueDepth));
}

void
Processor::wire()
{
    const uint32_t num_clusters = config_.numClusters();

    memRouter_ = std::make_unique<mem::MemRouter>(memSim_.get());
    memSim_->setRspCallback(
        [this](const mem::MemRsp& rsp) { memRouter_->onRsp(rsp); });

    //
    // Optional L3 in front of the board memory.
    //
    if (config_.l3Enabled) {
        mem::CacheConfig c3 = config_.l3Config();
        c3.numLanes = config_.l2Enabled ? num_clusters
                                        : 2 * config_.numCores;
        l3_ = std::make_unique<mem::Cache>(c3);
        l3_->connectMem(memRouter_->makePort(
            [this](const mem::MemRsp& rsp) { l3_->memRsp(rsp); }));
    }

    //
    // Per-cluster L2s (or direct connection).
    //
    if (config_.l2Enabled) {
        l2s_.resize(num_clusters);
        for (uint32_t cl = 0; cl < num_clusters; ++cl) {
            uint32_t first_core = cl * config_.coresPerCluster;
            uint32_t cores_here =
                std::min(config_.coresPerCluster,
                         config_.numCores - first_core);
            l2s_[cl] =
                std::make_unique<mem::Cache>(config_.l2Config(cores_here));
            mem::Cache& l2 = *l2s_[cl];

            // L2 responses route back to the owning L1 by lane. L1 request
            // sides go through staging ports, drained in core order at the
            // cycle boundary.
            std::vector<mem::Cache*> owners(2 * cores_here, nullptr);
            for (uint32_t i = 0; i < cores_here; ++i) {
                Core& core = *cores_[first_core + i];
                owners[2 * i] = &core.icache();
                owners[2 * i + 1] = &core.dcache();
                linkStagedL1(core.icache(), l2, 2 * i);
                linkStagedL1(core.dcache(), l2, 2 * i + 1);
            }
            l2.setRspCallback([owners](const mem::CoreRsp& rsp) {
                if (rsp.write)
                    return; // write-through completions need no routing
                owners.at(rsp.lane)->memRsp(
                    mem::MemRsp{rsp.reqId, rsp.tag});
            });

            // L2 memory side: into the L3 if present, else board memory.
            if (l3_) {
                linkCacheToCache(l2, *l3_, cl, adapters_);
            } else {
                l2.connectMem(memRouter_->makePort(
                    [&l2](const mem::MemRsp& rsp) { l2.memRsp(rsp); }));
            }
        }
        if (l3_) {
            l3_->setRspCallback([this](const mem::CoreRsp& rsp) {
                if (rsp.write)
                    return;
                l2s_.at(rsp.lane)->memRsp(mem::MemRsp{rsp.reqId, rsp.tag});
            });
        }
        return;
    }

    //
    // No L2: L1s go straight to the L3 or the board memory.
    //
    if (l3_) {
        std::vector<mem::Cache*> owners(2 * config_.numCores, nullptr);
        for (uint32_t i = 0; i < config_.numCores; ++i) {
            Core& core = *cores_[i];
            owners[2 * i] = &core.icache();
            owners[2 * i + 1] = &core.dcache();
            linkStagedL1(core.icache(), *l3_, 2 * i);
            linkStagedL1(core.dcache(), *l3_, 2 * i + 1);
        }
        l3_->setRspCallback([owners](const mem::CoreRsp& rsp) {
            if (rsp.write)
                return;
            owners.at(rsp.lane)->memRsp(mem::MemRsp{rsp.reqId, rsp.tag});
        });
        return;
    }
    for (auto& core : cores_) {
        mem::Cache* ic = &core->icache();
        mem::Cache* dc = &core->dcache();
        ic->connectMem(staged(
            memRouter_->makePort(
                [ic](const mem::MemRsp& rsp) { ic->memRsp(rsp); }),
            ic->config().memQueueDepth));
        dc->connectMem(staged(
            memRouter_->makePort(
                [dc](const mem::MemRsp& rsp) { dc->memRsp(rsp); }),
            dc->config().memQueueDepth));
    }
}

void
Processor::start()
{
    for (auto& core : cores_)
        core->start();
}

void
Processor::tick()
{
    ++cycles_;
    memSim_->tick(cycles_);
    if (l3_)
        l3_->tick(cycles_);
    for (auto& l2 : l2s_)
        l2->tick(cycles_);
    // Core phase: cores only touch core-local state plus their staging
    // buffers; cross-core effects land in commitCrossCore.
    for (auto& core : cores_)
        core->tick(cycles_);
    commitCrossCore();
    // Fault injection lands here, after the commit phase and before
    // sampling, at the cycle boundary (src/faults/fault.h).
    if (faultHook_)
        faultHook_(*this, cycles_);
    // Sampling happens after the commit phase: every cross-core effect of
    // this cycle has landed.
    if (sampler_.due(cycles_)) {
        collectCounters();
        sampler_.sample(cycles_, counters_);
    }
}

void
Processor::commitCrossCore()
{
    // Staged L1 memory requests enter the shared fabric in core order
    // (ports were created in core order).
    for (auto& port : stagedPorts_)
        port->drain();
    // Global barrier arrivals, also in core order. Releases take effect
    // next cycle for every wavefront.
    for (CoreId c = 0; c < pendingArrivals_.size(); ++c) {
        for (const PendingArrival& a : pendingArrivals_[c]) {
            auto releases = globalBarriers_.arrive(a.id, a.count, c, a.wid);
            for (const auto& r : releases)
                cores_.at(r.core)->releaseBarrierWarp(r.warp);
        }
        pendingArrivals_[c].clear();
    }
}

bool
Processor::busy() const
{
    for (const auto& core : cores_) {
        if (core->busy())
            return true;
    }
    if (!memSim_->idle())
        return true;
    for (const auto& l2 : l2s_) {
        if (!l2->idle())
            return true;
    }
    if (l3_ && !l3_->idle())
        return true;
    for (const auto& port : stagedPorts_) {
        if (!port->empty())
            return true;
    }
    return false;
}

bool
Processor::run(uint64_t max_cycles)
{
    while (busy()) {
        if (cycles_ >= max_cycles)
            return false;
        // Host-deadline poll (fabric per-simulation wall-clock budget).
        // Every 8192 cycles keeps the check off the hot path; the
        // deadline is a robustness bound, not a simulated event, so the
        // coarse granularity does not affect determinism of results —
        // aborted runs are failures and are never cached.
        if (abortCheck_ && (cycles_ & 0x1FFF) == 0 && abortCheck_())
            trap(RunStatus::Timeout,
                 "run aborted: host wall-clock deadline exceeded after ",
                 cycles_, " cycles");
        tick();
    }
    // Close the series with the end-of-run remainder window (a no-op when
    // sampling is disabled or the run ended exactly on a boundary), so
    // summing a counter's deltas always reproduces its final value.
    if (sampler_.enabled()) {
        collectCounters();
        sampler_.finalize(cycles_, counters_);
    }
    return true;
}

void
Processor::collectCounters()
{
    // Instances add in index order, one group after the other, so each
    // group's touch order is that of merging its instances' blocks.
    counters_.clear();
    counters_.add(slots_.threadInstrs, threadInstrs());
    counters_.add(slots_.warpInstrs, warpInstrs());
    for (auto& core : cores_)
        counters_.add(slots_.core, core->counters());
    for (auto& core : cores_)
        counters_.add(slots_.icache, core->icache().counters());
    for (auto& core : cores_)
        counters_.add(slots_.dcache, core->dcache().counters());
    for (auto& core : cores_)
        counters_.add(slots_.smem, core->sharedMem().counters());
    for (auto& core : cores_)
        if (core->texUnit())
            counters_.add(slots_.tex, core->texUnit()->counters());
    for (auto& l2 : l2s_)
        counters_.add(slots_.l2, l2->counters());
    if (l3_)
        counters_.add(slots_.l3, l3_->counters());
    counters_.add(slots_.mem, memSim_->counters());
}

void
Processor::collectStats(StatGroup& flat)
{
    collectCounters();
    counters_.addTo(flat);
}

uint64_t
Processor::threadInstrs() const
{
    uint64_t sum = 0;
    for (const auto& core : cores_)
        sum += core->threadInstrs();
    return sum;
}

uint64_t
Processor::warpInstrs() const
{
    uint64_t sum = 0;
    for (const auto& core : cores_)
        sum += core->warpInstrs();
    return sum;
}

double
Processor::ipc() const
{
    return cycles_ == 0 ? 0.0
                        : static_cast<double>(threadInstrs()) /
                              static_cast<double>(cycles_);
}

void
Processor::globalArrive(uint32_t id, uint32_t count, CoreId core, WarpId wid)
{
    // Called during the tick phase. Each core appends only to its own
    // buffer; the arrivals are applied in core order in commitCrossCore().
    pendingArrivals_.at(core).push_back(PendingArrival{id, count, wid});
}

} // namespace vortex::core

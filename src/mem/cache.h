/**
 * @file
 * High-bandwidth non-blocking cache (paper §4.3, Figure 6).
 *
 * The cache is multi-banked (single-ported banks, address-interleaved by
 * cache-line index) and extends multi-banking with *virtual ports*: the
 * front-end bank selector coalesces same-cycle requests that map to the same
 * bank AND the same cache line into one bank request carrying up to
 * `numPorts` word-granular port slots. Only the word offsets of the ports
 * need storing (in the MSHR on a miss), and a single data-store access
 * services all ports of a request — the two efficiency points of §4.3.
 *
 * Each bank runs a four-stage pipeline (schedule -> tag -> data -> response)
 * with its own MSHR (per-bank MSHRs adapted from Asiatici & Ienne). Misses to
 * a line already pending merge into the existing MSHR entry without issuing
 * a new memory request. The scheduler prioritizes MSHR replays over memory
 * fills over incoming core requests. Deadlock is avoided with early-full
 * checks: a request is only scheduled when the MSHR has a free entry and the
 * memory request queue has space (paper's two deadlock mitigations).
 *
 * Back-end: responses from banks are delivered through a single response
 * callback (the "bank merger" coalesces by request tag — here the reqId).
 *
 * Policy: write-through, no write-allocate (stores complete when accepted by
 * a bank and forward a line write to memory), which matches the FPGA design
 * and makes `flush` (weakly-coherent memory, §4.1.4) a tag invalidation.
 */

#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "common/elastic.h"
#include "common/small_vec.h"
#include "common/slot_pool.h"
#include "common/stats.h"
#include "mem/memtypes.h"

namespace vortex::mem {

/** Geometry and timing of one cache instance. */
struct CacheConfig
{
    const char* name = "cache";
    uint32_t size = 16384;        ///< total bytes
    uint32_t lineSize = 64;       ///< bytes
    uint32_t numBanks = 4;
    uint32_t numWays = 2;
    uint32_t numPorts = 1;        ///< virtual ports per bank
    uint32_t numLanes = 4;        ///< core-side request lanes
    uint32_t mshrEntries = 8;     ///< entries per bank
    uint32_t inputQueueDepth = 2; ///< per-bank input FIFO depth
    uint32_t laneQueueDepth = 2;  ///< per-lane front queue depth
    uint32_t memQueueDepth = 8;   ///< memory request queue depth
    uint32_t pipelineLatency = 3; ///< schedule->response latency (cycles)
};

/** Bank utilization in [0,1] per Fig. 19: the fraction of issued lane
 *  requests that did not experience a bank conflict (1 with no traffic). */
inline double
bankUtilization(uint64_t accepted, uint64_t conflicts)
{
    uint64_t total = accepted + conflicts;
    return total == 0 ? 1.0 : static_cast<double>(accepted) / total;
}

/**
 * The non-blocking banked cache. One instance per L1D/L1I/L2/L3; levels are
 * composed via CacheMemPort adapters.
 */
class Cache
{
  public:
    /** The cache's event counters (names in kCtrNames). */
    enum class Ctr : uint8_t
    {
        CoreReads, CoreWrites, CoreRsps, MemReqs, MshrReplays, Fills,
        MemqStalls, WriteHits, WriteMisses, ReadHits, ReadMisses, MshrMerges,
        MshrStalls, Evictions, SelCandidates, SelInputFull, SelAccepted,
        SelConflicts, Flushes, Count
    };
    /** Counter names, indexed by Ctr. */
    static constexpr const char* kCtrNames[] = {
        "core_reads", "core_writes", "core_rsps", "mem_reqs", "mshr_replays",
        "fills", "memq_stalls", "write_hits", "write_misses", "read_hits",
        "read_misses", "mshr_merges", "mshr_stalls", "evictions",
        "sel_candidates", "sel_input_full", "sel_accepted", "sel_conflicts",
        "flushes"};

    explicit Cache(const CacheConfig& config);

    //
    // Core side (lane-granular).
    //
    bool laneReady(uint32_t lane) const;
    void lanePush(uint32_t lane, const CoreReq& req);
    void setRspCallback(std::function<void(const CoreRsp&)> cb)
    {
        rspCallback_ = std::move(cb);
    }

    //
    // Memory side.
    //
    void connectMem(MemSink* sink) { memSink_ = sink; }
    /** Deliver a response from the downstream memory (always accepted). */
    void memRsp(const MemRsp& rsp);

    /** Advance one cycle. */
    void tick(Cycle now);

    /** True when no request is buffered, pending, or in flight. */
    bool idle() const;

    /** Invalidate every line (write-through: no data loss). */
    void flushAll();

    const CacheConfig& config() const { return config_; }
    const CounterBlock<Ctr>& counters() const { return ctrs_; }

    /** This cache's bankUtilization(accepted, conflicts). */
    double bankUtilization() const;

  private:
    //
    // Geometry helpers.
    //
    Addr lineAddrOf(Addr addr) const { return addr & ~(config_.lineSize - 1); }
    uint32_t bankOf(Addr addr) const;
    uint32_t setOf(Addr addr) const;
    uint32_t tagOf(Addr addr) const;

    /** One virtual-port slot inside a bank request. */
    struct PortReq
    {
        uint64_t reqId = 0;
        uint32_t lane = 0;
        Tag tag;
    };

    /** Port list sized for the swept virtual-port counts (1/2/4); MSHR
     *  merges may spill past the inline capacity. */
    using PortVec = SmallVec<PortReq, 4>;

    /** A coalesced request entering a bank. */
    struct BankReq
    {
        Addr lineAddr = 0;
        bool write = false;
        PortVec ports;
    };

    /** A miss waiting on a line (one MSHR entry). */
    struct MshrEntry
    {
        Addr lineAddr = 0;
        bool pendingFill = true;       ///< false once moved to replay
        PortVec ports;
    };

    /** Tag-store way. */
    struct Way
    {
        bool valid = false;
        uint32_t tag = 0;
        Cycle lastUsed = 0;
    };

    /** Completed bank operation travelling the pipeline. */
    struct PipeOp
    {
        PortVec ports; ///< responses to emit
        bool write = false;
        std::optional<MemReq> memReq;
    };

    struct Bank
    {
        Bank(const CacheConfig& cfg, uint32_t index);

        ElasticQueue<BankReq> input;
        std::deque<MshrEntry> replayQueue; ///< filled entries to replay
        std::deque<Addr> fillQueue;        ///< arrived fills to install
        std::vector<MshrEntry> mshr;
        std::vector<std::vector<Way>> sets; ///< [set][way]
        LatencyPipe<PipeOp> pipe;
    };

    /** Probe the tag store; returns way index on hit. */
    std::optional<uint32_t> probe(Bank& bank, Addr addr) const;
    /** Install a line, evicting LRU; updates stats. */
    void install(Bank& bank, Addr addr, Cycle now);

    void drainPipes(Cycle now);
    void drainMemQueue();
    void schedule(Cycle now);
    void selectBanks(Cycle now);

    bool mshrHasSpace(const Bank& bank) const;
    MshrEntry* mshrFind(Bank& bank, Addr lineAddr);

    CacheConfig config_;
    uint32_t numSets_;
    std::vector<Bank> banks_;
    std::vector<ElasticQueue<CoreReq>> lanes_;
    //
    // Tick-phase early-out bookkeeping: counts of work queued for the
    // three per-cycle bank scans, so an idle (or stalled-elsewhere)
    // cache pays three compares per cycle instead of three bank walks.
    //
    size_t pendingLaneReqs_ = 0; ///< queued lane reqs (selector early-out)
    size_t bankWork_ = 0; ///< bank input + replay + fill entries (schedule)
    size_t pipeWork_ = 0; ///< ops inside bank pipelines (drainPipes)
    ElasticQueue<MemReq> memQueue_;
    std::deque<MemRsp> memRspQueue_; ///< unbounded: responses always absorbed
    MemSink* memSink_ = nullptr;
    std::function<void(const CoreRsp&)> rspCallback_;

    size_t pipePromisedMemReqs_ = 0; ///< memq slots reserved by in-pipe ops

    //
    // Memory-side request ids. Read ids come from the fill slot pool
    // (so the response handler is an array index, not a map probe);
    // write ids — never tracked, writes produce no routed response —
    // come from a plain counter with a marker bit. Both embed this
    // instance's id above bit 40, keeping ids globally unique for the
    // response-routing fan-in (mem/router.h).
    //
    struct PendingFill
    {
        uint32_t bank = 0;
        Addr lineAddr = 0;
    };
    uint64_t instanceBase_;          ///< unique per-cache high bits
    uint64_t nextWriteReqId_ = 1;    ///< write (untracked) id counter
    SlotPool<PendingFill> fillPool_; ///< in-flight read fills by reqId

    CounterBlock<Ctr> ctrs_;
};

/**
 * Adapter presenting one lane of a (larger) cache as a MemSink, so an L1's
 * memory side can plug into an L2, and an L2 into an L3 or MemSim.
 */
class CacheMemPort : public MemSink
{
  public:
    CacheMemPort(Cache& cache, uint32_t lane) : cache_(cache), lane_(lane) {}

    bool reqReady() const override { return cache_.laneReady(lane_); }

    void
    reqPush(const MemReq& req) override
    {
        CoreReq creq;
        creq.addr = req.lineAddr;
        creq.write = req.write;
        creq.reqId = req.reqId;
        creq.lane = lane_;
        creq.tag = req.tag;
        cache_.lanePush(lane_, creq);
    }

  private:
    Cache& cache_;
    uint32_t lane_;
};

} // namespace vortex::mem

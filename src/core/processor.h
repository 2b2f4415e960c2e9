/**
 * @file
 * Top-level processor: clusters of cores with optional shared L2 per
 * cluster and an optional L3 shared by the clusters, in front of the board
 * memory (paper §4.1: "a scalable architecture that allows clustering of
 * multiple cores with optional L2 and L3 caches"). Also hosts the global
 * (inter-core) barrier table.
 *
 * Timing rule: cores tick in index order, and every cross-core effect a
 * core produces in its tick (an L1 request into a shared L2/L3 lane or
 * board memory, a global-barrier arrival) is buffered and committed at
 * the cycle boundary, in core order (commitCrossCore). A core therefore
 * never sees a sibling's same-cycle effect, whatever its index.
 */

#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/stats.h"
#include "core/barrier.h"
#include "core/config.h"
#include "core/core.h"
#include "mem/memsim.h"
#include "mem/ram.h"
#include "mem/router.h"
#include "mem/staging.h"

namespace vortex::core {

/** The full simulated device. */
class Processor : public BarrierHub
{
  public:
    /** Build and wire the whole device described by @p config: cores,
     *  optional L2/L3 clusters, and board memory. */
    explicit Processor(const ArchConfig& config);

    mem::Ram& ram() { return ram_; }                     ///< backing RAM
    const ArchConfig& config() const { return config_; } ///< the machine

    /** Reset every core and start wavefront 0 of each at startPC. */
    void start();

    /** Advance one cycle. */
    void tick();

    /** Any core or memory component still working? */
    bool busy() const;

    /**
     * Run until completion. @return true if the device went idle within
     * @p max_cycles, false on timeout (a likely deadlock or runaway
     * kernel).
     */
    bool run(uint64_t max_cycles = 200000000ull);

    /** Cycles simulated so far. */
    Cycle cycles() const { return cycles_; }

    /** Total thread-instructions executed (the IPC numerator used in the
     *  paper's figures). */
    uint64_t threadInstrs() const;
    /** Total wavefront-instructions executed, summed across cores. */
    uint64_t warpInstrs() const;
    /** threadInstrs() / cycles() (0 before the first tick). */
    double ipc() const;

    size_t numCores() const { return cores_.size(); } ///< device core count
    Core& core(size_t i) { return *cores_.at(i); }    ///< core @p i
    /** Const view of core @p i. */
    const Core& core(size_t i) const { return *cores_.at(i); }
    mem::MemSim& memSim() { return *memSim_; } ///< the board-memory model
    /** Cluster @p cluster's L2 (nullptr when L2s are disabled). */
    mem::Cache* l2(size_t cluster)
    {
        return cluster < l2s_.size() ? l2s_[cluster].get() : nullptr;
    }
    /** The device L3 (nullptr when disabled). */
    mem::Cache* l3() { return l3_.get(); }

    /**
     * Add every touched device counter into @p flat as "<group>.<name>",
     * summed across instances, in fixed hierarchy order (core-private
     * units first, then the shared levels outward: core, icache, dcache,
     * smem, tex, l2, l3, mem) and, within a group, first-touch order over
     * the instances in index order. The synthetic "core.thread_instrs" /
     * "core.warp_instrs" counters lead the core group so IPC curves can
     * be computed from a snapshot alone. Counters accumulate into any
     * the caller already has (@p flat need not be empty).
     */
    void collectStats(StatGroup& flat);

    /**
     * The per-interval counter time series recorded by this run (empty
     * unless ArchConfig::sampleInterval is nonzero). Samples are taken
     * after the cross-core commit phase of tick(), i.e. at the cycle
     * boundary where every cross-core effect of the cycle has landed,
     * plus one final partial window when run() goes idle.
     */
    const TimeSeries& timeSeries() const { return sampler_.series(); }

    // BarrierHub. The arrival is buffered per core and applied in core
    // order at the cycle boundary (commitCrossCore).
    void globalArrive(uint32_t id, uint32_t count, CoreId core,
                      WarpId wid) override;

    /**
     * Install @p hook to be called once per tick(), after the
     * cross-core commit phase, so anything the hook mutates (registers,
     * memory) lands at a cycle boundary where no core is mid-tick. This
     * is the fault-injection attachment point (src/faults/fault.h). An
     * empty function uninstalls.
     */
    void setFaultHook(std::function<void(Processor&, Cycle)> hook)
    {
        faultHook_ = std::move(hook);
    }

    /**
     * Install @p check, polled periodically (every few thousand cycles)
     * by run(). When it returns true the run throws a Timeout-class
     * SimError — how the fabric service enforces a per-simulation
     * wall-clock deadline without a kill signal (docs/ROBUSTNESS.md).
     * An empty function uninstalls.
     */
    void setAbortCheck(std::function<bool()> check)
    {
        abortCheck_ = std::move(check);
    }

  private:
    void wire();

    /** Wrap @p down in a staging port drained in core order at the
     *  cycle boundary. */
    mem::MemSink* staged(mem::MemSink* down, size_t depth);

    /** Connect an L1's memory side to lane @p lane of a shared downstream
     *  cache through a staging port. */
    void linkStagedL1(mem::Cache& l1, mem::Cache& downstream, uint32_t lane);

    /** Commit phase: staged L1 requests, then global barrier arrivals. */
    void commitCrossCore();

    /** Refill counters_ from every component's CounterBlock. */
    void collectCounters();

    ArchConfig config_;
    mem::Ram ram_;
    std::unique_ptr<mem::MemSim> memSim_;
    std::unique_ptr<mem::MemRouter> memRouter_;
    std::vector<std::unique_ptr<Core>> cores_;
    std::vector<std::unique_ptr<mem::Cache>> l2s_;
    std::unique_ptr<mem::Cache> l3_;
    /** Keep-alive for CacheMemPort adapters used in the wiring. */
    std::vector<std::unique_ptr<mem::MemSink>> adapters_;
    /** L1 memory-side staging ports, in drain (core) order. */
    std::vector<std::unique_ptr<mem::StagedMemPort>> stagedPorts_;

    /** A global-barrier arrival buffered during the core phase. */
    struct PendingArrival
    {
        uint32_t id;
        uint32_t count;
        WarpId wid;
    };
    std::vector<std::vector<PendingArrival>> pendingArrivals_; ///< per core

    GlobalBarrierTable globalBarriers_;
    CounterTable counters_; ///< every device counter, laid out once
    /** The two synthetic slots and the first slot of each group. */
    struct
    {
        size_t threadInstrs, warpInstrs;
        size_t core, icache, dcache, smem, tex, l2, l3, mem;
    } slots_{};
    StatSampler sampler_; ///< per-interval counter sampling (off by default)
    std::function<void(Processor&, Cycle)> faultHook_; ///< setFaultHook()
    std::function<bool()> abortCheck_;                 ///< setAbortCheck()
    Cycle cycles_ = 0;
};

} // namespace vortex::core

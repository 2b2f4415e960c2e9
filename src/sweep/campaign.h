/**
 * @file
 * The campaign engine: executes a SweepSpec's run matrix on a host job
 * pool and emits structured results.
 *
 * Determinism contract: every run constructs its own Device, so runs
 * share no simulation state; workers claim runs from an atomic cursor
 * but store each RunRecord at the run's matrix index; and all emission
 * (CSV/JSON/reports) walks the records in matrix order. Campaign output is therefore byte-identical
 * for any job count — `--jobs 4` only changes wall-clock time.
 *
 * Scheduling (CampaignOptions::lpt, default on) reorders only the claim
 * sequence: runs are claimed longest-estimated-first (LPT) so the most
 * expensive simulations cannot strand the pool at the tail. The cost of
 * a run is the result cache's recorded wall-clock when the run will be
 * a hit (~0: it restores instead of simulating) and the deterministic
 * estimateRunCost heuristic otherwise; the same costs drive the
 * CampaignOptions::progress ETA. Because storage and emission stay in
 * matrix order, LPT is invisible in every output byte.
 *
 * Result cache: a run's cache key is the content hash of its canonical
 * (config, workload) serialization (RunSpec::contentHash). Cached records
 * store the counters and metrics of the finished run; a hit skips the
 * simulation entirely. Only verified (ok) runs are cached. Entry I/O,
 * the manifest, pruning, and cross-host merge all live in the CacheStore
 * class (sweep/cache.h); the Campaign constructs one over
 * CampaignOptions::cacheDir. Writes are atomic (temp file + rename) so
 * concurrent campaigns may share a cache directory.
 *
 * Sharding (CampaignOptions::shardIndex/shardCount) and the service
 * mode built on top of this engine are the campaign fabric — see
 * sweep/fabric.h and docs/FABRIC.md.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "common/stats.h"
#include "sweep/spec.h"

namespace vortex::sweep {

/** How a Campaign executes and where it caches. */
struct CampaignOptions
{
    uint32_t jobs = 1;    ///< concurrent runs; 0 = host hardware threads
    std::string cacheDir; ///< result-cache directory ("" disables caching)
    bool verbose = false; ///< per-run progress lines on stderr
    /** Fabric shard selector: with shardCount > 1 the campaign executes
     *  only the runs shardAssignment() maps to shardIndex — a disjoint,
     *  LPT-balanced slice of the matrix; the union of all shards is the
     *  full matrix. 0/0 (the default) runs everything. Records are
     *  still stored and emitted in matrix order, so a shard's outputs
     *  are the matching subset of the unsharded bytes. */
    uint32_t shardIndex = 0;
    uint32_t shardCount = 0; ///< total shards (0 or 1 = unsharded)
    /** Claim runs longest-estimated-first (LPT) instead of in matrix
     *  order. Scheduling only — records are still stored and emitted in
     *  matrix order, so output bytes are unchanged (the determinism
     *  contract). Costs come from estimateRunCost(). */
    bool lpt = true;
    /** Append an elapsed/ETA estimate to each per-run stderr line, from
     *  the same cost estimates LPT schedules with. */
    bool progress = false;
    /** Statically verify every distinct (kernel, machine) pair of the
     *  matrix before scheduling any run (see src/analysis/). Fatal on
     *  analysis errors, with the diagnostic list on stderr. Off by
     *  default; a scheduling-side option, so it never enters
     *  RunSpec::canonical() or the result-cache content hash. */
    bool verify = false;
    /** Abort the campaign on the first failed run (the pre-robustness
     *  behavior, `--fail-fast` on the CLI). By default a failed run —
     *  timeout, guest trap, self-check failure, host error, or a
     *  verification mismatch — is recorded as a first-class result row
     *  (see RunResult::status and docs/ROBUSTNESS.md) and the campaign
     *  completes the rest of the matrix. */
    bool failFast = false;
};

/** One executed (or cache-restored) run with its counters. */
struct RunRecord
{
    RunSpec spec;              ///< what was run
    runtime::RunResult result; ///< verified metrics (cycles, IPC, ...)
    StatGroup stats;      ///< device counters flattened to "group.key"
    /** Per-interval counter deltas (empty unless the run's config set
     *  sampleInterval; round-trips through the result cache). */
    TimeSeries series;
    bool fromCache = false;    ///< restored from the result cache
    double hostSeconds = 0.0; ///< wall-clock of the simulation (0 on hit)

    /** Derived D$ bank utilization: accepted / (accepted + conflicts)
     *  over the summed per-core dcache selector counters (Fig. 19). */
    double dcacheBankUtilization() const;
};

/** All records of one campaign, in matrix (spec-expansion) order. */
struct CampaignResult
{
    std::string name;                   ///< the spec's campaign name
    std::vector<std::string> axisNames; ///< spec axes, in order
    std::vector<RunRecord> records;     ///< one per run, matrix order
    uint32_t cacheHits = 0;             ///< runs restored from cache
    uint32_t cacheMisses = 0;           ///< runs actually simulated

    /** The record whose coordinate labels equal @p labels (one per axis,
     *  spec order); fatal when absent. */
    const RunRecord& at(const std::vector<std::string>& labels) const;

    /** Number of failed records: every run whose result.ok is false —
     *  timeouts, guest traps, self-check failures, host errors, and
     *  silent verification mismatches alike. Campaign front ends exit
     *  nonzero when this is nonzero (docs/ROBUSTNESS.md). */
    uint32_t failures() const;

    /**
     * Write one CSV row per run: axis coordinates, run id, content hash,
     * ok, status (the RunStatus name — see docs/ROBUSTNESS.md), cycles,
     * thread_instrs, ipc, host metadata-free counters (the union of
     * stat keys across records, first-seen order). Byte-stable across
     * job counts and cache states.
     */
    void writeCsv(std::ostream& os) const;

    /** JSON: campaign name, axes, and per-run objects with coords,
     *  hash, metrics, and counters. Like CSV, byte-stable across job
     *  counts and cache states (no execution metadata is embedded). */
    void writeJson(std::ostream& os) const;

    /**
     * Time-series JSON: one object per run — id, hash, coordinate
     * labels, sampling interval, sample-cycle stamps, and one delta
     * array per counter ("counters": {"core.thread_instrs": [..], ...})
     * — directly plottable as IPC / hit-rate / bandwidth curves (divide
     * a row by the window widths). Byte-stable across job counts and
     * cache states. Runs without sampling emit empty
     * arrays.
     */
    void writeTimeSeriesJson(std::ostream& os) const;

    /**
     * Bench-trajectory JSON (the CI perf-smoke artifact): per-run
     * hostSeconds, cache provenance, and headline counters, plus the
     * campaign's total simulation wall-clock. Unlike every other
     * emitter this one DOES carry execution metadata — it measures the
     * simulator, not the simulation — so it is NOT byte-stable.
     */
    void writeBenchJson(std::ostream& os) const;
};

/**
 * Relative host-cost estimate of simulating @p spec, in arbitrary
 * deterministic units (NOT seconds): roughly problem work (kernel
 * weight x scale^2, or texture area x filter cost) scaled by machine
 * size (cores x warps x threads). LPT scheduling sorts by it and the
 * --progress ETA extrapolates with it. Only the ordering matters — a
 * mis-estimate can lengthen the critical path, never change results.
 */
double estimateRunCost(const RunSpec& spec);

class CacheStore; // sweep/cache.h

/**
 * Per-kernel calibration of estimateRunCost() against recorded cache
 * provenance — the fleet scheduler's cost model. Every v2 cache entry
 * records the run's measured wall-clock (host_seconds), its registry
 * kernel name, and the static estimate at store time (est_units);
 * fromCache() fits one seconds-per-estimate-unit scale factor per
 * kernel (plus a global factor over all kernels) from those triples.
 *
 * cost() then prices a run as static-estimate x kernel factor — real
 * recorded seconds shape the LPT schedule and the --progress ETA — and
 * falls back to the global factor for kernels with no recorded data,
 * or to the raw static heuristic when the store holds no data at all.
 * Entries written before the kernel/est_units provenance lines simply
 * contribute nothing. Like the static heuristic, the model only orders
 * work: a stale fit can lengthen the critical path, never change a
 * single output byte.
 */
class CostModel
{
  public:
    /** The uncalibrated model: cost() is estimateRunCost() exactly. */
    CostModel() = default;

    /** Fit a model from @p store's entry provenance (see class docs).
     *  Deterministic for a given set of entries. */
    static CostModel fromCache(const CacheStore& store);

    /** Estimated host cost of @p spec: seconds when calibrated for its
     *  kernel (or globally), estimateRunCost() units otherwise. */
    double cost(const RunSpec& spec) const;

    /** Number of cache entries the fit consumed (0 = uncalibrated). */
    size_t sampleCount() const { return samples_; }

    /** Whether any recorded provenance shaped this model. */
    bool calibrated() const { return samples_ > 0; }

  private:
    /** kernel name -> recorded seconds per static estimate unit. */
    std::vector<std::pair<std::string, double>> kernelScale_;
    double globalScale_ = 0.0; ///< all-kernel fallback factor (0 = none)
    size_t samples_ = 0;       ///< entries consumed by the fit
};

/**
 * Deterministic shard assignment of @p runs over @p shardCount shards:
 * returns one shard index per run (matrix order). Assignment is greedy
 * LPT bin-packing — runs are taken in descending estimateRunCost()
 * order (stable, index tiebreak) and each lands on the least-loaded
 * shard (lowest index on ties) — so shard workloads are balanced, every
 * run lands on exactly one shard, and the union over shards is the full
 * matrix. On purpose this uses the *static* cost heuristic, never a
 * cache-calibrated model: every host of a fleet must compute the same
 * partition from the spec alone, regardless of local cache state. (All
 * hosts must also run the same simulator build — the heuristic is code,
 * not spec data.) Fatal when @p shardCount is 0.
 */
std::vector<uint32_t> shardAssignment(const std::vector<RunSpec>& runs,
                                      uint32_t shardCount);

/**
 * Simulate @p spec on a fresh Device and return the finished record
 * (counters flattened, time series attached, hostSeconds measured).
 * The execution primitive shared by Campaign workers and the fabric
 * service; verification status is in the record — the caller decides
 * whether a failure is fatal.
 *
 * @p abortCheck, when non-empty, is polled periodically from the
 * simulation loop (see core::Processor::setAbortCheck); returning true
 * aborts the run, which comes back as a RunStatus::Timeout record. The
 * fabric service passes its per-simulation wall-clock deadline here —
 * aborted runs are failures and are never cached, so the wall-clock
 * nondeterminism cannot leak into any byte-stable output.
 */
RunRecord executeRun(const RunSpec& spec,
                     std::function<bool()> abortCheck = {});

/** One result-cache entry as listed by CacheStore::entries(). (Defined
 *  here rather than in cache.h because campaign code is its main
 *  consumer; cache.h forward-includes campaign.h for it.) */
struct CacheEntryInfo
{
    std::string hash;     ///< content hash (the file basename)
    std::string id;       ///< run id recorded at store time
    std::string campaign; ///< campaign name recorded at store time
    int64_t mtime = 0;    ///< entry mtime, seconds since the Unix epoch
    double hostSeconds = -1.0; ///< recorded wall-clock (-1 = not recorded)
    std::string kernel;   ///< registry kernel name ("" on old entries)
    double estUnits = 0.0; ///< static cost estimate at store time (0 = none)
};

/** Executes SweepSpecs; see the file comment for the determinism and
 *  caching contracts. */
class Campaign
{
  public:
    explicit Campaign(CampaignOptions opts = {});

    /** Expand @p spec and execute every run (or restore it from cache).
     *  With CampaignOptions::shardCount > 1, executes only this shard's
     *  slice of the matrix. A failed run (timeout, guest trap,
     *  self-check failure, host error, verification mismatch) is
     *  recorded as a result row with its RunStatus and the campaign
     *  completes the rest of the matrix — failed runs are never cached,
     *  and CampaignResult::failures() reports the count so front ends
     *  can exit nonzero. With CampaignOptions::failFast the first
     *  failure is fatal instead (the pre-robustness behavior). A
     *  campaign never silently reports numbers from a wrong result
     *  either way: failures are explicit rows, not missing ones. */
    CampaignResult run(const SweepSpec& spec);

    /** The options this campaign executes with (jobs resolved). */
    const CampaignOptions& options() const { return opts_; }

  private:
    CampaignOptions opts_;
};

} // namespace vortex::sweep

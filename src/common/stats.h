/**
 * @file
 * Lightweight named statistics counters. Components expose a StatGroup;
 * benches, the sweep campaign engine, and EXPERIMENTS tooling read them
 * by name.
 *
 * Counter naming conventions:
 *  - keys are lower_snake_case event counts ("core_reads", "mshr_replays",
 *    "fetch_icache_stalls"), monotonically non-decreasing over a run;
 *  - group names are the component instance ("dcache", "memsim"); when
 *    groups are aggregated across a device the flattened key is
 *    "<group>.<key>" (see sweep::Campaign);
 *  - derived metrics (ratios, utilizations) are NOT counters — compute
 *    them from counters at the point of reporting (e.g.
 *    mem::Cache::bankUtilization()).
 */

#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace vortex {

/**
 * A named collection of 64-bit counters, printed and iterated in
 * insertion order (the order a component first touched each counter —
 * typically its natural event order, not alphabetical).
 *
 * Storage is a deque so counter references stay valid as later keys are
 * inserted; CounterRef exploits that to turn hot-path counter bumps into
 * a single pointer increment (see below).
 */
class StatGroup
{
  public:
    /** A group named @p name (the "<group>" half of flattened
     *  "<group>.<key>" counter names; empty for anonymous groups). */
    explicit StatGroup(std::string name = "") : name_(std::move(name)) {}

    /** The counter for @p key, created zero on first use. The reference
     *  stays valid for the lifetime of the group (deque storage never
     *  relocates existing entries). */
    uint64_t&
    counter(const std::string& key)
    {
        auto [it, inserted] = index_.try_emplace(key, items_.size());
        if (inserted)
            items_.emplace_back(key, 0);
        return items_[it->second].second;
    }

    /** A cached hot-path handle to counter @p key (see CounterRef below;
     *  defined out of line because CounterRef needs the full group). */
    inline class CounterRef counterRef(std::string key);

    /** Read @p key without creating it (0 when absent). */
    uint64_t
    get(const std::string& key) const
    {
        auto it = index_.find(key);
        return it == index_.end() ? 0 : items_[it->second].second;
    }

    /** Accumulate every counter of @p other into this group (counters new
     *  to this group keep @p other's relative order). */
    void
    add(const StatGroup& other)
    {
        for (const auto& [k, v] : other.items_)
            counter(k) += v;
    }

    /** All (key, value) pairs in insertion order. */
    const std::deque<std::pair<std::string, uint64_t>>&
    all() const
    {
        return items_;
    }

    /** The group (component-instance) name. */
    const std::string& name() const { return name_; }

    /** Print "name.key = value" lines in insertion order. */
    void
    print(std::ostream& os) const
    {
        for (const auto& [k, v] : items_)
            os << name_ << (name_.empty() ? "" : ".") << k << " = " << v
               << "\n";
    }

  private:
    std::string name_;
    std::deque<std::pair<std::string, uint64_t>> items_;
    std::map<std::string, size_t> index_; ///< key -> position in items_
};

/**
 * A cached handle to one StatGroup counter, for hot paths that bump the
 * same counter every simulated event. A plain `g.counter("key")` pays a
 * string hash + map probe per bump; a CounterRef pays it once and then
 * increments through a stable `uint64_t*` (StatGroup's deque storage
 * never relocates entries).
 *
 * Resolution is deliberately *lazy* — the counter is registered on the
 * first bump, not at handle construction — so a group's key set and
 * insertion order remain exactly the first-touch order they had before
 * handles existed. That keeps flattened stats, CSV columns, and
 * time-series keys byte-identical: a counter a run never bumps still
 * never appears. Convention for new hot-path code: resolve a CounterRef
 * member at component construction and bump it with `++ref` / `ref += n`
 * (see ARCHITECTURE.md "Host-performance playbook").
 */
class CounterRef
{
  public:
    /** An unbound handle (never resolvable; for late initialization). */
    CounterRef() = default;

    /** A handle to @p group's counter @p key (not yet registered). */
    CounterRef(StatGroup& group, std::string key)
        : group_(&group), key_(std::move(key))
    {
    }

    /** The counter itself, registering it on first access. */
    uint64_t&
    value()
    {
        if (!ptr_)
            ptr_ = &group_->counter(key_);
        return *ptr_;
    }

    /** Bump by one (`++ref`). */
    uint64_t& operator++() { return ++value(); }
    /** Bump by @p n (`ref += n`). */
    uint64_t& operator+=(uint64_t n) { return value() += n; }

    /** Read without registering (0 while unregistered). */
    uint64_t get() const { return ptr_ ? *ptr_ : 0; }

  private:
    uint64_t* ptr_ = nullptr; ///< resolved on first bump; stable after
    StatGroup* group_ = nullptr;
    std::string key_;
};

inline CounterRef
StatGroup::counterRef(std::string key)
{
    return CounterRef(*this, std::move(key));
}

/**
 * A delta-encoded counter time series: one row per counter key, one
 * column per sample window. Column s covers the cycles
 * (sampleCycles[s-1], sampleCycles[s]] (from cycle 0 for s == 0), and
 * deltas[k][s] is how much counter keys[k] advanced inside that window —
 * so a counter's end-of-run value is the sum of its row, and rate curves
 * (IPC, hit rate, bandwidth) divide a row by the window widths.
 *
 * Samples land on multiples of `interval`; the last window may be a
 * shorter end-of-run remainder (sampleCycles.back() is then the final
 * cycle count). Keys appear in first-seen order; a counter first touched
 * mid-run is backfilled with zero deltas for the windows before it
 * existed, so the rows always form a rectangular matrix.
 */
struct TimeSeries
{
    uint64_t interval = 0; ///< sampling period in cycles (0 = disabled)
    std::vector<uint64_t> sampleCycles; ///< cycle stamp of each sample
    std::vector<std::string> keys;      ///< counter names, first-seen order
    std::vector<std::vector<uint64_t>> deltas; ///< [key][sample] increments

    /** Number of sample windows taken. */
    size_t numSamples() const { return sampleCycles.size(); }

    /** No samples recorded (sampling disabled or the run never ticked). */
    bool empty() const { return sampleCycles.empty(); }

    /** End-of-run total of the row for @p key (0 for an unknown key). */
    uint64_t
    total(const std::string& key) const
    {
        for (size_t k = 0; k < keys.size(); ++k)
            if (keys[k] == key) {
                uint64_t sum = 0;
                for (uint64_t d : deltas[k])
                    sum += d;
                return sum;
            }
        return 0;
    }

    /** Memberwise equality (used by the cache round-trip tests). */
    bool operator==(const TimeSeries&) const = default;
};

/**
 * Periodically snapshots a monotonically non-decreasing StatGroup and
 * delta-encodes the increments into a TimeSeries.
 *
 * The sampler is deliberately passive: the owner decides *when* a cycle
 * boundary is safe to observe (for the simulator that is after the
 * Processor's cross-core commit phase, when every cross-core effect of
 * the cycle has landed — see core/processor.h) and hands
 * in the flattened snapshot. due() is one load-and-test when disabled, so
 * an idle sampler costs nothing on the hot tick path.
 */
class StatSampler
{
  public:
    /** A sampler firing every @p interval cycles (0 = disabled). */
    explicit StatSampler(uint64_t interval = 0) { series_.interval = interval; }

    /** Was the sampler constructed with a nonzero interval? */
    bool enabled() const { return series_.interval != 0; }

    /** Is @p now a sampling boundary? (false whenever disabled) */
    bool
    due(uint64_t now) const
    {
        return series_.interval != 0 && now % series_.interval == 0;
    }

    /** Record the increments since the previous sample as a new window
     *  stamped @p now. @p snapshot must be monotonically non-decreasing
     *  between calls and @p now strictly increasing. */
    void
    sample(uint64_t now, const StatGroup& snapshot)
    {
        // Register keys new to this snapshot, backfilling zero deltas for
        // the windows recorded before the counter first existed.
        for (const auto& [k, v] : snapshot.all()) {
            (void)v;
            auto [it, inserted] = index_.try_emplace(k, series_.keys.size());
            (void)it;
            if (inserted) {
                series_.keys.push_back(k);
                series_.deltas.emplace_back(series_.numSamples(), 0);
            }
        }
        for (size_t k = 0; k < series_.keys.size(); ++k) {
            const std::string& key = series_.keys[k];
            uint64_t v = snapshot.get(key);
            series_.deltas[k].push_back(v - prev_.get(key));
        }
        series_.sampleCycles.push_back(now);
        prev_ = snapshot;
    }

    /** End-of-run partial window: like sample(), but a no-op when
     *  disabled, when @p now is 0, or when a sample already landed on
     *  @p now (the run ended exactly on a boundary). */
    void
    finalize(uint64_t now, const StatGroup& snapshot)
    {
        if (!enabled() || now == 0)
            return;
        if (!series_.empty() && series_.sampleCycles.back() == now)
            return;
        sample(now, snapshot);
    }

    /** The series recorded so far. */
    const TimeSeries& series() const { return series_; }

  private:
    TimeSeries series_;
    StatGroup prev_; ///< counter values at the previous sample
    std::map<std::string, size_t> index_; ///< key -> row in series_.keys
};

} // namespace vortex

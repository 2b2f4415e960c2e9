/**
 * @file
 * Statistics counters. A timing component declares its counters once, as
 * an enum `Ctr` (ending in `Count`) plus a name table `kCtrNames`, and
 * counts into a CounterBlock. The Processor lays every component out once
 * as a flat CounterTable of "<group>.<name>" slots (see
 * core::Processor::collectStats), which StatSampler diffs; StatGroup is
 * the named record a run carries. Names are lower_snake_case event
 * counts, monotonically non-decreasing over a run. Derived metrics
 * (ratios, utilizations) are computed from counters when reported
 * (e.g. mem::bankUtilization()), never stored as counters.
 *
 * Counters appear in first-touch order, which depends on the guest
 * program, and a counter never touched never appears; a touch that adds
 * 0 still registers the counter.
 */

#pragma once

#include <array>
#include <cstdint>
#include <iterator>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace vortex {

/**
 * A named collection of 64-bit counters, iterated in insertion order
 * (the order each counter was first touched). The flat record of a run:
 * RunRecord::stats, result-cache entries, the graphics pipeline's cold
 * counters.
 */
class StatGroup
{
  public:
    /** The counter for @p key, created zero on first use. The reference
     *  is valid until the next counter is created. */
    uint64_t&
    counter(const std::string& key)
    {
        auto [it, inserted] = index_.try_emplace(key, items_.size());
        if (inserted)
            items_.emplace_back(key, 0);
        return items_[it->second].second;
    }

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
    const std::vector<std::pair<std::string, uint64_t>>&
    all() const
    {
        return items_;
    }

  private:
    std::vector<std::pair<std::string, uint64_t>> items_;
    std::map<std::string, size_t> index_; ///< key -> position in items_
};

/**
 * The counters of one component instance, indexed by the component's
 * enum @p Ctr. The first touch of a counter, even one adding 0, appends
 * it to the touch order.
 */
template <typename Ctr>
class CounterBlock
{
  public:
    /** Number of counters the enum declares. */
    static constexpr size_t kSize = static_cast<size_t>(Ctr::Count);
    static_assert(kSize <= 64, "the touch mask is one 64-bit word");

    /** Add @p n to counter @p c. */
    void
    add(Ctr c, uint64_t n = 1)
    {
        const auto i = static_cast<uint8_t>(c);
        if (!(touched_ >> i & 1)) {
            touched_ |= uint64_t{1} << i;
            order_[numTouched_++] = i;
        }
        values_[i] += n;
    }

    /** The value of counter @p c (0 while untouched). */
    uint64_t
    operator[](Ctr c) const
    {
        return values_[static_cast<size_t>(c)];
    }

    /** Indices of the touched counters, in first-touch order. */
    std::span<const uint8_t>
    order() const
    {
        return {order_.data(), numTouched_};
    }

  private:
    std::array<uint64_t, kSize> values_{};
    std::array<uint8_t, kSize> order_{}; ///< first numTouched_ are live
    uint64_t touched_ = 0;               ///< bit i: counter i touched
    size_t numTouched_ = 0;
};

/**
 * A flat table of named counter slots with the same touch-order rule as
 * CounterBlock. The Processor lays it out once and refills it by
 * element-wise sums; adding instances in index order gives the order
 * that merging their StatGroups in index order would.
 */
class CounterTable
{
  public:
    /** Append a slot named @p name; returns its index. */
    size_t
    addSlot(std::string name)
    {
        names_.push_back(std::move(name));
        values_.push_back(0);
        touched_.push_back(0);
        return names_.size() - 1;
    }

    /** Append one slot "<prefix>.<name>" per counter of component type
     *  @p T (its `Ctr` and `kCtrNames`); returns the first slot. */
    template <typename T>
    size_t
    addGroup(const std::string& prefix)
    {
        using Ctr = typename T::Ctr;
        static_assert(std::size(T::kCtrNames) == CounterBlock<Ctr>::kSize,
                      "one name per counter");
        size_t base = names_.size();
        for (const char* n : T::kCtrNames)
            addSlot(prefix + "." + n);
        return base;
    }

    /** Zero every slot and forget the touch order. */
    void
    clear()
    {
        for (uint32_t s : order_)
            values_[s] = touched_[s] = 0;
        order_.clear();
    }

    /** Add @p n to slot @p slot. */
    void
    add(size_t slot, uint64_t n)
    {
        if (!touched_[slot]) {
            touched_[slot] = 1;
            order_.push_back(static_cast<uint32_t>(slot));
        }
        values_[slot] += n;
    }

    /** Add the touched counters of @p block, in its order, from slot
     *  @p base on. */
    template <typename Ctr>
    void
    add(size_t base, const CounterBlock<Ctr>& block)
    {
        for (uint8_t i : block.order())
            add(base + i, block[static_cast<Ctr>(i)]);
    }

    size_t size() const { return names_.size(); } ///< number of slots
    /** The name of slot @p s. */
    const std::string& name(size_t s) const { return names_[s]; }
    /** The value of slot @p s. */
    uint64_t value(size_t s) const { return values_[s]; }
    /** The touched slots, in first-touch order. */
    const std::vector<uint32_t>& order() const { return order_; }

    /** Add the touched slots, in order, into @p g under their names. */
    void
    addTo(StatGroup& g) const
    {
        for (uint32_t s : order_)
            g.counter(names_[s]) += values_[s];
    }

  private:
    std::vector<std::string> names_;
    std::vector<uint64_t> values_;
    std::vector<uint8_t> touched_;
    std::vector<uint32_t> order_;
};

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
 * Periodically snapshots a monotonically non-decreasing CounterTable and
 * delta-encodes the increments into a TimeSeries.
 *
 * The sampler is deliberately passive: the owner decides *when* a cycle
 * boundary is safe to observe (for the simulator that is after the
 * Processor's cross-core commit phase, when every cross-core effect of
 * the cycle has landed — see core/processor.h) and hands in the refilled
 * table. due() is one load-and-test when disabled, so an idle sampler
 * costs nothing on the hot tick path.
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
     *  stamped @p now. @p table must keep its slot layout and be
     *  monotonically non-decreasing between calls, and @p now strictly
     *  increasing. */
    void
    sample(uint64_t now, const CounterTable& table)
    {
        if (rowOf_.size() < table.size()) {
            rowOf_.resize(table.size(), kNoRow);
            prev_.resize(table.size(), 0);
        }
        // Add rows for slots new to this snapshot, backfilling zero
        // deltas for the windows recorded before the counter existed.
        for (uint32_t s : table.order()) {
            if (rowOf_[s] != kNoRow)
                continue;
            rowOf_[s] = static_cast<uint32_t>(slotOf_.size());
            slotOf_.push_back(s);
            series_.keys.push_back(table.name(s));
            series_.deltas.emplace_back(series_.numSamples(), 0);
        }
        for (size_t r = 0; r < slotOf_.size(); ++r) {
            uint32_t s = slotOf_[r];
            uint64_t v = table.value(s);
            series_.deltas[r].push_back(v - prev_[s]);
            prev_[s] = v;
        }
        series_.sampleCycles.push_back(now);
    }

    /** End-of-run partial window: like sample(), but a no-op when
     *  disabled, when @p now is 0, or when a sample already landed on
     *  @p now (the run ended exactly on a boundary). */
    void
    finalize(uint64_t now, const CounterTable& table)
    {
        if (!enabled() || now == 0)
            return;
        if (!series_.empty() && series_.sampleCycles.back() == now)
            return;
        sample(now, table);
    }

    /** The series recorded so far. */
    const TimeSeries& series() const { return series_; }

  private:
    static constexpr uint32_t kNoRow = UINT32_MAX; ///< slot has no row yet

    TimeSeries series_;
    std::vector<uint64_t> prev_;  ///< slot values at the previous sample
    std::vector<uint32_t> rowOf_; ///< slot -> row in series_ (or kNoRow)
    std::vector<uint32_t> slotOf_; ///< row -> slot
};

} // namespace vortex

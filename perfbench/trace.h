/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * Every call the benchmark makes into a layer of the simulator goes
 * through Tracer::time(), which always returns the call's host duration
 * (the untraced run's end-to-end metrics come from those durations) and,
 * while recording is on, also appends a span: name, start, end, parent
 * span and run id. Spans stay in memory and are written out once, when
 * the run ends (writeChromeTrace), so recording costs one vector append
 * per call. Spans are recorded from one thread only; the campaign's
 * worker threads run inside a single `sweep.campaign_*` span.
 */

#pragma once

#include <chrono>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/** One timed call. Times are seconds since the tracer was created. */
struct Span
{
    const char* name;
    double start;
    double end;
    int parent;      ///< index of the enclosing span, -1 at top level
    std::string run; ///< the point or pass the call belongs to

    double seconds() const { return end - start; }
};

class Tracer
{
  public:
    Tracer() : origin_(std::chrono::steady_clock::now()) {}

    /** Start or stop recording spans (timing never stops). */
    void setRecording(bool on) { recording_ = on; }

    /**
     * Run @p f as the span @p name of @p run and return its duration in
     * seconds. The span is recorded only while recording is on; it is
     * closed even when @p f throws.
     */
    template <class F>
    double
    time(const char* name, const std::string& run, F&& f)
    {
        Open open(*this, name, run);
        f();
        return open.close();
    }

    /** Index the next recorded span will get. */
    int nextIndex() const { return static_cast<int>(spans_.size()); }

    /**
     * Total duration per span name over the descendants of span @p root
     * (the root itself excluded).
     */
    std::map<std::string, double>
    totalsUnder(int root) const
    {
        std::map<std::string, double> totals;
        for (int i = root + 1; i < nextIndex(); ++i)
            if (descends(i, root))
                totals[spans_[i].name] += spans_[i].seconds();
        return totals;
    }

    /**
     * Self time per span name over every recorded span: a span's duration
     * minus the time its children cover. Children of one span never
     * overlap (they are recorded from one thread, one after another), so
     * the covered time is the sum of their durations.
     */
    std::map<std::string, double>
    selfTimes() const
    {
        std::vector<double> childTime(spans_.size(), 0.0);
        for (const Span& s : spans_)
            if (s.parent >= 0)
                childTime[s.parent] += s.seconds();
        std::map<std::string, double> self;
        for (size_t i = 0; i < spans_.size(); ++i)
            self[spans_[i].name] += spans_[i].seconds() - childTime[i];
        return self;
    }

    /** Write every span as a Chrome trace-event "X" event (opens in
     *  https://ui.perfetto.dev), with parent and run id as arguments. */
    void
    writeChromeTrace(std::ostream& os) const
    {
        os << "{\"traceEvents\": [";
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            os << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
               << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
               << s.start * 1e6 << ", \"dur\": " << s.seconds() * 1e6
               << ", \"args\": {\"id\": " << i << ", \"parent\": "
               << s.parent << ", \"run\": \"" << s.run << "\"}}";
        }
        os << "\n]}\n";
    }

  private:
    /** Opens a span on construction; closes it on close() or unwind. */
    class Open
    {
      public:
        Open(Tracer& t, const char* name, const std::string& run)
            : t_(t), start_(t.now())
        {
            if (!t_.recording_)
                return;
            index_ = t_.nextIndex();
            t_.spans_.push_back({name, start_, start_, t_.current_, run});
            t_.current_ = index_;
        }
        Open(const Open&) = delete;
        Open& operator=(const Open&) = delete;
        ~Open() { close(); }

        double
        close()
        {
            if (closed_)
                return end_ - start_;
            closed_ = true;
            end_ = t_.now();
            if (index_ >= 0) {
                t_.spans_[index_].end = end_;
                t_.current_ = t_.spans_[index_].parent;
            }
            return end_ - start_;
        }

      private:
        Tracer& t_;
        double start_;
        double end_ = 0.0;
        int index_ = -1;
        bool closed_ = false;
    };

    double
    now() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - origin_)
            .count();
    }

    bool
    descends(int i, int root) const
    {
        for (int p = spans_[i].parent; p >= 0; p = spans_[p].parent)
            if (p == root)
                return true;
        return false;
    }

    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;
    int current_ = -1;
    bool recording_ = false;
};

} // namespace perfbench

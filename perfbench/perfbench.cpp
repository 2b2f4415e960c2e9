/**
 * @file
 * The vortex-sim benchmark program. It runs one named workload through
 * the simulator's public API for a fixed host time, checks every result,
 * and prints its metrics as one JSON object on the last line of stdout:
 * the end-to-end metrics when untraced, the per-layer metrics when
 * traced. perfbench/run.py builds it and is the command to run;
 * perfbench/README.md defines the workloads and every metric.
 *
 * A workload is a list of points (kernel x machine). One pass sets up and
 * simulates every point once; a run repeats passes until its time is up
 * and reports medians over passes.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analysis.h"
#include "common/stats.h"
#include "isa/assembler.h"
#include "kernels/kernels.h"
#include "runtime/device.h"
#include "runtime/workloads.h"
#include "sweep/cache.h"
#include "sweep/campaign.h"
#include "sweep/presets.h"
#include "sweep/specfile.h"
#include "trace.h"

namespace {

using namespace vortex;
using perfbench::Tracer;
namespace fs = std::filesystem;

//
// Workloads.
//

/** One simulated kernel run of a single-thread workload. */
struct Point
{
    std::string id;
    std::string kernel;
    uint32_t cores;
    uint32_t scale;
    bool slowMemory;         ///< 400-cycle board memory, two channels
    uint64_t sampleInterval; ///< StatSampler period (0 = off)
};

/**
 * The points of a single-thread workload. `compute` keeps the issue
 * stage busy (sgemm/sfilter, no L2); `memory` makes 16 cores wait on slow
 * board memory through the L2 (saxpy/bfs); `sampled` is `memory` with a
 * counter snapshot every 100 cycles.
 */
std::vector<Point>
workloadPoints(const std::string& workload)
{
    std::vector<Point> points;
    if (workload == "compute") {
        for (const char* k : {"sgemm", "sfilter"})
            for (uint32_t c : {1u, 2u})
                points.push_back({workload + "/" + k + "-c" +
                                      std::to_string(c),
                                  k, c, 2, false, 0});
    } else if (workload == "memory" || workload == "sampled") {
        uint64_t interval = workload == "sampled" ? 100 : 0;
        for (const char* k : {"saxpy", "bfs"})
            points.push_back({workload + "/" + k + "-c16", k, 16, 4, true,
                              interval});
    }
    return points;
}

core::ArchConfig
pointConfig(const Point& p)
{
    core::ArchConfig cfg = sweep::baselineConfig(p.cores);
    if (p.slowMemory) {
        cfg.mem.latency = 400;
        cfg.mem.numChannels = 2;
    }
    cfg.sampleInterval = p.sampleInterval;
    return cfg;
}

/** splitmix64: the seed's stream for ordering points. */
uint64_t
nextRandom(uint64_t& state)
{
    uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/** Fisher-Yates shuffle driven by @p state (same seed, same order). */
template <class T>
void
shuffle(std::vector<T>& v, uint64_t& state)
{
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[nextRandom(state) % i]);
}

//
// Correctness gate: simulated numbers must repeat exactly.
//

uint64_t
fnv1a(const std::string& s, uint64_t h = 0xCBF29CE484222325ull)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001B3ull;
    }
    return h;
}

std::string
hex(uint64_t v)
{
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << v;
    return os.str();
}

std::string
countersDigest(const StatGroup& stats)
{
    std::string text;
    for (const auto& [k, v] : stats.all())
        text += k + "=" + std::to_string(v) + "\n";
    return hex(fnv1a(text));
}

std::string
seriesDigest(const TimeSeries& ts)
{
    std::ostringstream os;
    os << ts.interval << "\n";
    for (uint64_t c : ts.sampleCycles)
        os << c << " ";
    for (size_t k = 0; k < ts.keys.size(); ++k) {
        os << "\n" << ts.keys[k] << ":";
        for (uint64_t d : ts.deltas[k])
            os << " " << d;
    }
    return hex(fnv1a(os.str()));
}

/** What one point must reproduce. */
struct Expected
{
    uint64_t cycles = 0;
    uint64_t threadInstrs = 0;
    std::string counters; ///< FNV-1a of every "group.key=value" line
    std::string series;   ///< FNV-1a of the time series

    bool
    operator==(const Expected& o) const
    {
        return cycles == o.cycles && threadInstrs == o.threadInstrs &&
               counters == o.counters && series == o.series;
    }
};

/**
 * The recorded simulated numbers of every point (perfbench/expected.txt,
 * one "id cycles thread_instrs counters series" line per point). In
 * record mode a point's first result is stored and later passes must
 * still repeat it.
 */
class Gate
{
  public:
    Gate(std::string path, bool record)
        : path_(std::move(path)), record_(record)
    {
        std::ifstream in(path_);
        std::string id;
        Expected e;
        while (in >> id >> e.cycles >> e.threadInstrs >> e.counters >>
               e.series)
            expected_[id] = e;
    }

    /** Whether @p got matches the point's record; the reason goes to
     *  stderr when it does not. */
    bool
    check(const std::string& id, const Expected& got)
    {
        auto it = expected_.find(id);
        if (record_ && seen_.insert(id).second) {
            expected_[id] = got;
            return true;
        }
        if (it == expected_.end()) {
            std::cerr << "perfbench: " << id << ": no recorded result in "
                      << path_ << "\n";
            return false;
        }
        if (it->second == got)
            return true;
        std::cerr << "perfbench: " << id << ": simulated numbers changed: "
                  << "cycles " << got.cycles << " (recorded "
                  << it->second.cycles << "), thread_instrs "
                  << got.threadInstrs << " (" << it->second.threadInstrs
                  << "), counters " << got.counters << " ("
                  << it->second.counters << "), series " << got.series
                  << " (" << it->second.series << ")\n";
        return false;
    }

    void
    save() const
    {
        std::ofstream out(path_);
        for (const auto& [id, e] : expected_)
            out << id << " " << e.cycles << " " << e.threadInstrs << " "
                << e.counters << " " << e.series << "\n";
    }

  private:
    std::string path_;
    bool record_;
    std::map<std::string, Expected> expected_;
    std::set<std::string> seen_; ///< points recorded by this run
};

//
// Passes.
//

/** Exact simulated numbers of one pass, summed over its points. */
struct SimTotals
{
    uint64_t runs = 0;
    uint64_t cycles = 0;
    uint64_t coreCycles = 0;     ///< cycles x cores
    uint64_t warpCycles = 0;     ///< cycles x cores x warps
    uint64_t threadInstrs = 0;
    uint64_t l2Cycles = 0;       ///< cycles x clusters, points with an L2
    uint64_t memByteSlots = 0;   ///< cycles x busWidth x numChannels
    uint64_t samples = 0;        ///< StatSampler snapshots
    StatGroup counters;

    void
    add(const core::ArchConfig& cfg, const runtime::RunResult& r,
        const StatGroup& stats, const TimeSeries& series)
    {
        ++runs;
        cycles += r.cycles;
        coreCycles += r.cycles * cfg.numCores;
        warpCycles += r.cycles * cfg.numCores * cfg.numWarps;
        threadInstrs += r.threadInstrs;
        if (cfg.l2Enabled)
            l2Cycles += r.cycles * cfg.numClusters();
        memByteSlots +=
            r.cycles * cfg.mem.busWidth * cfg.mem.numChannels;
        samples += series.numSamples();
        counters.add(stats);
    }

    double
    ratio(uint64_t num, uint64_t den) const
    {
        return den ? static_cast<double>(num) / den : 0.0;
    }
    uint64_t get(const std::string& k) const { return counters.get(k); }
};

/** Host times and results of one pass over a workload's points. */
struct Pass
{
    std::string workload;
    bool traced = false;
    int root = -1;           ///< the pass's span when traced
    double wall = 0.0;       ///< measured phase (campaign: cold run + emit)
    double setup = 0.0;      ///< set-up before each point's first cycle
    double simSeconds = 0.0; ///< host seconds spent simulating
    uint64_t attempted = 0;
    uint64_t failed = 0;
    SimTotals sim;
    std::vector<double> pointSeconds; ///< per-point simulation seconds
    // campaign only
    uint32_t jobs = 0;
    uint32_t cacheHits = 0;
};

struct Context
{
    Tracer tracer;
    Gate gate;
    std::string specDir;
    std::string outDir;
    uint64_t seed;
    uint32_t jobs;
};

/**
 * Build @p cfg's Device, assemble and load @p kernel, and statically
 * verify it: the work before the point's first simulated cycle. Throws
 * when the analyzer reports anything.
 */
std::unique_ptr<runtime::Device>
setUp(Context& cx, Pass& pass, const core::ArchConfig& cfg,
      const std::string& kernel, const std::string& id)
{
    Tracer& tr = cx.tracer;
    std::unique_ptr<runtime::Device> dev;
    isa::Program program;
    analysis::Report report;
    pass.setup += tr.time("runtime.device_ctor", id, [&] {
        dev = std::make_unique<runtime::Device>(cfg);
    });
    pass.setup += tr.time("isa.assemble", id, [&] {
        const char* source = kernels::kernelSource(kernel);
        if (!source)
            throw std::runtime_error("unknown kernel " + kernel);
        program = isa::Assembler(cfg.startPC)
                      .assembleUnits({{"<runtime>", kernels::runtimeSource()},
                                      {"<kernel>", source}});
    });
    pass.setup += tr.time("runtime.upload", id,
                          [&] { dev->uploadProgram(program); });
    pass.setup += tr.time("analysis.verify", id,
                          [&] { report = dev->verify(); });
    if (!report.clean()) {
        std::ostringstream os;
        report.print(os);
        throw std::runtime_error("static verification failed:\n" +
                                 os.str());
    }
    return dev;
}

/**
 * Check one finished run: the runner's host-reference check, its time
 * series against its totals, and its simulated numbers against the
 * recorded ones. A run that passes is added to @p pass; one that fails
 * is counted and explained on stderr.
 */
void
finishRun(Context& cx, Pass& pass, const std::string& id, bool ok,
          const core::ArchConfig& cfg, const runtime::RunResult& r,
          const StatGroup& stats, const TimeSeries& series, double seconds)
{
    if (!r.ok || r.status != RunStatus::Ok) {
        std::cerr << "perfbench: " << id << ": " << statusName(r.status)
                  << " " << r.error << "\n";
        ok = false;
    }
    for (const std::string& k : series.keys)
        if (series.total(k) != stats.get(k)) {
            std::cerr << "perfbench: " << id << ": series " << k
                      << " does not sum to its total\n";
            ok = false;
        }
    ok = cx.gate.check(id, {r.cycles, r.threadInstrs, countersDigest(stats),
                            seriesDigest(series)}) &&
         ok;
    if (!ok) {
        ++pass.failed;
        return;
    }
    pass.simSeconds += seconds;
    pass.pointSeconds.push_back(seconds);
    pass.sim.add(cfg, r, stats, series);
}

/** One pass of a single-thread workload: set up and run every point. */
Pass
runPointsPass(Context& cx, const std::string& workload,
              const std::vector<Point>& points, bool traced,
              const std::string& passId)
{
    Pass pass;
    pass.workload = workload;
    pass.traced = traced;
    Tracer& tr = cx.tracer;
    tr.setRecording(traced);
    pass.root = traced ? tr.nextIndex() : -1;
    pass.wall = tr.time("pass", passId, [&] {
        for (const Point& p : points) {
            ++pass.attempted;
            core::ArchConfig cfg = pointConfig(p);
            try {
                auto dev = setUp(cx, pass, cfg, p.kernel, p.id);
                runtime::RunResult r;
                double s = tr.time("runtime.run", p.id, [&] {
                    r = runtime::runRodinia(*dev, p.kernel, p.scale);
                });
                StatGroup stats;
                tr.time("core.collect_stats", p.id, [&] {
                    dev->processor().collectStats(stats);
                });
                finishRun(cx, pass, p.id, true, cfg, r, stats,
                          dev->processor().timeSeries(), s);
            } catch (const std::exception& e) {
                std::cerr << "perfbench: " << p.id << ": " << e.what()
                          << "\n";
                ++pass.failed;
            }
        }
    });
    return pass;
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/**
 * One pass of the `campaign` workload: load and expand the fig18 spec,
 * set up each of its runs, run the campaign cold into a fresh result
 * cache with one worker per host CPU and emit its CSV and JSON (the
 * measured phase), then run it warm against the same cache. Traced
 * passes also time the cache writes on their own.
 */
Pass
runCampaignPass(Context& cx, bool traced, const std::string& passId)
{
    Pass pass;
    pass.workload = "campaign";
    pass.traced = traced;
    pass.jobs = cx.jobs;
    Tracer& tr = cx.tracer;
    tr.setRecording(traced);
    pass.root = traced ? tr.nextIndex() : -1;
    const fs::path cacheDir =
        fs::path(cx.outDir) / ("cache-" + std::to_string(getpid()));
    fs::remove_all(cacheDir);

    tr.time("pass", passId, [&] {
        sweep::SweepSpec spec;
        std::vector<sweep::RunSpec> runs;
        pass.setup += tr.time("sweep.expand", passId, [&] {
            const std::string path = cx.specDir + "/fig18.toml";
            spec = sweep::parseSpecText(readFile(path), path);
            uint64_t state = cx.seed;
            for (sweep::Axis& axis : spec.axes)
                shuffle(axis.points, state);
            runs = spec.expand();
        });
        for (const sweep::RunSpec& run : runs) {
            const std::string id = "campaign/" + run.id();
            try {
                setUp(cx, pass, run.config, run.workload.kernel, id);
            } catch (const std::exception& e) {
                std::cerr << "perfbench: " << id << ": " << e.what() << "\n";
                ++pass.failed;
            }
        }

        sweep::CampaignOptions opts;
        opts.jobs = cx.jobs;
        opts.cacheDir = (cacheDir / "results").string();
        sweep::CampaignResult cold, warm;
        std::ostringstream csv, json, warmCsv;
        double coldSeconds = tr.time("sweep.campaign_cold", passId, [&] {
            cold = sweep::Campaign(opts).run(spec);
        });
        double emitSeconds = tr.time("sweep.emit", passId, [&] {
            cold.writeCsv(csv);
            cold.writeJson(json);
        });
        pass.wall = coldSeconds + emitSeconds;

        for (const sweep::RunRecord& rec : cold.records) {
            ++pass.attempted;
            // The cold pass starts from an empty cache, so every run
            // must have been simulated.
            finishRun(cx, pass, "campaign/" + rec.spec.id(), !rec.fromCache,
                      rec.spec.config, rec.result, rec.stats, rec.series,
                      rec.hostSeconds);
        }

        tr.time("sweep.campaign_warm", passId, [&] {
            warm = sweep::Campaign(opts).run(spec);
        });
        warm.writeCsv(warmCsv);
        pass.cacheHits = warm.cacheHits;
        if (warm.cacheHits != runs.size() || warmCsv.str() != csv.str()) {
            std::cerr << "perfbench: warm campaign pass: " << warm.cacheHits
                      << "/" << runs.size()
                      << " cache hits, CSV identical to the cold pass: "
                      << (warmCsv.str() == csv.str() ? "yes" : "no") << "\n";
            ++pass.failed;
        }

        if (traced) {
            sweep::CacheStore store((cacheDir / "store").string());
            tr.time("sweep.cache_store", passId, [&] {
                for (const sweep::RunRecord& rec : cold.records)
                    store.store(rec, spec.name);
            });
        }
    });
    fs::remove_all(cacheDir);
    return pass;
}

//
// Statistics and output.
//

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Linear-interpolated percentile @p p (0-100) of @p v. */
double
percentile(std::vector<double> v, double p)
{
    std::sort(v.begin(), v.end());
    double pos = p / 100.0 * (v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - lo) * (v[hi] - v[lo]);
}

/**
 * "median M, pK V, n=N": a timing's median plus the highest whole
 * percentile K that still has at least ten samples above it.
 */
std::string
describeTiming(const std::vector<double>& v, const char* unit)
{
    std::ostringstream os;
    os << std::setprecision(6) << "median " << median(v) << " " << unit;
    int k = static_cast<int>(std::floor(100.0 * (1.0 - 10.0 / v.size())));
    if (k > 50)
        os << ", p" << k << " " << percentile(v, k) << " " << unit;
    else
        os << ", no percentile above the median has 10 samples beyond it";
    os << ", n=" << v.size();
    return os.str();
}

template <class F>
std::vector<double>
collect(const std::vector<const Pass*>& passes, F&& f)
{
    std::vector<double> v;
    for (const Pass* p : passes)
        v.push_back(f(*p));
    return v;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss / 1024.0; // Linux reports KiB
}

/**
 * End-to-end metrics of an untraced run: host-time figures are medians
 * over the run's passes, simulated figures are exact.
 */
std::vector<Metric>
endToEndMetrics(const std::vector<const Pass*>& ps, uint64_t attempted,
                uint64_t failed)
{
    auto med = [&](auto f) { return median(collect(ps, f)); };
    auto simRate = [&](auto work, double scale) {
        return med([&](const Pass& p) {
            return p.simSeconds > 0 ? work(p) / p.simSeconds / scale : 0.0;
        });
    };
    const SimTotals& sim = ps.front()->sim;
    return {
        {"wall_s", med([](const Pass& p) { return p.wall; }), "s"},
        {"sim_kcycles_per_s",
         simRate([](const Pass& p) { return double(p.sim.cycles); }, 1e3),
         "kcycle/s"},
        {"core_kcycles_per_s",
         simRate([](const Pass& p) { return double(p.sim.coreCycles); }, 1e3),
         "kcycle/s"},
        {"thread_minstr_per_s",
         simRate([](const Pass& p) { return double(p.sim.threadInstrs); },
                 1e6),
         "Minstr/s"},
        {"campaign_runs_per_s",
         med([](const Pass& p) { return p.sim.runs / p.wall; }),
         "run/s"},
        {"setup_s", med([](const Pass& p) { return p.setup; }), "s"},
        {"peak_rss_mb", peakRssMiB(), "MiB"},
        {"ok_ratio", double(attempted - failed) / attempted, "1"},
        {"sim_cycles", double(sim.cycles), "cycle"},
        {"ipc", sim.ratio(sim.threadInstrs, sim.cycles), "instr/cycle"},
    };
}

/**
 * Per-layer metrics of a traced run. Host times come from the spans of
 * the traced passes (median over passes); ratios of simulated counters
 * are exact. A layer the workload does not run reports 0.
 */
std::vector<Metric>
layerMetrics(const Tracer& tr, const std::vector<const Pass*>& traced,
             const std::vector<const Pass*>& untraced,
             const std::vector<const Pass*>& memoryTraced)
{
    auto span = [&](const char* name, double scale) {
        return median(collect(traced, [&](const Pass& p) {
            auto totals = tr.totalsUnder(p.root);
            auto it = totals.find(name);
            return it == totals.end() ? 0.0 : it->second * scale;
        }));
    };
    auto field = [&](auto f) { return median(collect(traced, f)); };
    const bool campaign = traced.front()->workload == "campaign";
    const SimTotals& s = traced.front()->sim;
    auto sum = [&](const std::string& g, const char* a, const char* b) {
        return s.get(g + "." + a) + s.get(g + "." + b);
    };

    double runSeconds =
        campaign ? field([](const Pass& p) { return p.simSeconds; })
                 : span("runtime.run", 1.0);
    double perSample = 0.0;
    if (!memoryTraced.empty() && s.samples > 0) {
        double memorySeconds = median(
            collect(memoryTraced, [](const Pass& p) { return p.simSeconds; }));
        perSample = (runSeconds - memorySeconds) / s.samples * 1e6;
    }
    double tracedWall = field([](const Pass& p) { return p.wall; });
    double untracedWall =
        median(collect(untraced, [](const Pass& p) { return p.wall; }));

    return {
        {"sweep.expand_ms", span("sweep.expand", 1e3), "ms"},
        {"sweep.pool_efficiency",
         campaign ? field([](const Pass& p) {
             return p.simSeconds / (p.jobs * p.wall);
         })
                  : 0.0,
         "1"},
        {"sweep.cache_store_ms_per_run",
         campaign ? span("sweep.cache_store", 1e3) / s.runs : 0.0, "ms"},
        {"sweep.cache_hit_ms_per_run",
         campaign ? span("sweep.campaign_warm", 1e3) /
                        std::max<uint32_t>(1, traced.front()->cacheHits)
                  : 0.0,
         "ms"},
        {"sweep.cache_hits", double(traced.front()->cacheHits), "count"},
        {"sweep.emit_ms", span("sweep.emit", 1e3), "ms"},
        {"runtime.device_ctor_ms", span("runtime.device_ctor", 1e3), "ms"},
        {"runtime.run_s", runSeconds, "s"},
        {"isa.assemble_ms", span("isa.assemble", 1e3), "ms"},
        {"analysis.verify_ms", span("analysis.verify", 1e3), "ms"},
        {"sim.host_ns_per_core_cycle",
         runSeconds / std::max<uint64_t>(1, s.coreCycles) * 1e9, "ns"},
        {"core.issue_util", s.ratio(s.get("core.warp_instrs"), s.coreCycles),
         "1"},
        {"core.scoreboard_stall_frac",
         s.ratio(s.get("core.issue_scoreboard_stalls"), s.warpCycles), "1"},
        {"core.structural_stall_frac",
         s.ratio(s.get("core.issue_structural_stalls"), s.warpCycles), "1"},
        {"dcache.probe_util",
         s.ratio(sum("dcache", "core_reads", "core_writes"), s.coreCycles),
         "1"},
        {"dcache.hit_rate",
         s.ratio(sum("dcache", "read_hits", "write_hits"),
                 sum("dcache", "core_reads", "core_writes")),
         "1"},
        {"dcache.bank_util",
         s.ratio(s.get("dcache.sel_accepted"),
                 sum("dcache", "sel_accepted", "sel_conflicts")),
         "1"},
        {"icache.hit_rate",
         s.ratio(s.get("icache.read_hits"), s.get("icache.core_reads")),
         "1"},
        {"l2.probe_util",
         s.ratio(sum("l2", "core_reads", "core_writes"), s.l2Cycles), "1"},
        {"l2.hit_rate",
         s.ratio(sum("l2", "read_hits", "write_hits"),
                 sum("l2", "core_reads", "core_writes")),
         "1"},
        {"mem.bw_util", s.ratio(s.get("mem.bytes"), s.memByteSlots), "1"},
        {"sampler.samples", double(s.samples), "count"},
        {"sampler.host_us_per_sample", perSample, "us"},
        {"trace.overhead_frac", tracedWall / untracedWall - 1.0, "1"},
    };
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

std::string
metricsJson(const std::vector<Metric>& ms)
{
    std::ostringstream os;
    os << "{";
    for (size_t i = 0; i < ms.size(); ++i)
        os << (i ? ", " : "") << "\"" << ms[i].name << "\": {\"value\": "
           << jsonNumber(ms[i].value) << ", \"unit\": \"" << ms[i].unit
           << "\"}";
    os << "}";
    return os.str();
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool record = false;
    std::string expected;
    std::string specDir;
    std::string outDir = ".";
    std::string commit = "unknown";
    std::string sourceDigest = "unknown";
};

bool
parseArgs(int argc, char** argv, Args& a)
{
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (k == "--record") {
            a.record = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--expected")
            a.expected = v;
        else if (k == "--spec-dir")
            a.specDir = v;
        else if (k == "--out-dir")
            a.outDir = v;
        else if (k == "--commit")
            a.commit = v;
        else if (k == "--source-digest")
            a.sourceDigest = v;
        else
            return false;
    }
    return !a.expected.empty() && !a.specDir.empty() &&
           (a.workload == "campaign" ||
            !workloadPoints(a.workload).empty());
}

} // namespace

int
main(int argc, char** argv)
{
    Args args;
    try {
        if (!parseArgs(argc, argv, args))
            throw std::invalid_argument("bad arguments");
    } catch (const std::exception&) {
        std::cerr << "usage: perfbench --workload compute|memory|sampled|"
                     "campaign --seed N --seconds S --trace 0|1 --expected "
                     "FILE --spec-dir DIR [--out-dir DIR] [--record] "
                     "[--commit SHA] [--source-digest HEX]\n";
        return 2;
    }
    fs::create_directories(args.outDir);

    Context cx{Tracer(), Gate(args.expected, args.record), args.specDir,
               args.outDir, args.seed,
               std::max(1u, std::thread::hardware_concurrency())};
    std::vector<Point> points = workloadPoints(args.workload);
    uint64_t state = args.seed;
    shuffle(points, state);
    std::vector<Point> memoryPoints;
    if (args.workload == "sampled" && args.trace) {
        memoryPoints = workloadPoints("memory");
        shuffle(memoryPoints, state);
    }

    // Untraced runs measure passes back to back. Traced runs alternate a
    // traced and an untraced pass (for trace.overhead_frac); on `sampled`
    // each round also runs the `memory` points traced, the base of
    // sampler.host_us_per_sample.
    std::vector<Pass> passes;
    auto onePass = [&](bool traced, const std::string& id) {
        passes.push_back(args.workload == "campaign"
                             ? runCampaignPass(cx, traced, id)
                             : runPointsPass(cx, args.workload, points,
                                             traced, id));
    };
    const auto start = std::chrono::steady_clock::now();
    auto elapsed = [&] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };
    const size_t minRounds = args.trace ? 2 : 3;
    try {
        for (size_t round = 0;
             round < minRounds || elapsed() < args.seconds; ++round) {
            const std::string id = "pass" + std::to_string(round);
            if (!args.trace) {
                onePass(false, id);
                continue;
            }
            onePass(true, id + "-traced");
            onePass(false, id);
            if (!memoryPoints.empty())
                passes.push_back(runPointsPass(cx, "memory", memoryPoints,
                                               true, id + "-memory"));
        }
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << args.workload << ": " << e.what()
                  << "\n";
        return 1;
    }
    const double measured = elapsed();

    std::vector<const Pass*> traced, untraced, memoryTraced;
    uint64_t attempted = 0, failed = 0;
    for (const Pass& p : passes) {
        attempted += p.attempted;
        failed += p.failed;
        if (p.workload != args.workload)
            memoryTraced.push_back(&p);
        else
            (p.traced ? traced : untraced).push_back(&p);
    }
    // Every pass must simulate exactly the same numbers.
    for (const Pass& p : passes)
        if (p.workload == args.workload &&
            (p.sim.cycles != untraced.front()->sim.cycles ||
             p.sim.threadInstrs != untraced.front()->sim.threadInstrs))
            ++failed;
    const bool correct = failed == 0;
    if (args.record && correct)
        cx.gate.save();

    std::vector<Metric> metrics =
        args.trace ? layerMetrics(cx.tracer, traced, untraced, memoryTraced)
                   : endToEndMetrics(untraced, attempted, failed);

    std::ostringstream env;
    env << "{\"workload\": \"" << args.workload << "\", \"seed\": "
        << args.seed << ", \"seconds\": " << args.seconds
        << ", \"trace\": " << args.trace << ", \"nproc\": "
        << std::thread::hardware_concurrency() << ", \"campaign_jobs\": "
        << cx.jobs << ", \"compiler\": \"" << compilerName()
        << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
        << "\", \"lto\": " << (PERFBENCH_LTO ? "true" : "false")
        << ", \"commit\": \"" << args.commit << "\", \"source_digest\": \""
        << args.sourceDigest << "\", \"passes\": " << passes.size()
        << ", \"measured_s\": " << jsonNumber(measured) << "}";

    // Human-readable report, then the result as the last stdout line.
    std::cout << "env " << env.str() << "\n";
    auto walls = collect(untraced, [](const Pass& p) { return p.wall; });
    std::cout << "timing wall_s: " << describeTiming(walls, "s") << "\n";
    std::vector<double> pointSeconds;
    for (const Pass* p : untraced)
        pointSeconds.insert(pointSeconds.end(), p->pointSeconds.begin(),
                            p->pointSeconds.end());
    if (!pointSeconds.empty())
        std::cout << "timing per-run simulation s: "
                  << describeTiming(pointSeconds, "s") << "\n";
    auto setups = collect(untraced, [](const Pass& p) { return p.setup; });
    std::cout << "timing setup_s: " << describeTiming(setups, "s") << "\n";
    if (args.trace) {
        std::cout << "self time by span, all traced passes (s):\n";
        for (const auto& [name, secs] : cx.tracer.selfTimes())
            std::cout << "  " << std::left << std::setw(24) << name
                      << jsonNumber(secs) << "\n";
    }
    for (const Metric& m : metrics)
        std::cout << "metric " << m.name << " = " << jsonNumber(m.value)
                  << " " << m.unit << "\n";

    const std::string stem = args.outDir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + "-trace" +
                             (args.trace ? "1" : "0");
    if (args.trace) {
        std::ofstream spans(stem + "-spans.json");
        cx.tracer.writeChromeTrace(spans);
    }
    std::ostringstream result;
    result << "{\"correct\": " << (correct ? "true" : "false")
           << ", \"attempted\": " << attempted << ", \"failed\": " << failed
           << ", \"metrics\": " << metricsJson(metrics) << "}";
    // The result file also keeps every pass, so other statistics can be
    // computed from a run later.
    std::ofstream file(stem + ".json");
    file << "{\"env\": " << env.str() << ", \"result\": " << result.str()
         << ", \"passes\": [";
    for (size_t i = 0; i < passes.size(); ++i) {
        const Pass& p = passes[i];
        file << (i ? ",\n" : "\n") << "{\"workload\": \"" << p.workload
             << "\", \"traced\": " << (p.traced ? "true" : "false")
             << ", \"wall_s\": " << jsonNumber(p.wall) << ", \"setup_s\": "
             << jsonNumber(p.setup) << ", \"sim_s\": "
             << jsonNumber(p.simSeconds) << ", \"run_sim_s\": [";
        for (size_t j = 0; j < p.pointSeconds.size(); ++j)
            file << (j ? ", " : "") << jsonNumber(p.pointSeconds[j]);
        file << "]}";
    }
    file << "\n]}\n";
    std::cout << result.str() << std::endl;
    return correct ? 0 : 1;
}

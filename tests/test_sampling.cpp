/**
 * @file
 * Tests for per-interval counter sampling: the StatSampler delta
 * encoding, the Processor-level series invariants, the campaign plumbing
 * (job-count and cache-state byte-stability of the time-series JSON,
 * cache round-trip of a RunRecord with a series), disabled-by-default
 * behavior, and the result-cache hygiene tools (manifest + prune).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/log.h"
#include "common/stats.h"
#include "core/processor.h"
#include "runtime/device.h"
#include "runtime/workloads.h"
#include "sweep/cache.h"
#include "sweep/campaign.h"
#include "sweep/presets.h"
#include "sweep/spec.h"

using namespace vortex;

namespace {

/** Unique scratch directory under the system temp dir. */
std::string
freshTempDir(const char* tag)
{
    static int serial = 0;
    std::string dir =
        (std::filesystem::temp_directory_path() /
         (std::string("vortex_sampling_test_") + tag + "_" +
          std::to_string(::getpid()) + "_" + std::to_string(serial++)))
            .string();
    std::filesystem::remove_all(dir);
    return dir;
}

/** Run @p kernel on a machine with @p cfg and return the recorded
 *  series plus the end-of-run flattened counters. */
std::pair<TimeSeries, StatGroup>
runSampled(const core::ArchConfig& cfg, const std::string& kernel)
{
    runtime::Device dev(cfg);
    runtime::RunResult r = runtime::runRodinia(dev, kernel, 1);
    EXPECT_TRUE(r.ok) << kernel << ": " << r.error;
    StatGroup flat;
    dev.processor().collectStats(flat);
    return {dev.processor().timeSeries(), flat};
}

/** A small sampled sweep: 2 kernels x 2 wavefront counts. */
sweep::SweepSpec
sampledSpec(uint64_t interval)
{
    sweep::SweepSpec s;
    s.name = "sampled";
    s.base = sweep::baselineConfig(1);
    s.base.sampleInterval = interval;
    s.axes = {sweep::Axis::sweep("kernel", {"vecadd", "saxpy"}),
              sweep::Axis::sweepU32("numWarps", {2, 4})};
    return s;
}

} // namespace

TEST(StatSampler, DisabledSamplerRecordsNothing)
{
    StatSampler sampler; // default: interval 0
    EXPECT_FALSE(sampler.enabled());
    EXPECT_FALSE(sampler.due(1000));
    StatGroup g;
    g.counter("x") = 5;
    sampler.finalize(1234, g);
    EXPECT_TRUE(sampler.series().empty());
    EXPECT_EQ(sampler.series().interval, 0u);
}

TEST(StatSampler, DeltaEncodingAndLateKeyBackfill)
{
    StatSampler sampler(100);
    EXPECT_TRUE(sampler.due(100));
    EXPECT_TRUE(sampler.due(200));
    EXPECT_FALSE(sampler.due(150));

    StatGroup g;
    g.counter("a") = 10;
    sampler.sample(100, g);
    g.counter("a") = 25;
    sampler.sample(200, g);
    // "b" first appears in window 3: its row must be backfilled with
    // zeros for windows 1-2 so the matrix stays rectangular.
    g.counter("a") = 25;
    g.counter("b") = 7;
    sampler.sample(300, g);
    // End-of-run remainder window at cycle 342.
    g.counter("a") = 30;
    g.counter("b") = 7;
    sampler.finalize(342, g);
    // finalize on an already-sampled cycle is a no-op.
    sampler.finalize(342, g);

    const TimeSeries& ts = sampler.series();
    ASSERT_EQ(ts.numSamples(), 4u);
    EXPECT_EQ(ts.sampleCycles,
              (std::vector<uint64_t>{100, 200, 300, 342}));
    ASSERT_EQ(ts.keys, (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(ts.deltas[0], (std::vector<uint64_t>{10, 15, 0, 5}));
    EXPECT_EQ(ts.deltas[1], (std::vector<uint64_t>{0, 0, 7, 0}));
    EXPECT_EQ(ts.total("a"), 30u);
    EXPECT_EQ(ts.total("b"), 7u);
    EXPECT_EQ(ts.total("nope"), 0u);
}

TEST(Sampling, DisabledByDefaultOnTheDevice)
{
    core::ArchConfig cfg; // sampleInterval defaults to 0
    EXPECT_EQ(cfg.sampleInterval, 0u);
    auto [ts, flat] = runSampled(cfg, "vecadd");
    EXPECT_TRUE(ts.empty());
    EXPECT_EQ(ts.interval, 0u);
    EXPECT_GT(flat.get("core.retired"), 0u); // the run itself happened
}

TEST(Sampling, SeriesSumsToEndOfRunCounters)
{
    core::ArchConfig cfg;
    cfg.sampleInterval = 500;
    auto [ts, flat] = runSampled(cfg, "vecadd");

    ASSERT_FALSE(ts.empty());
    EXPECT_EQ(ts.interval, 500u);
    // Every sample but the last lands on a multiple of the interval;
    // stamps are strictly increasing.
    for (size_t s = 0; s + 1 < ts.numSamples(); ++s) {
        EXPECT_EQ(ts.sampleCycles[s] % 500, 0u);
        EXPECT_LT(ts.sampleCycles[s], ts.sampleCycles[s + 1]);
    }
    // Delta-encoding invariant: summing a counter's windows reproduces
    // its end-of-run value, for every counter in the flattened group.
    for (const auto& [key, value] : flat.all())
        EXPECT_EQ(ts.total(key), value) << key;
    // The synthetic IPC numerator is present and rectangular.
    ASSERT_EQ(ts.keys[0], "core.thread_instrs");
    for (const auto& row : ts.deltas)
        EXPECT_EQ(row.size(), ts.numSamples());
}

TEST(SamplingSweep, SampleIntervalIsARegisteredFieldAndHashed)
{
    core::ArchConfig cfg;
    sweep::WorkloadSpec wl;
    ASSERT_TRUE(sweep::applyField(cfg, wl, "sampleInterval", "10000"));
    EXPECT_EQ(cfg.sampleInterval, 10000u);

    // Sampling changes the cache key (a cached record must carry the
    // series the request asks for).
    sweep::RunSpec off, on;
    on.config.sampleInterval = 10000;
    EXPECT_NE(off.contentHash(), on.contentHash());
}

TEST(SamplingSweep, TimeSeriesJsonByteStableAcrossJobsAndCache)
{
    sweep::SweepSpec spec = sampledSpec(1000);

    sweep::CampaignOptions j1;
    j1.jobs = 1;
    std::ostringstream ts1;
    sweep::Campaign(j1).run(spec).writeTimeSeriesJson(ts1);

    sweep::CampaignOptions j4;
    j4.jobs = 4;
    std::ostringstream ts4;
    sweep::Campaign(j4).run(spec).writeTimeSeriesJson(ts4);
    EXPECT_EQ(ts1.str(), ts4.str());

    // Cold store then warm restore: same bytes again, via the cache.
    std::string dir = freshTempDir("ts");
    sweep::CampaignOptions cached;
    cached.jobs = 2;
    cached.cacheDir = dir;
    std::ostringstream cold, warm;
    sweep::Campaign(cached).run(spec).writeTimeSeriesJson(cold);
    sweep::CampaignResult warmResult = sweep::Campaign(cached).run(spec);
    warmResult.writeTimeSeriesJson(warm);
    EXPECT_EQ(warmResult.cacheHits, 4u);
    EXPECT_EQ(ts1.str(), cold.str());
    EXPECT_EQ(ts1.str(), warm.str());

    // Balanced braces/brackets as a JSON sanity floor.
    const std::string s = ts1.str();
    EXPECT_EQ(std::count(s.begin(), s.end(), '{'),
              std::count(s.begin(), s.end(), '}'));
    EXPECT_EQ(std::count(s.begin(), s.end(), '['),
              std::count(s.begin(), s.end(), ']'));
    EXPECT_NE(s.find("\"interval\": 1000"), std::string::npos);
    EXPECT_NE(s.find("\"core.thread_instrs\": ["), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(SamplingSweep, CacheRoundTripsTheSeriesExactly)
{
    std::string dir = freshTempDir("roundtrip");
    sweep::SweepSpec spec = sampledSpec(750);
    sweep::CampaignOptions opts;
    opts.cacheDir = dir;

    sweep::CampaignResult cold = sweep::Campaign(opts).run(spec);
    sweep::CampaignResult warm = sweep::Campaign(opts).run(spec);
    ASSERT_EQ(warm.records.size(), cold.records.size());
    for (size_t i = 0; i < warm.records.size(); ++i) {
        EXPECT_TRUE(warm.records[i].fromCache);
        EXPECT_FALSE(cold.records[i].series.empty());
        EXPECT_TRUE(warm.records[i].series == cold.records[i].series)
            << warm.records[i].spec.id();
    }

    // A run without sampling is a different cache entry: no false hit.
    sweep::SweepSpec unsampled = sampledSpec(0);
    sweep::CampaignResult miss = sweep::Campaign(opts).run(unsampled);
    EXPECT_EQ(miss.cacheHits, 0u);
    EXPECT_EQ(miss.cacheMisses, 4u);
    for (const sweep::RunRecord& r : miss.records)
        EXPECT_TRUE(r.series.empty());
    std::filesystem::remove_all(dir);
}

TEST(CacheHygiene, ManifestListsEntriesAndPruneRemovesThem)
{
    std::string dir = freshTempDir("hygiene");
    sweep::SweepSpec spec = sampledSpec(0);
    sweep::CampaignOptions opts;
    opts.cacheDir = dir;
    sweep::Campaign(opts).run(spec);

    // The campaign wrote 4 entries and a manifest describing them.
    sweep::CacheStore store(dir);
    std::vector<sweep::CacheEntryInfo> entries = store.entries();
    ASSERT_EQ(entries.size(), 4u);
    for (const sweep::CacheEntryInfo& e : entries) {
        EXPECT_EQ(e.hash.size(), 16u);
        EXPECT_EQ(e.campaign, "sampled");
        EXPECT_FALSE(e.id.empty());
        EXPECT_GT(e.mtime, 0);
    }
    std::ifstream mf(dir + "/manifest.json");
    ASSERT_TRUE(mf.good());
    std::stringstream buf;
    buf << mf.rdbuf();
    EXPECT_NE(buf.str().find(entries[0].hash), std::string::npos);
    EXPECT_NE(buf.str().find("\"campaign\": \"sampled\""),
              std::string::npos);

    // Age-bounded prune keeps everything (entries are seconds old) ...
    EXPECT_EQ(store.prune(1.0), 0u);
    EXPECT_EQ(store.entries().size(), 4u);
    // ... an unbounded prune removes everything and leaves an empty,
    // well-formed manifest behind.
    EXPECT_EQ(store.prune(), 4u);
    EXPECT_TRUE(store.entries().empty());
    std::ifstream mf2(dir + "/manifest.json");
    std::stringstream buf2;
    buf2 << mf2.rdbuf();
    EXPECT_NE(buf2.str().find("\"entries\": ["), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(Presets, PerfSmokePresetAndBenchHarnessAliases)
{
    const sweep::Preset* smoke = sweep::findPreset("perf_smoke");
    ASSERT_NE(smoke, nullptr);
    sweep::SweepSpec spec = smoke->sweep({});
    EXPECT_EQ(spec.runCount(), 6u);
    EXPECT_EQ(spec.expand().size(), 6u);

    // The long bench-harness names resolve to the short presets.
    EXPECT_EQ(sweep::findPreset("fig18_scaling"),
              sweep::findPreset("fig18"));
    EXPECT_EQ(sweep::findPreset("fig19_cache_ports"),
              sweep::findPreset("fig19"));
    EXPECT_EQ(sweep::findPreset("table3_core_area"),
              sweep::findPreset("table3"));
    EXPECT_NE(sweep::findPreset("fig18_scaling"), nullptr);
    EXPECT_EQ(sweep::findPreset("fig99_bogus"), nullptr);
    EXPECT_EQ(sweep::findPreset("ablation_bogus"), nullptr);
}

TEST(SamplingSweep, BenchJsonCarriesHostSecondsAndHeadlines)
{
    sweep::SweepSpec spec = sampledSpec(0);
    sweep::CampaignResult r = sweep::Campaign().run(spec);
    std::ostringstream os;
    r.writeBenchJson(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("\"total_host_seconds\": "), std::string::npos);
    EXPECT_NE(s.find("\"from_cache\": false"), std::string::npos);
    EXPECT_NE(s.find("\"core.thread_instrs\": "), std::string::npos);
    EXPECT_EQ(std::count(s.begin(), s.end(), '{'),
              std::count(s.begin(), s.end(), '}'));
}

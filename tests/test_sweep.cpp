/**
 * @file
 * Tests for the simulation-campaign subsystem (src/sweep/): spec
 * expansion, the named-field registry, content hashing, the result
 * cache, and the determinism contract — a multi-job campaign's CSV must
 * be bit-identical to a single-job run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/log.h"
#include "sweep/campaign.h"
#include "sweep/presets.h"
#include "sweep/report.h"
#include "sweep/spec.h"

using namespace vortex;
using namespace vortex::sweep;

namespace {

/** A fast two-axis campaign: 2 kernels x 2 geometries, test-sized. */
SweepSpec
tinySpec()
{
    SweepSpec s;
    s.name = "tiny";
    s.base = baselineConfig(1);
    s.axes = {Axis::sweep("kernel", {"vecadd", "saxpy"}),
              Axis::sweepU32("numWarps", {2, 4})};
    return s;
}

/** Unique scratch directory under the system temp dir. */
std::string
freshTempDir(const char* tag)
{
    static int serial = 0;
    std::string dir =
        (std::filesystem::temp_directory_path() /
         (std::string("vortex_sweep_test_") + tag + "_" +
          std::to_string(::getpid()) + "_" + std::to_string(serial++)))
            .string();
    std::filesystem::remove_all(dir);
    return dir;
}

} // namespace

TEST(SweepSpec, ExpansionIsRowMajorCartesianProduct)
{
    SweepSpec s = tinySpec();
    ASSERT_EQ(s.runCount(), 4u);
    std::vector<RunSpec> runs = s.expand();
    ASSERT_EQ(runs.size(), 4u);

    // Last axis varies fastest.
    EXPECT_EQ(runs[0].id(), "vecadd/2");
    EXPECT_EQ(runs[1].id(), "vecadd/4");
    EXPECT_EQ(runs[2].id(), "saxpy/2");
    EXPECT_EQ(runs[3].id(), "saxpy/4");

    // Axis assignments land on the resolved config/workload.
    EXPECT_EQ(runs[1].config.numWarps, 4u);
    EXPECT_EQ(runs[2].config.numWarps, 2u);
    EXPECT_EQ(runs[2].workload.kernel, "saxpy");
    EXPECT_EQ(runs[0].coords[0].first, "kernel");
    EXPECT_EQ(runs[0].coords[1].first, "numWarps");

    // The base machine survives on un-swept fields.
    EXPECT_EQ(runs[3].config.numThreads, 4u);
}

TEST(SweepSpec, ExpansionWithNoAxesIsOneRun)
{
    SweepSpec s;
    s.name = "single";
    ASSERT_EQ(s.expand().size(), 1u);
}

TEST(SweepSpec, MultiFieldAxisPointsApplyTogether)
{
    SweepSpec s;
    s.axes.push_back(geometryAxis());
    std::vector<RunSpec> runs = s.expand();
    ASSERT_EQ(runs.size(), 5u);
    EXPECT_EQ(runs[0].id(), "4W-4T");
    EXPECT_EQ(runs[1].config.numWarps, 2u);
    EXPECT_EQ(runs[1].config.numThreads, 8u);
}

TEST(SweepSpec, DerivedCoresFieldAppliesPaperScalingRules)
{
    core::ArchConfig cfg;
    WorkloadSpec wl;
    ASSERT_TRUE(applyField(cfg, wl, "cores", "2"));
    EXPECT_EQ(cfg.numCores, 2u);
    EXPECT_FALSE(cfg.l2Enabled);
    ASSERT_TRUE(applyField(cfg, wl, "cores", "8"));
    EXPECT_TRUE(cfg.l2Enabled);
    EXPECT_EQ(cfg.coresPerCluster, 4u);
    EXPECT_EQ(cfg.mem.numChannels, 2u);
    ASSERT_TRUE(applyField(cfg, wl, "cores", "32"));
    EXPECT_EQ(cfg.mem.numChannels, 8u);
}

TEST(SweepSpec, FieldRegistryRejectsUnknownNamesAndBadValues)
{
    core::ArchConfig cfg;
    WorkloadSpec wl;
    EXPECT_FALSE(applyField(cfg, wl, "no_such_field", "1"));
    EXPECT_TRUE(applyField(cfg, wl, "dcachePorts", "2"));
    EXPECT_EQ(cfg.dcachePorts, 2u);
    EXPECT_THROW(applyField(cfg, wl, "dcachePorts", "banana"),
                 FatalError);
    EXPECT_THROW(applyField(cfg, wl, "schedPolicy", "fifo"), FatalError);

    // Every registered field name round-trips through applyField.
    // "program" is also skipped: its value is a file path that is read
    // eagerly (so content hashing can cover the program text), and "1"
    // is not a readable file. "check" only accepts its two grammar
    // forms, exercised below.
    for (const FieldInfo& f : sweepableFields()) {
        const std::string name = f.name;
        if (name == "schedPolicy" || name == "workload" ||
            name == "kernel" || name == "texFilter" ||
            name == "program" || name == "check")
            continue;
        EXPECT_TRUE(applyField(cfg, wl, name, "1")) << name;
    }

    // The check grammar: "selfcheck", "memcmp:ADDR:LEN:FNV", or error.
    EXPECT_TRUE(applyField(cfg, wl, "check", "selfcheck"));
    EXPECT_EQ(wl.check, "selfcheck");
    EXPECT_TRUE(
        applyField(cfg, wl, "check", "memcmp:0x10000000:100:deadbeef"));
    EXPECT_THROW(applyField(cfg, wl, "check", "1"), FatalError);
    EXPECT_THROW(applyField(cfg, wl, "check", "memcmp:zz:1:2"),
                 FatalError);
    EXPECT_THROW(applyField(cfg, wl, "check", "memcmp:1:2"), FatalError);
    wl.check.clear();
}

TEST(SweepSpec, ProgramFieldReadsTheFileEagerlyAndHashesItsText)
{
    core::ArchConfig cfg;
    WorkloadSpec wl;

    // Missing files are a fatal, actionable error at apply time, not at
    // run time deep inside a campaign.
    EXPECT_THROW(applyField(cfg, wl, "program", "no/such/file.s"),
                 FatalError);

    std::string dir = freshTempDir("program");
    std::filesystem::create_directories(dir);
    std::string path = dir + "/prog.s";
    {
        std::ofstream out(path);
        out << "main:\n    ret\n";
    }
    EXPECT_TRUE(applyField(cfg, wl, "program", path));
    EXPECT_EQ(wl.program, path);
    EXPECT_EQ(wl.programSource, "main:\n    ret\n");

    // The cache key covers the program *text*, so editing the .s file
    // invalidates cached results even though the path is unchanged.
    RunSpec a;
    a.workload = wl;
    {
        std::ofstream out(path);
        out << "main:\n    nop\n    ret\n";
    }
    WorkloadSpec wl2;
    ASSERT_TRUE(applyField(cfg, wl2, "program", path));
    RunSpec b;
    b.workload = wl2;
    EXPECT_NE(a.contentHash(), b.contentHash());

    // The canonical form records both the path and the text hash; runs
    // without a program keep the exact pre-program preimage (cache
    // back-compatibility).
    EXPECT_NE(a.canonical().find("program = " + path), std::string::npos);
    EXPECT_NE(a.canonical().find("program.fnv = "), std::string::npos);
    RunSpec plain;
    EXPECT_EQ(plain.canonical().find("program"), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(SweepSpec, ContentHashDifferentiatesConfigAndWorkload)
{
    SweepSpec s = tinySpec();
    std::vector<RunSpec> runs = s.expand();

    // Same spec expanded twice -> same hashes.
    std::vector<RunSpec> again = s.expand();
    for (size_t i = 0; i < runs.size(); ++i)
        EXPECT_EQ(runs[i].contentHash(), again[i].contentHash());

    // Every run in the matrix is distinct.
    for (size_t i = 0; i < runs.size(); ++i)
        for (size_t j = i + 1; j < runs.size(); ++j)
            EXPECT_NE(runs[i].contentHash(), runs[j].contentHash());

    // A config knob outside the axes changes the hash too.
    RunSpec tweaked = runs[0];
    tweaked.config.mshrEntries *= 2;
    EXPECT_NE(tweaked.contentHash(), runs[0].contentHash());
}

TEST(Campaign, RunsMatrixAndReportsMetrics)
{
    CampaignResult r = Campaign().run(tinySpec());
    ASSERT_EQ(r.records.size(), 4u);
    EXPECT_EQ(r.cacheHits, 0u);
    EXPECT_EQ(r.cacheMisses, 4u);
    for (const RunRecord& rec : r.records) {
        EXPECT_TRUE(rec.result.ok);
        EXPECT_FALSE(rec.fromCache);
        EXPECT_GT(rec.result.cycles, 0u);
        EXPECT_GT(rec.result.ipc, 0.0);
        // Flattened counters from the device hierarchy are present.
        EXPECT_GT(rec.stats.get("core.retired"), 0u);
        EXPECT_GT(rec.stats.get("dcache.core_reads"), 0u);
    }
    // Coordinate lookup used by the figure reports.
    EXPECT_EQ(r.at({"saxpy", "4"}).spec.config.numWarps, 4u);
    EXPECT_THROW(r.at({"saxpy", "16"}), FatalError);
}

TEST(Campaign, CacheHitsSkipSimulationAndPreserveResults)
{
    std::string dir = freshTempDir("cache");
    CampaignOptions opts;
    opts.cacheDir = dir;

    CampaignResult cold = Campaign(opts).run(tinySpec());
    EXPECT_EQ(cold.cacheMisses, 4u);
    EXPECT_EQ(cold.cacheHits, 0u);

    CampaignResult warm = Campaign(opts).run(tinySpec());
    EXPECT_EQ(warm.cacheHits, 4u);
    EXPECT_EQ(warm.cacheMisses, 0u);
    for (size_t i = 0; i < warm.records.size(); ++i) {
        EXPECT_TRUE(warm.records[i].fromCache);
        EXPECT_EQ(warm.records[i].result.cycles,
                  cold.records[i].result.cycles);
        EXPECT_EQ(warm.records[i].result.threadInstrs,
                  cold.records[i].result.threadInstrs);
        EXPECT_DOUBLE_EQ(warm.records[i].result.ipc,
                         cold.records[i].result.ipc);
        EXPECT_EQ(warm.records[i].stats.get("core.retired"),
                  cold.records[i].stats.get("core.retired"));
    }

    // A different machine misses: the cache is content-addressed.
    SweepSpec other = tinySpec();
    other.base.mshrEntries = 4;
    CampaignResult miss = Campaign(opts).run(other);
    EXPECT_EQ(miss.cacheHits, 0u);
    EXPECT_EQ(miss.cacheMisses, 4u);

    std::filesystem::remove_all(dir);
}

TEST(Campaign, CsvIsBitIdenticalAcrossJobCountsAndCacheStates)
{
    SweepSpec spec = tinySpec();

    CampaignOptions serial;
    serial.jobs = 1;
    std::ostringstream csv1;
    Campaign(serial).run(spec).writeCsv(csv1);

    CampaignOptions parallel;
    parallel.jobs = 2;
    std::ostringstream csv2;
    Campaign(parallel).run(spec).writeCsv(csv2);
    EXPECT_EQ(csv1.str(), csv2.str());

    // And a cache-restored campaign emits the same bytes again.
    std::string dir = freshTempDir("csv");
    CampaignOptions cached;
    cached.jobs = 2;
    cached.cacheDir = dir;
    std::ostringstream csv3, csv4;
    Campaign(cached).run(spec).writeCsv(csv3);
    Campaign(cached).run(spec).writeCsv(csv4);
    EXPECT_EQ(csv1.str(), csv3.str());
    EXPECT_EQ(csv1.str(), csv4.str());
    std::filesystem::remove_all(dir);

    // Shape: header + one row per run, coords in the leading columns.
    std::istringstream lines(csv1.str());
    std::string header, row0;
    std::getline(lines, header);
    std::getline(lines, row0);
    EXPECT_EQ(header.rfind("kernel,numWarps,id,hash,ok,status,cycles,"
                           "thread_instrs,ipc",
                           0),
              0u);
    EXPECT_EQ(row0.rfind("vecadd,2,vecadd/2,", 0), 0u);
}

TEST(Campaign, JsonEmissionIsWellFormedEnoughToPin)
{
    CampaignResult r = Campaign().run(tinySpec());
    std::ostringstream js;
    r.writeJson(js);
    const std::string s = js.str();
    EXPECT_NE(s.find("\"campaign\": \"tiny\""), std::string::npos);
    EXPECT_NE(s.find("\"axes\": [\"kernel\", \"numWarps\"]"),
              std::string::npos);
    EXPECT_NE(s.find("\"id\": \"saxpy/4\""), std::string::npos);
    EXPECT_NE(s.find("\"ok\": true"), std::string::npos);
    EXPECT_EQ(std::count(s.begin(), s.end(), '{'),
              std::count(s.begin(), s.end(), '}'));
}

TEST(Campaign, FailedRunIsRecordedAndTheMatrixCompletes)
{
    // A poisoned run (unknown kernel -> host error) becomes a
    // first-class result row; the rest of the matrix still executes.
    SweepSpec s;
    s.name = "bad";
    s.axes = {Axis::sweep("kernel", {"vecadd", "no_such_kernel"})};
    CampaignResult r = Campaign().run(s);
    ASSERT_EQ(r.records.size(), 2u);
    EXPECT_TRUE(r.records[0].result.ok);
    EXPECT_EQ(r.records[0].result.status, RunStatus::Ok);
    EXPECT_FALSE(r.records[1].result.ok);
    EXPECT_EQ(r.records[1].result.status, RunStatus::HostError);
    EXPECT_FALSE(r.records[1].result.error.empty());
    EXPECT_EQ(r.failures(), 1u);

    // The status lands in the CSV row and the JSON object.
    std::ostringstream csv, js;
    r.writeCsv(csv);
    r.writeJson(js);
    EXPECT_NE(csv.str().find(",0,host_error,"), std::string::npos);
    EXPECT_NE(js.str().find("\"status\": \"host_error\""),
              std::string::npos);
}

TEST(Campaign, FailFastRestoresTheFatalBehavior)
{
    SweepSpec s;
    s.name = "bad";
    s.axes = {Axis::sweep("kernel", {"vecadd", "no_such_kernel"})};
    CampaignOptions opts;
    opts.failFast = true;
    EXPECT_THROW(Campaign(opts).run(s), FatalError);
}

TEST(Campaign, FailedRunsAreNeverCached)
{
    std::string dir = freshTempDir("failcache");
    SweepSpec s;
    s.name = "bad";
    s.axes = {Axis::sweep("kernel", {"no_such_kernel"})};
    CampaignOptions opts;
    opts.cacheDir = dir;
    CampaignResult r1 = Campaign(opts).run(s);
    EXPECT_EQ(r1.failures(), 1u);
    EXPECT_EQ(r1.cacheMisses, 1u);
    // Second campaign over the same spec: the failure re-executes (no
    // hit), and the emitted bytes match the cold run exactly.
    CampaignResult r2 = Campaign(opts).run(s);
    EXPECT_EQ(r2.cacheHits, 0u);
    EXPECT_EQ(r2.cacheMisses, 1u);
    std::ostringstream c1, c2;
    r1.writeCsv(c1);
    r2.writeCsv(c2);
    EXPECT_EQ(c1.str(), c2.str());
    std::filesystem::remove_all(dir);
}

TEST(Presets, RegistryCoversEveryPaperExperiment)
{
    for (const char* name :
         {"fig14", "fig15", "fig18", "fig19", "fig20", "fig21", "table3",
          "table4", "table5", "ablation_mshr", "ablation_banks",
          "ablation_linesize", "ablation_ibuffer", "ablation_lsu",
          "ablation_sched", "ablation_fsqrt"}) {
        const Preset* p = findPreset(name);
        ASSERT_NE(p, nullptr) << name;
        EXPECT_TRUE(p->sweep || p->table) << name;
        if (p->sweep) {
            SweepSpec spec = p->sweep({});
            EXPECT_EQ(spec.name, name);
            EXPECT_GT(spec.runCount(), 1u) << name;
            // Expansion must succeed (all field names resolve).
            EXPECT_EQ(spec.expand().size(), spec.runCount()) << name;
        } else {
            ReportTable t = p->table();
            EXPECT_FALSE(t.rows.empty()) << name;
        }
    }
    EXPECT_EQ(findPreset("no_such_preset"), nullptr);

    // Parameterized presets accept their --arg keys and reject others.
    SweepSpec big = findPreset("fig20")->sweep({{"size", "128"}});
    EXPECT_EQ(big.baseWorkload.texSize, 128u);
    EXPECT_THROW(findPreset("fig20")->sweep({{"bogus", "1"}}),
                 FatalError);
    SweepSpec paper = findPreset("fig21")->sweep({{"paper", "1"}});
    EXPECT_EQ(paper.base.numCores, 16u);
    EXPECT_THROW(findPreset("fig18")->sweep({{"size", "1"}}), FatalError);
}

TEST(Presets, Fig18MatrixMatchesThePaperMachines)
{
    // The fig18 preset must reproduce the paper figure's machines:
    // baselineConfig(c) with the problem scaled x2 from 4 cores.
    std::vector<RunSpec> runs = fig18Spec().expand();
    ASSERT_EQ(runs.size(), 7u * 5u);
    const RunSpec& r16 = runs[4]; // sgemm x 16 cores
    EXPECT_EQ(r16.id(), "sgemm/16");
    EXPECT_EQ(r16.config.numCores, 16u);
    EXPECT_TRUE(r16.config.l2Enabled);
    EXPECT_EQ(r16.config.mem.numChannels, 2u);
    EXPECT_EQ(r16.workload.scale, 2u);
    const RunSpec& r1 = runs[0];
    EXPECT_EQ(r1.config.numCores, 1u);
    EXPECT_FALSE(r1.config.l2Enabled);
    EXPECT_EQ(r1.workload.scale, 1u);
}

TEST(Report, TableRendersAlignedTextAndCsv)
{
    ReportTable t;
    t.title = "T";
    t.columns = {"a", "b"};
    t.addRow({"x", "1,2"});
    t.notes.push_back("note");

    std::ostringstream text;
    t.print(text);
    EXPECT_NE(text.str().find("==== T ===="), std::string::npos);
    EXPECT_NE(text.str().find("note"), std::string::npos);

    std::ostringstream csv;
    t.writeCsv(csv);
    EXPECT_EQ(csv.str(), "a,b\nx,\"1,2\"\n");
}

/**
 * @file
 * Fault-injection engine tests (docs/ROBUSTNESS.md): plan generation
 * determinism, the injection hook's architectural effect, watchdog
 * timeout classification, campaigns that record failures as structured
 * rows and still complete the matrix, and the byte-identity of a
 * faulted campaign's CSV across job counts and cache states.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <sstream>
#include <string>

#include <unistd.h>

#include "common/log.h"
#include "common/outcome.h"
#include "core/processor.h"
#include "faults/fault.h"
#include "sweep/campaign.h"
#include "sweep/cli.h"
#include "sweep/presets.h"
#include "sweep/spec.h"

using namespace vortex;
using namespace vortex::sweep;

namespace {

/** Unique scratch directory under the system temp dir. */
std::string
freshTempDir(const char* tag)
{
    static int serial = 0;
    std::string dir =
        (std::filesystem::temp_directory_path() /
         (std::string("vortex_faults_test_") + tag + "_" +
          std::to_string(::getpid()) + "_" + std::to_string(serial++)))
            .string();
    std::filesystem::remove_all(dir);
    return dir;
}

/** A single-run spec over one harness-free `.s` guest, with @p faults
 *  applied. The program path resolves through VORTEX_PROGRAM_PATH
 *  (tests/CMakeLists.txt points it at the source tree). */
RunSpec
guestRun(const std::string& name, const faults::FaultSpec& faults)
{
    SweepSpec s;
    s.name = "faults-one";
    s.base = baselineConfig(1);
    applyField(s.base, s.baseWorkload, "kernel", name);
    applyField(s.base, s.baseWorkload, "program",
               "examples/kernels/" + name + ".s");
    applyField(s.base, s.baseWorkload, "check", "selfcheck");
    s.baseWorkload.faults = faults;
    return s.expand().at(0);
}

std::string
csvOf(const CampaignResult& r)
{
    std::ostringstream os;
    r.writeCsv(os);
    return os.str();
}

} // namespace

//
// Plan generation.
//

TEST(FaultPlan, GenerationIsDeterministicAndSeedSensitive)
{
    faults::FaultSpec spec;
    spec.seed = 42;
    spec.count = 16;
    core::ArchConfig cfg = baselineConfig(2);

    faults::FaultPlan a =
        faults::FaultPlan::generate(spec, cfg, 0x1000, 256);
    faults::FaultPlan b =
        faults::FaultPlan::generate(spec, cfg, 0x1000, 256);
    ASSERT_EQ(a.events.size(), 16u);
    ASSERT_EQ(b.events.size(), 16u);
    for (size_t i = 0; i < a.events.size(); ++i) {
        EXPECT_EQ(a.events[i].cycle, b.events[i].cycle);
        EXPECT_EQ(a.events[i].kind, b.events[i].kind);
        EXPECT_EQ(a.events[i].core, b.events[i].core);
        EXPECT_EQ(a.events[i].warp, b.events[i].warp);
        EXPECT_EQ(a.events[i].lane, b.events[i].lane);
        EXPECT_EQ(a.events[i].reg, b.events[i].reg);
        EXPECT_EQ(a.events[i].addr, b.events[i].addr);
        EXPECT_EQ(a.events[i].bit, b.events[i].bit);
    }

    // A different seed yields a different schedule.
    faults::FaultSpec other = spec;
    other.seed = 43;
    faults::FaultPlan c =
        faults::FaultPlan::generate(other, cfg, 0x1000, 256);
    bool differs = false;
    for (size_t i = 0; i < c.events.size() && !differs; ++i)
        differs = c.events[i].cycle != a.events[i].cycle ||
                  c.events[i].bit != a.events[i].bit ||
                  c.events[i].addr != a.events[i].addr;
    EXPECT_TRUE(differs);
}

TEST(FaultPlan, EventsRespectWindowAndTargetBounds)
{
    faults::FaultSpec spec;
    spec.seed = 7;
    spec.count = 64;
    spec.window = 100;
    core::ArchConfig cfg = baselineConfig(2);
    const Addr base = 0x80000000;
    const uint32_t words = 64;

    faults::FaultPlan plan =
        faults::FaultPlan::generate(spec, cfg, base, words);
    ASSERT_EQ(plan.events.size(), spec.count);
    uint64_t prev = 0;
    for (const faults::FaultEvent& e : plan.events) {
        EXPECT_GE(e.cycle, 1u);
        EXPECT_LE(e.cycle, spec.window);
        EXPECT_GE(e.cycle, prev); // sorted by trigger cycle
        prev = e.cycle;
        EXPECT_LT(e.core, cfg.numCores);
        EXPECT_LT(e.warp, cfg.numWarps);
        EXPECT_LT(e.lane, cfg.numThreads);
        EXPECT_GE(e.reg, 1u); // x0 stays architecturally zero
        EXPECT_LE(e.reg, 31u);
        EXPECT_LT(e.bit, 32u);
        EXPECT_GE(e.addr, base);
        EXPECT_LT(e.addr, base + 4u * words);
        EXPECT_EQ(e.addr % 4, 0u); // word-aligned
    }
}

TEST(FaultSpec, AnyAndCanonicalCoverTheFaultFields)
{
    faults::FaultSpec off;
    EXPECT_FALSE(off.any());
    faults::FaultSpec on;
    on.watchdog = 1;
    EXPECT_TRUE(on.any());

    // Faulted runs get their own cache identity; clean runs keep the
    // pre-faults canonical text (no "faults." lines at all).
    RunSpec clean = guestRun("bitonic", {});
    faults::FaultSpec f;
    f.seed = 2;
    f.count = 64;
    f.window = 2000;
    RunSpec faulted = guestRun("bitonic", f);
    EXPECT_EQ(clean.canonical().find("faults."), std::string::npos);
    EXPECT_NE(faulted.canonical().find("faults.seed = 2"),
              std::string::npos);
    EXPECT_NE(clean.contentHash(), faulted.contentHash());
}

//
// The injection hook.
//

TEST(FaultInjector, OnTickFlipsExactlyThePlannedBits)
{
    core::ArchConfig cfg = baselineConfig(1);
    core::Processor proc(cfg);

    const Addr addr = 0x2000;
    const uint32_t word = 0x0f0f0f0f;
    proc.ram().write32(addr, word);

    faults::FaultPlan plan;
    faults::FaultEvent regHit;
    regHit.cycle = 10;
    regHit.kind = faults::FaultEvent::Kind::RegisterBit;
    regHit.warp = 1;
    regHit.lane = 2;
    regHit.reg = 5;
    regHit.bit = 31;
    faults::FaultEvent memHit;
    memHit.cycle = 20;
    memHit.kind = faults::FaultEvent::Kind::MemoryWord;
    memHit.addr = addr;
    memHit.bit = 0;
    plan.events = {regHit, memHit};

    faults::FaultInjector injector(plan);
    const uint32_t before = proc.core(0).warp(1).iregs[2][5];

    injector.onTick(proc, 9); // nothing due yet
    EXPECT_EQ(injector.applied(), 0u);
    injector.onTick(proc, 10); // the register event fires
    EXPECT_EQ(injector.applied(), 1u);
    EXPECT_EQ(proc.core(0).warp(1).iregs[2][5], before ^ 0x80000000u);
    EXPECT_EQ(proc.ram().read32(addr), word);
    injector.onTick(proc, 25); // a late tick still fires the backlog
    EXPECT_EQ(injector.applied(), 2u);
    EXPECT_EQ(proc.ram().read32(addr), word ^ 1u);
}

//
// Structured run outcomes.
//

TEST(Faults, InjectedRunFailsDeterministicallyWithAStructuredStatus)
{
    // The clean guest self-checks green...
    RunRecord clean = executeRun(guestRun("bitonic", {}));
    ASSERT_TRUE(clean.result.ok) << clean.result.error;
    EXPECT_EQ(clean.result.status, RunStatus::Ok);

    // ...and an aggressive injection (64 flips in the first 2000
    // cycles) is caught by the guest or the machine — a structured
    // failure row, not an exception and not a silent pass.
    faults::FaultSpec f;
    f.seed = 2;
    f.count = 64;
    f.window = 2000;
    f.watchdog = 200000;
    RunRecord hit = executeRun(guestRun("bitonic", f));
    EXPECT_FALSE(hit.result.ok);
    EXPECT_NE(hit.result.status, RunStatus::Ok);
    EXPECT_NE(hit.result.status, RunStatus::HostError);
    EXPECT_FALSE(hit.result.error.empty());

    // Same seed, same outcome, same cycle count: the injection is part
    // of the deterministic simulation, not a perturbation of it.
    RunRecord again = executeRun(guestRun("bitonic", f));
    EXPECT_EQ(again.result.status, hit.result.status);
    EXPECT_EQ(again.result.cycles, hit.result.cycles);
    EXPECT_EQ(again.result.error, hit.result.error);
}

TEST(Faults, HangingGuestTimesOut)
{
    faults::FaultSpec f;
    f.watchdog = 50000; // no injection — just the cycle watchdog

    RunRecord hung = executeRun(guestRun("hang", f));
    EXPECT_FALSE(hung.result.ok);
    EXPECT_EQ(hung.result.status, RunStatus::Timeout);
    EXPECT_EQ(hung.result.cycles, f.watchdog);
    EXPECT_NE(hung.result.error.find("did not complete"),
              std::string::npos);
}

TEST(Faults, CampaignWithAHangingGuestCompletesTheMatrix)
{
    SweepSpec s;
    s.name = "faults-hang";
    s.base = baselineConfig(1);
    s.baseWorkload.faults.watchdog = 20000;
    Axis w;
    w.name = "kernel";
    for (const char* name : {"reduce_tree", "hang"})
        w.points.push_back(AxisPoint{
            name,
            {{"kernel", name},
             {"program", std::string("examples/kernels/") + name + ".s"},
             {"check", "selfcheck"}}});
    s.axes = {w};

    CampaignResult r = Campaign(CampaignOptions{}).run(s);
    ASSERT_EQ(r.records.size(), 2u);
    EXPECT_TRUE(r.records[0].result.ok);
    EXPECT_EQ(r.records[1].result.status, RunStatus::Timeout);
    EXPECT_EQ(r.failures(), 1u);
    EXPECT_NE(csvOf(r).find(",0,timeout,"), std::string::npos);
}

//
// Campaign-level determinism of the shipped smoke preset.
//

TEST(Faults, SmokeCampaignIsByteIdenticalAcrossJobsAndCache)
{
    SweepSpec spec = faultSmokeSpec();

    CampaignOptions serial1;
    serial1.jobs = 1;
    CampaignResult baseline = Campaign(serial1).run(spec);
    EXPECT_GT(baseline.failures(), 0u); // the hang rows at minimum
    EXPECT_LT(baseline.failures(), baseline.records.size());
    const std::string bytes = csvOf(baseline);

    CampaignOptions par4;
    par4.jobs = 4;
    EXPECT_EQ(csvOf(Campaign(par4).run(spec)), bytes);

    // Cold then warm cache: failed runs are never cached (they re-run),
    // ok runs all hit, and the bytes still match.
    std::string dir = freshTempDir("smoke");
    CampaignOptions cached;
    cached.jobs = 4;
    cached.cacheDir = dir;
    CampaignResult cold = Campaign(cached).run(spec);
    EXPECT_EQ(cold.cacheHits, 0u);
    EXPECT_EQ(csvOf(cold), bytes);
    CampaignResult warm = Campaign(cached).run(spec);
    EXPECT_EQ(warm.cacheHits,
              static_cast<uint32_t>(warm.records.size()) -
                  warm.failures());
    EXPECT_EQ(warm.cacheMisses, warm.failures());
    EXPECT_EQ(csvOf(warm), bytes);
    std::filesystem::remove_all(dir);
}

//
// The CLI surface.
//

TEST(Cli, CampaignWithFailuresExitsThreeAndFailFastExitsOne)
{
    // Two hanging runs: the matrix completes and the process reports
    // "completed with failures" (exit 3, distinct from fatal's 1).
    std::vector<std::string> run = {
        "run",     "--axis", "faults.seed=1,2",
        "--set",   "kernel=hang",
        "--set",   "program=examples/kernels/hang.s",
        "--set",   "check=selfcheck",
        "--faults", "watchdog=20000",
        "--name",  "cli-hang", "--no-csv", "--quiet"};
    EXPECT_EQ(cliMain(run), 3);

    std::vector<std::string> fast = run;
    fast.push_back("--fail-fast");
    EXPECT_EQ(cliMain(fast), 1);

    // A malformed --faults argument is a usage-level fatal.
    EXPECT_EQ(cliMain({"run", "--preset", "fault_smoke", "--faults",
                       "bogus=1", "--no-csv", "--quiet"}),
              1);
}

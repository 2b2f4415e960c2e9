/**
 * @file
 * Golden simulated-timing gate for host-performance work: the exact
 * cycle counts, thread-instruction counts, and headline device counters
 * of all six `perf_smoke` runs, pinned to the values recorded in the
 * committed BENCH_PR.json (the CI bench-trajectory baseline).
 *
 * Purpose: any host-perf refactor (decode caches, pooled uops, slot
 * pools, counter handles, ...) must leave simulated timing bit-identical
 * — these numbers may only change when the *timing model* deliberately
 * changes, and such a PR must update BENCH_PR.json and this table
 * together, saying so.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "runtime/device.h"
#include "sweep/presets.h"
#include "sweep/spec.h"

using namespace vortex;

namespace {

/** One pinned run: matrix-order id + the BENCH_PR.json headline row. */
struct Golden
{
    const char* id; ///< RunSpec::id(), e.g. "vecadd/1"
    uint64_t cycles;
    uint64_t threadInstrs;
    uint64_t coreRetired;
    uint64_t icacheReads;
    uint64_t dcacheReads;
    uint64_t dcacheReadHits;
    uint64_t dcacheReadMisses;
    uint64_t memBytes;
};

/** The committed BENCH_PR.json baseline (trajectory point 1, PR 3). */
const Golden kGolden[] = {
    {"vecadd/1", 29368, 46140, 11582, 11582, 10338, 9152, 1186, 155840},
    {"vecadd/2", 16416, 47224, 11900, 11900, 10436, 8675, 1761, 164544},
    {"saxpy/1", 29799, 44092, 11070, 11070, 10338, 9125, 1213, 155776},
    {"saxpy/2", 16542, 45176, 11388, 11388, 10436, 9109, 1327, 163712},
    {"sgemm/1", 50766, 113981, 28543, 28543, 30050, 29560, 490, 49536},
    {"sgemm/2", 29821, 115066, 28862, 28862, 30148, 29200, 948, 62144},
};

} // namespace

/** Execute every perf_smoke run and compare cycles / instructions /
 *  headline counters against the pinned table. */
TEST(Golden, PerfSmokeMatchesBenchBaseline)
{
    sweep::SweepSpec spec = sweep::perfSmokeSpec();
    std::vector<sweep::RunSpec> runs = spec.expand();
    ASSERT_EQ(runs.size(), std::size(kGolden));

    for (size_t i = 0; i < runs.size(); ++i) {
        sweep::RunSpec& run = runs[i];
        const Golden& want = kGolden[i];
        ASSERT_EQ(run.id(), want.id) << "matrix order drifted";

        runtime::Device dev(run.config);
        runtime::RunResult r = run.workload.run(dev);
        ASSERT_TRUE(r.ok) << run.id() << ": " << r.error;

        StatGroup flat;
        dev.processor().collectStats(flat);

        EXPECT_EQ(r.cycles, want.cycles) << want.id;
        EXPECT_EQ(r.threadInstrs, want.threadInstrs) << want.id;
        EXPECT_EQ(flat.get("core.thread_instrs"), want.threadInstrs)
            << want.id;
        EXPECT_EQ(flat.get("core.retired"), want.coreRetired) << want.id;
        EXPECT_EQ(flat.get("icache.core_reads"), want.icacheReads)
            << want.id;
        EXPECT_EQ(flat.get("dcache.core_reads"), want.dcacheReads)
            << want.id;
        EXPECT_EQ(flat.get("dcache.read_hits"), want.dcacheReadHits)
            << want.id;
        EXPECT_EQ(flat.get("dcache.read_misses"), want.dcacheReadMisses)
            << want.id;
        EXPECT_EQ(flat.get("mem.bytes"), want.memBytes) << want.id;
    }
}

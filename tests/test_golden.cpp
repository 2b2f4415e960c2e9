/**
 * @file
 * Golden simulated-timing gate: the 35 runs of the fig18 core-scaling
 * campaign must reproduce the `campaign/<id>` rows of
 * perfbench/expected.txt exactly — cycles, thread instructions, and the
 * FNV-1a digest of every device counter. expected.txt is the one record
 * of golden simulated numbers; perfbench gates the same rows (and its
 * other workloads') on every benchmark run.
 *
 * Purpose: host-performance work must leave simulated timing
 * bit-identical. The numbers may only change when the timing model
 * deliberately changes; such a change re-records expected.txt with
 * `python3 perfbench/run.py --record-expected` and says so.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/stats.h"
#include "sweep/campaign.h"
#include "sweep/presets.h"
#include "sweep/spec.h"
#include "sweep/specfile.h"

using namespace vortex;

namespace {

/** One recorded row: "id cycles thread_instrs counters series". */
struct Row
{
    uint64_t cycles = 0;
    uint64_t threadInstrs = 0;
    std::string counters;
};

/** The rows of perfbench/expected.txt by id; fails the test when the
 *  file cannot be read. */
std::map<std::string, Row>
readExpected(const std::string& path)
{
    std::map<std::string, Row> rows;
    std::ifstream in(path);
    EXPECT_TRUE(in) << "cannot read " << path;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string id, series;
        Row row;
        if (ls >> id >> row.cycles >> row.threadInstrs >> row.counters >>
            series)
            rows[id] = row;
    }
    return rows;
}

/** perfbench's counter digest: FNV-1a 64 over "key=value\n" for every
 *  counter, as 16 lowercase hex digits. */
std::string
countersDigest(const StatGroup& stats)
{
    uint64_t h = 0xCBF29CE484222325ull;
    for (const auto& [k, v] : stats.all())
        for (unsigned char c : k + "=" + std::to_string(v) + "\n") {
            h ^= c;
            h *= 0x100000001B3ull;
        }
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(h));
    return hex;
}

} // namespace

/** Run the perfbench fig18 spec and compare every record against its
 *  expected.txt row. */
TEST(Golden, Fig18MatchesPerfbenchExpected)
{
    const std::map<std::string, Row> expected =
        readExpected(VORTEX_PERFBENCH_DIR "/expected.txt");
    const sweep::SweepSpec spec =
        sweep::parseSpecFile(VORTEX_PERFBENCH_DIR "/specs/fig18.toml");
    sweep::CampaignOptions opts;
    opts.jobs = 0; // host hardware threads
    const sweep::CampaignResult result = sweep::Campaign(opts).run(spec);
    ASSERT_EQ(result.records.size(), 35u);

    std::set<std::string> hashes;
    for (const sweep::RunRecord& rec : result.records) {
        const std::string id = "campaign/" + rec.spec.id();
        hashes.insert(rec.spec.contentHash());
        ASSERT_TRUE(rec.result.ok) << id << ": " << rec.result.error;
        auto it = expected.find(id);
        if (it == expected.end()) {
            ADD_FAILURE() << id << " has no row in expected.txt";
            continue;
        }
        EXPECT_EQ(rec.result.cycles, it->second.cycles) << id;
        EXPECT_EQ(rec.result.threadInstrs, it->second.threadInstrs) << id;
        EXPECT_EQ(countersDigest(rec.stats), it->second.counters) << id;
    }

    // The perf_smoke preset's runs are among them, so they stay pinned.
    const std::vector<sweep::RunSpec> smoke =
        sweep::findPreset("perf_smoke")->spec().expand();
    ASSERT_EQ(smoke.size(), 6u);
    for (const sweep::RunSpec& run : smoke)
        EXPECT_TRUE(hashes.count(run.contentHash()))
            << "perf_smoke run " << run.id() << " is not in fig18";
}

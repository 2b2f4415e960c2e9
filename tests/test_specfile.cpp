/**
 * @file
 * Tests for the sweep-spec file subsystem (src/sweep/specfile.h) and the
 * campaign's LPT scheduling:
 *
 *  - round trip: every built-in sweep preset serializes to TOML and
 *    parses back to a spec whose expanded run matrix is content-hash
 *    identical — the property that lets checked-in spec files stand in
 *    for registry presets;
 *  - the shipped examples/specs/ files ARE those dumps, byte for byte,
 *    and parse back hash-identical (the same drift gate CI's `specs`
 *    job enforces);
 *  - malformed input fails with file:line:col diagnostics;
 *  - JSON specs parse to the same matrix as their TOML equivalent;
 *  - LPT claim ordering never changes emitted CSV bytes, for any job
 *    count and any cache warmth, and the cost estimate / cached
 *    host-seconds probes behave.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/log.h"
#include "sweep/cache.h"
#include "sweep/campaign.h"
#include "sweep/presets.h"
#include "sweep/specfile.h"

using namespace vortex;
using namespace vortex::sweep;

namespace {

/** Names of every registry preset that is a sweep (not an area table). */
std::vector<std::string>
sweepPresetNames()
{
    std::vector<std::string> names;
    for (const Preset& p : presets())
        if (p.sweep)
            names.push_back(p.name);
    return names;
}

/** Content hashes of the expanded matrix, in matrix order. */
std::vector<std::string>
matrixHashes(const SweepSpec& spec)
{
    std::vector<std::string> hashes;
    for (const RunSpec& r : spec.expand())
        hashes.push_back(r.contentHash());
    return hashes;
}

/** A fast two-axis campaign used by the scheduling tests. */
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

std::string
freshTempDir(const char* tag)
{
    static int serial = 0;
    std::string dir =
        (std::filesystem::temp_directory_path() /
         (std::string("vortex_specfile_test_") + tag + "_" +
          std::to_string(::getpid()) + "_" + std::to_string(serial++)))
            .string();
    std::filesystem::remove_all(dir);
    return dir;
}

/** EXPECT that parsing @p text throws a SpecParseError at the given
 *  position whose message contains @p fragment. */
void
expectParseError(const std::string& text, size_t line, size_t col,
                 const std::string& fragment)
{
    try {
        parseSpecText(text, "t.toml");
        FAIL() << "expected SpecParseError containing '" << fragment
               << "'";
    } catch (const SpecParseError& e) {
        EXPECT_EQ(e.line(), line) << e.what();
        EXPECT_EQ(e.column(), col) << e.what();
        EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
            << e.what();
        // The position is part of the rendered diagnostic too.
        std::string pos = "t.toml:" + std::to_string(line) + ":" +
                          std::to_string(col) + ":";
        EXPECT_NE(std::string(e.what()).find(pos), std::string::npos)
            << e.what();
    }
}

} // namespace

TEST(SpecFile, RoundTripsEveryPresetHashIdentical)
{
    for (const std::string& name : sweepPresetNames()) {
        SweepSpec original = findPreset(name)->sweep({});
        SweepSpec reparsed =
            parseSpecText(specToToml(original), name + ".toml");

        EXPECT_EQ(reparsed.name, original.name);
        EXPECT_EQ(reparsed.description, original.description);
        ASSERT_EQ(reparsed.runCount(), original.runCount()) << name;
        EXPECT_EQ(matrixHashes(reparsed), matrixHashes(original)) << name;

        // Ids (axis labels) survive too — reports index by them.
        std::vector<RunSpec> a = original.expand(), b = reparsed.expand();
        for (size_t i = 0; i < a.size(); ++i)
            EXPECT_EQ(a[i].id(), b[i].id()) << name;
    }
}

TEST(SpecFile, SerializationIsAFixpoint)
{
    for (const std::string& name : sweepPresetNames()) {
        std::string once = specToToml(findPreset(name)->sweep({}));
        std::string twice =
            specToToml(parseSpecText(once, name + ".toml"));
        EXPECT_EQ(once, twice) << name;
    }
}

TEST(SpecFile, ShippedSpecsMatchTheRegistryByteForByte)
{
#ifndef VORTEX_SPECS_DIR
    GTEST_SKIP() << "VORTEX_SPECS_DIR not configured";
#else
    for (const std::string& name : sweepPresetNames()) {
        std::string path =
            std::string(VORTEX_SPECS_DIR) + "/" + name + ".toml";
        std::ifstream in(path, std::ios::binary);
        ASSERT_TRUE(in) << "missing shipped spec " << path
                        << " (regenerate: vortex_sweep --preset " << name
                        << " --dump-spec " << path << ")";
        std::ostringstream buf;
        buf << in.rdbuf();

        SweepSpec preset = findPreset(name)->sweep({});
        // The shipped file is exactly the canonical dump...
        EXPECT_EQ(buf.str(), specToToml(preset))
            << path << " drifted from the registry preset; regenerate "
            << "it with --dump-spec";
        // ...and parses back to the same campaign.
        SweepSpec parsed = parseSpecFile(path);
        EXPECT_EQ(parsed.name, name);
        EXPECT_EQ(matrixHashes(parsed), matrixHashes(preset)) << path;
    }
#endif
}

TEST(SpecFile, JsonAndTomlSpecsExpandIdentically)
{
    const char* toml = "name = \"mini\"\n"
                       "[base]\n"
                       "numWarps = 8\n"
                       "[workload]\n"
                       "kernel = \"saxpy\"\n"
                       "[[axes]]\n"
                       "name = \"cores\"\n"
                       "[[axes.points]]\n"
                       "label = \"1\"\n"
                       "set.cores = 1\n"
                       "[[axes.points]]\n"
                       "label = \"2\"\n"
                       "set.cores = 2\n";
    const char* json = R"({
      "name": "mini",
      "base": {"numWarps": 8},
      "workload": {"kernel": "saxpy"},
      "axes": [
        {"name": "cores", "points": [
          {"label": "1", "set": {"cores": 1}},
          {"label": "2", "set": {"cores": 2}}
        ]}
      ]
    })";
    SweepSpec t = parseSpecText(toml, "m.toml");
    SweepSpec j = parseSpecText(json, "m.json");
    EXPECT_EQ(t.name, "mini");
    EXPECT_EQ(j.name, "mini");
    ASSERT_EQ(t.runCount(), 2u);
    EXPECT_EQ(matrixHashes(t), matrixHashes(j));
    EXPECT_EQ(t.expand()[1].config.numCores, 2u);
    EXPECT_EQ(t.expand()[0].config.numWarps, 8u);
    EXPECT_EQ(t.expand()[0].workload.kernel, "saxpy");
}

TEST(SpecFile, MalformedInputReportsLineAndColumn)
{
    // Bad value for a known field: position of the value.
    expectParseError("name = \"x\"\n[base]\nnumWarps = \"banana\"\n", 3,
                     12, "cannot parse 'banana'");
    // Unknown field name: position of the value node it was given.
    expectParseError("[base]\nnoSuchField = 3\n", 2, 15,
                     "unknown sweep field 'noSuchField'");
    // A removed field (the old host-thread tick switch) is just an
    // unknown one: no compatibility shim. The name is split so a source
    // search for it finds no live use.
    expectParseError("[base]\nnumWarps = 4\nparallel" "Tick = false\n", 3,
                     16, "unknown sweep field 'parallel" "Tick'");
    // Unknown top-level key: position of the key.
    expectParseError("bogus = 1\n", 1, 1, "unknown top-level key");
    // Unterminated string.
    expectParseError("name = \"oops\n", 1, 8, "unterminated string");
    // Floats are rejected with a hint.
    expectParseError("[base]\nnumWarps = 4.5\n", 2, 12,
                     "floating-point");
    // Duplicate keys.
    expectParseError("name = \"a\"\nname = \"b\"\n", 2, 1, "set twice");
    // A point without a label (position: the `points` component of the
    // [[axes.points]] header that opened the point).
    expectParseError("[[axes]]\nname = \"kernel\"\n[[axes.points]]\n"
                     "set.kernel = \"saxpy\"\n",
                     3, 8, "needs a label");
    // An axis with no points at all.
    expectParseError("[[axes]]\nname = \"kernel\"\n", 1, 3, "no points");
    // Unterminated table header.
    expectParseError("[base\nnumWarps = 2\n", 1, 1,
                     "unterminated table header");
    // JSON: trailing garbage and duplicate keys carry positions too.
    expectParseError("{\"name\": \"x\"} xxx", 1, 15, "trailing content");
    expectParseError("{\"name\": \"x\", \"name\": \"y\"}", 1, 15,
                     "set twice");
    // JSON: null rejected with schema guidance.
    expectParseError("{\"name\": null}", 1, 10, "null is not used");
}

TEST(SpecFile, CrlfLineEndingsParseLikeLf)
{
    // A spec checked out with Windows line endings (git autocrlf) must
    // parse identically to the LF original.
    std::string lf = specToToml(findPreset("fig19")->sweep({}));
    std::string crlf;
    for (char c : lf) {
        if (c == '\n')
            crlf += '\r';
        crlf += c;
    }
    SweepSpec a = parseSpecText(lf, "lf.toml");
    SweepSpec b = parseSpecText(crlf, "crlf.toml");
    EXPECT_EQ(matrixHashes(a), matrixHashes(b));
}

TEST(SpecFile, StrayTokensInKeysAndHeadersAreErrorsNotDropped)
{
    // 'name extra = ...' must not silently parse as 'name = ...'.
    expectParseError("name extra = \"x\"\n", 1, 6,
                     "unexpected text after key");
    // Junk inside a table header must not silently become [base].
    expectParseError("[base junk]\nnumWarps = 2\n", 1, 7,
                     "unexpected text after key");
}

TEST(SpecFile, DumpCoversEveryRegistryField)
{
    // Guard against the serializer drifting behind the field registry:
    // every sweepable field must appear in the dump of a rodinia or a
    // texture spec (each workload family emits its own block), except
    // the derived "cores" whose concrete expansion is emitted instead.
    SweepSpec rodinia;
    SweepSpec texture;
    texture.baseWorkload.kind = WorkloadSpec::Kind::Texture;
    SweepSpec withProgram;
    // Set the fields directly (applyField would read the file):
    // "program" and "check" are only serialized when present, like the
    // texture block.
    withProgram.baseWorkload.program = "examples/kernels/vecadd.s";
    withProgram.baseWorkload.check = "selfcheck";
    std::string dumps = specToToml(rodinia) + specToToml(texture) +
                        specToToml(withProgram);
    for (const FieldInfo& f : sweepableFields()) {
        if (std::string(f.name) == "cores")
            continue;
        // "faults.*" fields serialize as bare keys inside a [faults]
        // section (only when set) — covered by FaultsSectionRoundTrips.
        if (std::string(f.name).rfind("faults.", 0) == 0)
            continue;
        EXPECT_NE(dumps.find("\n" + std::string(f.name) + " = "),
                  std::string::npos)
            << "registry field '" << f.name
            << "' is missing from writeSpecToml output — add it to "
               "configAssignments/workloadAssignments in specfile.cpp";
    }
}

TEST(SpecFile, FaultsSectionRoundTrips)
{
    // A [faults] section populates the workload FaultSpec, enters the
    // canonical serialization (distinct content hash), and survives a
    // dump/parse round trip byte-identically.
    SweepSpec spec = parseSpecText("name = \"f\"\n"
                                   "[faults]\n"
                                   "seed = 7\n"
                                   "count = 3\n"
                                   "window = 5000\n"
                                   "watchdog = 200000\n",
                                   "f.toml");
    EXPECT_EQ(spec.baseWorkload.faults.seed, 7u);
    EXPECT_EQ(spec.baseWorkload.faults.count, 3u);
    EXPECT_EQ(spec.baseWorkload.faults.window, 5000u);
    EXPECT_EQ(spec.baseWorkload.faults.watchdog, 200000u);

    SweepSpec clean = parseSpecText("name = \"f\"\n", "f.toml");
    EXPECT_NE(spec.expand()[0].contentHash(),
              clean.expand()[0].contentHash());

    std::string dump = specToToml(spec);
    EXPECT_NE(dump.find("[faults]"), std::string::npos);
    SweepSpec reparsed = parseSpecText(dump, "f2.toml");
    EXPECT_EQ(specToToml(reparsed), dump);
    EXPECT_EQ(reparsed.expand()[0].contentHash(),
              spec.expand()[0].contentHash());

    // Unknown keys inside [faults] are positioned errors.
    expectParseError("name = \"f\"\n[faults]\nbogus = 1\n", 3, 1,
                     "unknown faults key");
}

TEST(SpecFile, SchemaIdIsValidatedWhenPresent)
{
    EXPECT_NO_THROW(
        parseSpecText("spec = \"vortex-sweep/v1\"\nname = \"a\"\n"));
    expectParseError("spec = \"vortex-sweep/v9\"\n", 1, 8,
                     "unsupported schema");
}

TEST(SpecFile, SampleIntervalAndOverridesSurviveTheFile)
{
    const char* toml = "name = \"sampled\"\n"
                       "[base]\n"
                       "sampleInterval = 5000\n"
                       "dcachePorts = 2\n"
                       "[workload]\n"
                       "workload = \"texture\"\n"
                       "texFilter = \"trilinear\"\n"
                       "texHw = false\n"
                       "texSize = 32\n";
    SweepSpec s = parseSpecText(toml, "s.toml");
    EXPECT_EQ(s.base.sampleInterval, 5000u);
    EXPECT_EQ(s.base.dcachePorts, 2u);
    EXPECT_EQ(s.baseWorkload.kind, WorkloadSpec::Kind::Texture);
    EXPECT_EQ(s.baseWorkload.texFilter, runtime::TexFilterMode::Trilinear);
    EXPECT_FALSE(s.baseWorkload.texHw);
    EXPECT_EQ(s.baseWorkload.texSize, 32u);
    // And they round-trip through the serializer.
    SweepSpec again = parseSpecText(specToToml(s), "s2.toml");
    EXPECT_EQ(matrixHashes(again), matrixHashes(s));
}

TEST(SpecFile, CheckFieldRoundTripsAndDifferentiatesTheHash)
{
    const char* toml = "name = \"zoo1\"\n"
                       "[workload]\n"
                       "kernel = \"bitonic\"\n"
                       "program = \"examples/kernels/bitonic.s\"\n"
                       "check = \"selfcheck\"\n";
    SweepSpec s = parseSpecText(toml, "z.toml");
    EXPECT_EQ(s.baseWorkload.check, "selfcheck");

    // Serializes, reparses, and is a fixpoint.
    std::string once = specToToml(s);
    EXPECT_NE(once.find("check = \"selfcheck\""), std::string::npos);
    SweepSpec again = parseSpecText(once, "z2.toml");
    EXPECT_EQ(again.baseWorkload.check, "selfcheck");
    EXPECT_EQ(once, specToToml(again));
    EXPECT_EQ(matrixHashes(again), matrixHashes(s));

    // The check is part of the run's identity: flipping it must change
    // the content hash — a memcmp'd run never aliases a selfcheck'd
    // one, and neither aliases an unchecked run.
    ASSERT_EQ(s.runCount(), 1u);
    RunSpec checked = s.expand()[0];
    RunSpec memcmpd = checked;
    memcmpd.workload.check = "memcmp:0x10000000:100:deadbeef";
    RunSpec unchecked = checked;
    unchecked.workload.check.clear();
    EXPECT_NE(checked.contentHash(), memcmpd.contentHash());
    EXPECT_NE(checked.contentHash(), unchecked.contentHash());
    EXPECT_NE(checked.canonical().find("check = selfcheck"),
              std::string::npos);
}

TEST(SpecFile, MalformedCheckValuesReportLineAndColumn)
{
    // Bad value of a known field: position of the value.
    expectParseError("[workload]\ncheck = \"bogus\"\n", 2, 9,
                     "unknown check 'bogus'");
    expectParseError("[workload]\ncheck = \"memcmp:zz:4:0\"\n", 2, 9,
                     "cannot parse 'zz' as a hex number");
    expectParseError("[workload]\ncheck = \"memcmp:0:4\"\n", 2, 9,
                     "not of the form memcmp:ADDR:LEN:FNV");
}

TEST(Lpt, EstimateRanksObviouslyLongerRunsHigher)
{
    SweepSpec s;
    s.base = baselineConfig(1);
    RunSpec small = s.expand()[0]; // vecadd x1 on the 1-core baseline

    RunSpec bigKernel = small;
    bigKernel.workload.kernel = "sgemm";
    bigKernel.workload.scale = 2;
    EXPECT_GT(estimateRunCost(bigKernel), estimateRunCost(small));

    RunSpec bigMachine = small;
    bigMachine.config.numCores = 16;
    EXPECT_GT(estimateRunCost(bigMachine), estimateRunCost(small));

    // Deterministic: same spec, same estimate.
    EXPECT_DOUBLE_EQ(estimateRunCost(small), estimateRunCost(small));
}

TEST(Lpt, CsvBytesAreIdenticalAcrossJobsAndCacheWarmthUnderLpt)
{
    SweepSpec spec = tinySpec();

    auto csvOf = [&](const CampaignOptions& o) {
        std::ostringstream os;
        Campaign(o).run(spec).writeCsv(os);
        return os.str();
    };

    CampaignOptions lpt1;
    lpt1.jobs = 1;
    lpt1.lpt = true;
    CampaignOptions lpt4 = lpt1;
    lpt4.jobs = 4;
    CampaignOptions matrix4 = lpt4;
    matrix4.lpt = false;

    std::string base = csvOf(lpt1);
    EXPECT_EQ(base, csvOf(lpt4));
    EXPECT_EQ(base, csvOf(matrix4));

    // Half-warm cache: run a sub-matrix first, then the full campaign
    // with LPT at --jobs 4. Hits are claimed last, misses by estimate —
    // bytes still identical.
    std::string dir = freshTempDir("lpt");
    SweepSpec half = tinySpec();
    half.axes[0] = Axis::sweep("kernel", {"vecadd"});
    CampaignOptions warm;
    warm.jobs = 2;
    warm.cacheDir = dir;
    Campaign(warm).run(half);

    CampaignOptions cached4 = lpt4;
    cached4.cacheDir = dir;
    CampaignResult r = Campaign(cached4).run(spec);
    EXPECT_EQ(r.cacheHits, 2u);
    EXPECT_EQ(r.cacheMisses, 2u);
    std::ostringstream os;
    r.writeCsv(os);
    EXPECT_EQ(base, os.str());
    std::filesystem::remove_all(dir);
}

TEST(Lpt, CachedHostSecondsRoundTripsThroughTheCache)
{
    std::string dir = freshTempDir("hs");
    CampaignOptions opts;
    opts.cacheDir = dir;
    SweepSpec spec = tinySpec();
    CampaignResult cold = Campaign(opts).run(spec);

    for (const RunRecord& rec : cold.records) {
        double s = CacheStore(dir).recordedHostSeconds(rec.spec.contentHash());
        EXPECT_GE(s, 0.0);
        // What the cache replays is what the run cost this host.
        EXPECT_DOUBLE_EQ(s, rec.hostSeconds);
    }
    EXPECT_LT(CacheStore(dir).recordedHostSeconds("0123456789abcdef"), 0.0);
    EXPECT_LT(CacheStore(dir + "/nope").recordedHostSeconds("0123456789abcdef"),
              0.0);

    // An entry written before the host_seconds provenance line existed
    // is still a hit: the probe reports 0 (unknown cost), not absent —
    // otherwise LPT would price warm pre-upgrade caches as full work.
    const std::string hash = cold.records[0].spec.contentHash();
    const std::string path = dir + "/" + hash + ".run";
    std::ifstream in(path);
    std::ostringstream stripped;
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("host_seconds ", 0) != 0)
            stripped << line << "\n";
    in.close();
    std::ofstream(path, std::ios::trunc) << stripped.str();
    EXPECT_DOUBLE_EQ(CacheStore(dir).recordedHostSeconds(hash), 0.0);
    std::filesystem::remove_all(dir);
}

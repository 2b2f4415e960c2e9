/**
 * @file
 * `vortex_fuzz` — differential fuzzing of the guest toolchain and the
 * simulator's pipeline.
 *
 * Each seed deterministically generates a well-formed guest program
 * (src/fuzz/), pushes it through the full object pipeline
 * (assemble -> VXOB write/read -> load/relocate), requires a clean
 * static-analysis report, then runs it on the base machine and on a
 * timing variant of it (slow memory, shallow queues; fuzz::timingVariant)
 * and compares retired thread instructions and the guest-visible scratch
 * memory byte-for-byte. The two cycle counts must differ, or the variant
 * did not perturb timing:
 *
 *   vortex_fuzz --seeds 100
 *   vortex_fuzz --seeds 50 --start 1000 --set numCores=4
 *   vortex_fuzz --dump 42
 *   vortex_fuzz --seeds 100 --coverage cov.json \
 *               --coverage-baseline ci/fuzz_coverage_baseline.json
 *
 * `--coverage` measures what the seed window's corpus exercises
 * (InstrKinds, decode paths, analyzer checks; see src/fuzz/coverage.h)
 * and writes the JSON report; `--coverage-baseline` additionally fails
 * the run when anything a pinned baseline covers is no longer
 * exercised. Both skip the differential runs — coverage is a static
 * property of the corpus.
 *
 * Exit status: 0 = every seed matched, 1 = divergence or a failed seed,
 * 2 = usage error.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/log.h"
#include "fuzz/coverage.h"
#include "fuzz/fuzz.h"
#include "sweep/spec.h"

using namespace vortex;

namespace {

int
usage(int code)
{
    std::printf(
        "usage: vortex_fuzz [options]\n"
        "\n"
        "options:\n"
        "  --seeds N            number of seeds to run (default 100)\n"
        "  --start S            first seed (default 1)\n"
        "  --set F=V            override a machine config field, as in\n"
        "                       vortex_sweep (repeatable); the default\n"
        "                       machine is 2 cores x 2 wavefronts x 4\n"
        "                       threads\n"
        "  --dump SEED          print seed SEED's generated program and\n"
        "                       exit (for reproducing a report)\n"
        "  --coverage FILE      write the corpus-coverage JSON for the\n"
        "                       seed window and exit (no differential\n"
        "                       runs); '-' writes to stdout\n"
        "  --coverage-baseline FILE\n"
        "                       with --coverage: also compare against a\n"
        "                       pinned baseline JSON and exit 1 when any\n"
        "                       baseline coverage is lost\n"
        "  --verbose            print every seed, not just failures\n"
        "  -h, --help           this text\n"
        "\n"
        "exit status: 0 = all seeds matched, 1 = failures, 2 = usage\n");
    return code;
}

int
run(int argc, char** argv)
{
    uint64_t seeds = 100;
    uint64_t start = 1;
    bool verbose = false;
    std::string coveragePath;
    std::string baselinePath;
    core::ArchConfig config = fuzz::fuzzConfig();
    sweep::WorkloadSpec unusedWl;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for ", arg);
            return argv[++i];
        };
        if (arg == "-h" || arg == "--help") {
            return usage(0);
        } else if (arg == "--seeds") {
            seeds = std::stoull(value());
        } else if (arg == "--start") {
            start = std::stoull(value());
        } else if (arg == "--dump") {
            fuzz::GeneratedKernel k =
                fuzz::generateKernel(std::stoull(value()));
            std::printf("%s", k.source.c_str());
            return 0;
        } else if (arg == "--set") {
            std::string kv = value();
            size_t eq = kv.find('=');
            if (eq == std::string::npos)
                fatal("--set expects FIELD=VALUE (got '", kv, "')");
            if (!sweep::applyField(config, unusedWl, kv.substr(0, eq),
                                   kv.substr(eq + 1)))
                fatal("unknown --set field '", kv.substr(0, eq), "'");
        } else if (arg == "--coverage") {
            coveragePath = value();
        } else if (arg == "--coverage-baseline") {
            baselinePath = value();
        } else if (arg == "--verbose") {
            verbose = true;
        } else {
            std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
            return usage(2);
        }
    }

    if (!baselinePath.empty() && coveragePath.empty()) {
        std::fprintf(stderr,
                     "--coverage-baseline requires --coverage\n");
        return usage(2);
    }

    if (!coveragePath.empty()) {
        fuzz::CoverageReport measured = fuzz::measureCoverage(
            start, static_cast<uint32_t>(seeds));
        std::string json = fuzz::coverageJson(measured);
        if (coveragePath == "-") {
            std::printf("%s", json.c_str());
        } else {
            std::ofstream out(coveragePath, std::ios::binary);
            if (!out)
                fatal("cannot write coverage file '", coveragePath, "'");
            out << json;
        }
        std::printf("corpus coverage over seeds [%llu, %llu): %zu "
                    "InstrKind(s), %zu decode path(s), %zu analyzer "
                    "check(s)\n",
                    static_cast<unsigned long long>(start),
                    static_cast<unsigned long long>(start + seeds),
                    measured.instrKinds.size(),
                    measured.decodePaths.size(),
                    measured.analyzerChecks.size());
        if (!baselinePath.empty()) {
            std::ifstream in(baselinePath, std::ios::binary);
            if (!in)
                fatal("cannot read coverage baseline '", baselinePath,
                      "'");
            std::ostringstream buf;
            buf << in.rdbuf();
            fuzz::CoverageReport baseline =
                fuzz::parseCoverageJson(buf.str(), baselinePath);
            std::string regressions =
                fuzz::coverageRegressions(baseline, measured);
            if (!regressions.empty()) {
                std::printf("coverage REGRESSED vs %s:\n%s",
                            baselinePath.c_str(), regressions.c_str());
                return 1;
            }
            std::printf("coverage is no worse than %s\n",
                        baselinePath.c_str());
        }
        return 0;
    }

    uint64_t failures = 0;
    for (uint64_t seed = start; seed < start + seeds; ++seed) {
        fuzz::FuzzResult r = fuzz::runDifferential(seed, config);
        if (r.ok) {
            if (verbose)
                std::printf("seed %llu: ok (%llu / %llu cycles, %llu "
                            "instrs)\n",
                            static_cast<unsigned long long>(seed),
                            static_cast<unsigned long long>(r.cycles),
                            static_cast<unsigned long long>(
                                r.variantCycles),
                            static_cast<unsigned long long>(
                                r.threadInstrs));
            continue;
        }
        ++failures;
        std::printf("seed %llu: FAIL\n%s\n--- generated program "
                    "(vortex_fuzz --dump %llu) ---\n%s\n",
                    static_cast<unsigned long long>(seed),
                    r.detail.c_str(),
                    static_cast<unsigned long long>(seed),
                    r.source.c_str());
    }
    std::printf("%llu/%llu seed(s) ok\n",
                static_cast<unsigned long long>(seeds - failures),
                static_cast<unsigned long long>(seeds));
    return failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        return run(argc, argv);
    } catch (const FatalError& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
}

/**
 * @file
 * Built-in campaign presets: one per paper figure/table plus the cache
 * and pipeline ablations. Each preset either expands to a SweepSpec
 * (simulation campaigns — Figs. 14/18/19/20/21, ablations) or produces a
 * ReportTable directly (the synthesis/area tables 3-5 and Fig. 15, which
 * evaluate the calibrated area model without running the simulator).
 *
 * The `vortex_sweep` CLI is a thin client of this registry:
 * `vortex_sweep run --preset fig18` reproduces one figure, and "run one
 * figure" and "run any campaign" share a single definition of every
 * experiment.
 */

#pragma once

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "sweep/campaign.h"
#include "sweep/report.h"
#include "sweep/spec.h"

namespace vortex::sweep {

/**
 * Baseline machine builder: the paper's 4W-4T core (§6.2.1), scaled to
 * @p cores with the evaluation's machine rules — clusters attach an L2
 * from 4 cores (§4.1) and the board becomes the 8-channel Stratix 10
 * above 16 cores (§6.5). Scaling starts from @p base so axis assignments
 * made before a "cores" assignment survive it.
 */
core::ArchConfig baselineConfig(uint32_t cores = 1,
                                core::ArchConfig base = {});

/** The five §6.2.1 design-space geometry labels of Table 3 / Fig. 14
 *  ("4W-4T", ...), as a geometry axis over numWarps/numThreads. */
Axis geometryAxis();

/** The five Rodinia kernels plotted in Fig. 14 / Fig. 19. */
const std::vector<std::string>& fig14Kernels();

/** All seven Rodinia kernels of the scaling study (Fig. 18). */
const std::vector<std::string>& fig18Kernels();

//
// Spec builders (parameterized; the registry uses the defaults).
//
SweepSpec fig14Spec(); ///< IPC of the five core geometries x five kernels
SweepSpec fig18Spec(); ///< IPC vs core count (1-16), all seven kernels
SweepSpec fig19Spec(); ///< D$ virtual ports: bank utilization and IPC
SweepSpec fig20Spec(uint32_t size = 64); ///< HW vs SW texture filtering
SweepSpec fig21Spec(bool paperSize = false); ///< memory latency/bandwidth

/** The pinned CI perf-trajectory campaign: three kernels x {1, 2} cores,
 *  test-sized, small enough for every PR. CI runs it with sampling on
 *  and records its `--bench-json` output as the bench trajectory point
 *  (see .github/workflows/ci.yml, job `perf-smoke`). */
SweepSpec perfSmokeSpec();

/** The assembly-toolchain smoke campaign: the seven checked-in `.s`
 *  kernel twins (examples/kernels/) run through the full
 *  assemble -> object -> load pipeline at {1, 2} cores. Each point
 *  must produce the same cycles/instrs as the built-in kernel it
 *  twins; CI runs it from the dumped spec file
 *  (examples/specs/asm_smoke.toml). */
SweepSpec asmSmokeSpec();

/** The harness-free workload-zoo campaign: every `.s`-only workload
 *  (examples/kernels/ programs with no C++ twin) run through the
 *  object pipeline at {1, 2} cores with `check = "selfcheck"` — the
 *  guest verifies its own results through the self-check mailbox
 *  (docs/TOOLCHAIN.md), zero per-workload C++ harness code. CI runs it
 *  from the dumped spec file (examples/specs/workload_zoo.toml). */
SweepSpec workloadZooSpec();

/** The fault-injection smoke campaign: three `.s` guests (bitonic,
 *  reduce_tree, and the non-terminating hang fixture) x eight seeds,
 *  four seeded bit flips per run in a 4000-cycle window with a
 *  100K-cycle watchdog (`[faults]`; docs/ROBUSTNESS.md). Runs are
 *  classified masked / sdc / detected / hang from their (status, ok)
 *  pair by faultClassificationReport(). Deterministic: the same seed
 *  produces byte-identical campaign CSV for any job count or cache
 *  state. CI runs it from the dumped spec file
 *  (examples/specs/fault_smoke.toml, job `fault-matrix`). */
SweepSpec faultSmokeSpec();

/** The fault_smoke report: per-kernel counts of masked / sdc /
 *  detected / hang (see faultSmokeSpec and docs/ROBUSTNESS.md). */
ReportTable faultClassificationReport(const CampaignResult& r);

/** Preset parameters as (key, value) pairs (`--arg size=128`). */
using PresetArgs = std::vector<std::pair<std::string, std::string>>;

/** One runnable experiment in the preset registry. Exactly one of
 *  `sweep` / `table` is set. */
struct Preset
{
    std::string name;        ///< CLI name (e.g. "fig18")
    std::string description; ///< one-liner for --list / the README table
    /** Builds the campaign spec (simulation presets). Fatal on an
     *  argument the preset does not take (fig20: size=N;
     *  fig21: paper=0/1; the rest take none). */
    std::function<SweepSpec(const PresetArgs&)> sweep;
    /** Builds the finished table (area/synthesis presets; take no
     *  arguments). */
    std::function<ReportTable()> table;
    /** Renders the figure-shaped human report from campaign results
     *  (simulation presets only). */
    std::function<ReportTable(const CampaignResult&)> report;
};

/** Every built-in preset, in paper order. */
const std::vector<Preset>& presets();

/** Registry lookup; nullptr when @p name is unknown. The long figure
 *  and table names are accepted as aliases ("fig18_scaling" ->
 *  "fig18", "table3_core_area" -> "table3", ...). */
const Preset* findPreset(const std::string& name);

/**
 * Generic two-axis IPC pivot: rows = first-axis labels, columns =
 * second-axis labels. The report shape of the ablation presets and the
 * fallback for ad-hoc CLI sweeps with two axes.
 */
ReportTable pivotIpc(const CampaignResult& result);

} // namespace vortex::sweep

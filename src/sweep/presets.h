/**
 * @file
 * Built-in campaign presets: one per paper figure/table plus the cache
 * and pipeline ablations and the smoke campaigns. A preset is either a
 * simulation campaign or an area table:
 *
 *  - every simulation preset (Figs. 14/18/19/20/21, the ablations, the
 *    smoke campaigns) is a canonical spec file, examples/specs/NAME.toml.
 *    The build embeds those files into the library (src/CMakeLists.txt),
 *    so the file is the only definition of the campaign; adding a preset
 *    is adding a file and rebuilding;
 *  - the synthesis/area tables 3-5 and Fig. 15 produce a ReportTable
 *    directly from the calibrated area model, without simulating.
 *
 * The `vortex_sweep` CLI is a thin client of this registry:
 * `vortex_sweep run --preset fig18` reproduces one figure, and
 * `run --spec examples/specs/fig18.toml` runs the same campaign with the
 * same report (reportFor keys renderers by campaign name).
 */

#pragma once

#include <functional>
#include <string>
#include <string_view>
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

/** One runnable experiment in the preset registry: a simulation
 *  campaign (`text` set) or an area table (`table` set). */
struct Preset
{
    std::string name;        ///< CLI name: the spec file stem ("fig18")
    std::string description; ///< one-liner for `specs list`
    /** Simulation presets: the embedded text of examples/specs/NAME.toml,
     *  byte for byte. Empty for area tables. */
    std::string_view text;
    /** Area presets: builds the finished table. Null for simulation
     *  presets. */
    std::function<ReportTable()> table;

    /** The campaign a simulation preset describes: `text` parsed with
     *  diagnostics naming examples/specs/NAME.toml. */
    SweepSpec spec() const;
};

/** Every built-in preset, sorted by name. */
const std::vector<Preset>& presets();

/** Registry lookup; nullptr when @p name is unknown. The long figure
 *  and table names are accepted as aliases ("fig18_scaling" ->
 *  "fig18", "table3_core_area" -> "table3", ...). The aliases are a
 *  compatibility shim scheduled for removal on 2027-04-01. */
const Preset* findPreset(const std::string& name);

/** A campaign report renderer. */
using ReportFn = ReportTable (*)(const CampaignResult&);

/**
 * The report for the campaign @p spec describes, keyed by its name:
 * fig14, fig18, fig19, fig20, fig21 and fault_smoke have their own
 * renderers; any other campaign with two axes gets pivotIpc; the rest
 * get none (nullptr). Preset runs and `--spec` runs share this lookup.
 */
ReportFn reportFor(const SweepSpec& spec);

/**
 * Generic two-axis IPC pivot: rows = first-axis labels, columns =
 * second-axis labels. The report of the ablation and smoke presets and
 * of any other two-axis sweep.
 */
ReportTable pivotIpc(const CampaignResult& result);

} // namespace vortex::sweep

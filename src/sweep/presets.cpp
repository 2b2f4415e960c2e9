/**
 * @file
 * The built-in preset registry: the campaigns embedded from
 * examples/specs/, the area tables, and the report renderers for every
 * paper figure.
 */

#include "sweep/presets.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "area/area.h"
#include "common/log.h"
#include "common/outcome.h"
#include "sweep/specfile.h"

namespace vortex::sweep {

/** Generated at build time from the TOML files in examples/specs/
 *  (src/CMakeLists.txt): {file stem, file text} for every shipped spec
 *  file, sorted by stem. */
extern const char* const kPresetSpecFiles[][2];
/** Number of entries in kPresetSpecFiles. */
extern const size_t kPresetSpecFileCount;

namespace {

/** Labels of axis @p axis across @p r's records, in first-seen
 *  (matrix) order. Reports read their rows and columns from here, so a
 *  spec edit reshapes its report without a code change. */
std::vector<std::string>
axisLabels(const CampaignResult& r, size_t axis)
{
    std::vector<std::string> labels;
    for (const RunRecord& rec : r.records) {
        const std::string& label = rec.spec.coords.at(axis).second;
        if (std::find(labels.begin(), labels.end(), label) == labels.end())
            labels.push_back(label);
    }
    return labels;
}

/** Format a "model / paper" comparison cell. */
std::string
mvp(double model, double paper, int prec = 0)
{
    return fmtF(model, prec) + " / " + fmtF(paper, prec);
}

//
// Figure 14 — core design-space geometries.
//

ReportTable
fig14Report(const CampaignResult& r)
{
    ReportTable t = pivotIpc(r);
    t.title = "Figure 14: IPC per core configuration";
    double base = r.at({"sgemm", "4W-4T"}).result.ipc;
    double w2t8 = r.at({"sgemm", "2W-8T"}).result.ipc;
    double w8t2 = r.at({"sgemm", "8W-2T"}).result.ipc;
    t.notes.push_back(
        "shape check (paper: 2W-8T ~ +20% on sgemm, 8W-2T ~ -36%):");
    char buf[96];
    std::snprintf(buf, sizeof(buf), "  sgemm 2W-8T / 4W-4T = %+.1f%%",
                  100.0 * (w2t8 / base - 1.0));
    t.notes.push_back(buf);
    std::snprintf(buf, sizeof(buf), "  sgemm 8W-2T / 4W-4T = %+.1f%%",
                  100.0 * (w8t2 / base - 1.0));
    t.notes.push_back(buf);
    return t;
}

//
// Figure 18 — core-count scaling.
//

ReportTable
fig18Report(const CampaignResult& r)
{
    const std::vector<std::string> counts = axisLabels(r, 1);
    ReportTable t;
    t.title = "Figure 18: IPC vs core count";
    t.columns = {"kernel", "group"};
    for (const std::string& c : counts)
        t.columns.push_back(c + "c");
    t.columns.push_back("speedup(" + counts.back() + "c/" + counts.front() +
                        "c)");
    for (const std::string& kernel : axisLabels(r, 0)) {
        std::vector<std::string> row = {
            kernel,
            runtime::isComputeBound(kernel) ? "compute" : "memory"};
        double first = r.at({kernel, counts.front()}).result.ipc;
        double last = r.at({kernel, counts.back()}).result.ipc;
        for (const std::string& c : counts)
            row.push_back(fmtF(r.at({kernel, c}).result.ipc, 3));
        row.push_back(fmtF(last / first, 2) + "x");
        t.addRow(std::move(row));
    }
    return t;
}

//
// Figure 19 — D$ virtual multi-porting.
//

ReportTable
fig19Report(const CampaignResult& r)
{
    const std::vector<std::string> ports = axisLabels(r, 1);
    ReportTable t;
    t.title = "Figure 19: D$ bank utilization / IPC vs virtual ports "
              "(1 core, 4 banks)";
    t.columns = {"kernel"};
    for (const std::string& p : ports)
        t.columns.push_back("util@" + p + "p");
    for (const std::string& p : ports)
        t.columns.push_back("IPC@" + p + "p");
    for (const std::string& kernel : axisLabels(r, 0)) {
        std::vector<std::string> row = {kernel};
        for (const std::string& p : ports)
            row.push_back(
                fmtPct(r.at({kernel, p}).dcacheBankUtilization(), 1));
        for (const std::string& p : ports)
            row.push_back(fmtF(r.at({kernel, p}).result.ipc, 3));
        t.addRow(std::move(row));
    }
    return t;
}

//
// Figure 20 — HW vs SW texture filtering.
//

ReportTable
fig20Report(const CampaignResult& r)
{
    ReportTable t;
    t.title = "Figure 20: HW vs SW texture filtering "
              "(kilocycles; lower is better)";
    if (!r.records.empty()) {
        const std::string sz =
            std::to_string(r.records.front().spec.workload.texSize);
        t.notes.push_back("(render target " + sz + "x" + sz + " RGBA8)");
    }
    t.columns = {"cores", "filter", "SW", "HW", "SW/HW"};
    for (const std::string& c : axisLabels(r, 0)) {
        for (const std::string& f : axisLabels(r, 1)) {
            double sw = static_cast<double>(
                            r.at({c, f, "sw"}).result.cycles) /
                        1000.0;
            double hw = static_cast<double>(
                            r.at({c, f, "hw"}).result.cycles) /
                        1000.0;
            t.addRow({c, f, fmtF(sw, 1), fmtF(hw, 1),
                      fmtF(sw / hw, 2) + "x"});
        }
    }
    return t;
}

//
// Figure 21 — board-memory latency/bandwidth scaling.
//

ReportTable
fig21Report(const CampaignResult& r)
{
    ReportTable t;
    t.title = "Figure 21: memory latency/bandwidth scaling";
    if (!r.records.empty()) {
        const core::ArchConfig& c = r.records.front().spec.config;
        t.notes.push_back(
            "(machine: " + std::to_string(c.numCores) + " cores x " +
            std::to_string(c.numWarps) + "W x " +
            std::to_string(c.numThreads) + "T, L2 " +
            (c.l2Enabled ? "enabled" : "disabled") + ")");
    }
    const std::vector<std::string> bandwidths = axisLabels(r, 2);
    t.columns = {"kernel", "latency"};
    for (const std::string& bw : bandwidths)
        t.columns.push_back("bw " + bw);
    for (const std::string& kernel : axisLabels(r, 0)) {
        for (const std::string& lat : axisLabels(r, 1)) {
            std::vector<std::string> row = {
                kernel + (runtime::isComputeBound(kernel) ? " (compute)"
                                                          : " (memory)"),
                lat};
            for (const std::string& bw : bandwidths)
                row.push_back(fmtF(r.at({kernel, lat, bw}).result.ipc, 3));
            t.addRow(std::move(row));
        }
    }
    return t;
}

//
// Area/synthesis tables (no simulation; the calibrated model of
// area/area.h against the paper's published rows).
//

ReportTable
table3Report()
{
    struct PaperRow
    {
        const char* name;
        uint32_t w, t;
        double lut, regs, bram, fmax;
    };
    const PaperRow paper[] = {
        {"4W-4T", 4, 4, 21502, 32661, 131, 233},
        {"2W-8T", 2, 8, 36361, 54438, 238, 224},
        {"8W-2T", 8, 2, 16981, 24343, 77, 225},
        {"4W-8T", 4, 8, 37857, 57614, 247, 224},
        {"8W-4T", 8, 4, 24485, 34854, 139, 228},
    };
    ReportTable t;
    t.title = "Table 3: core synthesis (model vs paper)";
    t.columns = {"config", "LUT (mdl/paper)", "Regs (mdl/paper)",
                 "BRAM (mdl/pap)", "fmax (mdl/pap)"};
    for (const PaperRow& row : paper) {
        area::CoreArea a = area::coreArea(row.w, row.t);
        t.addRow({row.name, mvp(a.luts, row.lut), mvp(a.regs, row.regs),
                  mvp(a.brams, row.bram), mvp(a.fmaxMhz, row.fmax)});
    }
    t.notes.push_back("(model is least-squares calibrated on these rows; "
                      "max residual ~2%)");
    return t;
}

ReportTable
table4Report()
{
    struct PaperRow
    {
        uint32_t cores;
        area::Fpga fpga;
        double alm, regsK, bram, dsp, fmax;
    };
    const PaperRow paper[] = {
        {1, area::Fpga::Arria10, 13, 78, 10, 2, 234},
        {2, area::Fpga::Arria10, 19, 111, 15, 5, 225},
        {4, area::Fpga::Arria10, 30, 176, 25, 9, 223},
        {8, area::Fpga::Arria10, 53, 305, 45, 19, 210},
        {16, area::Fpga::Arria10, 85, 525, 83, 38, 203},
        {32, area::Fpga::Stratix10, 70, 1057, 23, 20, 200},
    };
    ReportTable t;
    t.title = "Table 4: multi-core synthesis (model vs paper)";
    t.columns = {"cores",    "FPGA",      "ALM% m/p", "Regs(K) m/p",
                 "BRAM% m/p", "DSP% m/p", "fmax m/p"};
    for (const PaperRow& row : paper) {
        area::DeviceArea a = area::deviceArea(row.cores, row.fpga);
        t.addRow({std::to_string(row.cores),
                  row.fpga == area::Fpga::Arria10 ? "A10" : "S10",
                  mvp(a.almPercent, row.alm), mvp(a.regsK, row.regsK),
                  mvp(a.bramPercent, row.bram), mvp(a.dspPercent, row.dsp),
                  mvp(a.fmaxMhz, row.fmax)});
    }
    t.notes.push_back("(A10 rows calibrated; the S10 row is rescaled by "
                      "device capacity)");
    return t;
}

ReportTable
table5Report()
{
    struct PaperRow
    {
        uint32_t ports;
        double lut, regs, bram, fmax;
    };
    const PaperRow paper[] = {
        {1, 10747, 13238, 72, 253},
        {2, 11722, 13650, 72, 250},
        {4, 13516, 14928, 72, 244},
    };
    ReportTable t;
    t.title = "Table 5: 4-bank D$ synthesis (model vs paper)";
    t.columns = {"ports", "LUT (mdl/paper)", "Regs (mdl/paper)",
                 "BRAM (m/p)", "fmax (m/p)"};
    double lut1 = 0.0;
    for (const PaperRow& row : paper) {
        area::CacheArea a = area::cacheArea(4, row.ports, 16384);
        if (row.ports == 1)
            lut1 = a.luts;
        t.addRow({std::to_string(row.ports), mvp(a.luts, row.lut),
                  mvp(a.regs, row.regs), mvp(a.brams, row.bram),
                  mvp(a.fmaxMhz, row.fmax)});
    }
    area::CacheArea a2 = area::cacheArea(4, 2, 16384);
    area::CacheArea a4 = area::cacheArea(4, 4, 16384);
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "LUT delta: 2-port %+.1f%% (paper +9%%), 4-port %+.1f%% "
                  "(paper +25%%)",
                  100.0 * (a2.luts / lut1 - 1.0),
                  100.0 * (a4.luts / lut1 - 1.0));
    t.notes.push_back(buf);
    return t;
}

ReportTable
fig15Report()
{
    ReportTable t;
    t.title = "Figure 15: area distribution (8-core build)";
    t.columns = {"component", "share", ""};
    double total = 0.0;
    for (const area::AreaSlice& s : area::areaDistribution()) {
        t.addRow({s.component, fmtPct(s.fraction, 1),
                  std::string(
                      static_cast<size_t>(s.fraction * 100.0 + 0.5), '#')});
        total += s.fraction;
    }
    t.addRow({"(total)", fmtPct(total, 1), ""});
    return t;
}

//
// Fault-injection smoke.
//

ReportTable
faultClassificationReport(const CampaignResult& r)
{
    // Classification from the (status, ok) pair (docs/ROBUSTNESS.md):
    // masked   — the run completed and still verified;
    // sdc      — completed but verification mismatched (silent data
    //            corruption);
    // detected — the machine or the guest caught it (guest trap or
    //            self-check FAIL);
    // hang     — the watchdog expired (timeout).
    ReportTable t;
    t.title = r.name + ": fault classification";
    t.columns = {"kernel", "masked", "sdc",  "detected",
                 "hang",   "other",  "runs"};
    for (const std::string& row : axisLabels(r, 0)) {
        uint64_t masked = 0, sdc = 0, detected = 0, hang = 0, other = 0,
                 total = 0;
        for (const RunRecord& rec : r.records) {
            if (rec.spec.coords[0].second != row)
                continue;
            ++total;
            const runtime::RunResult& res = rec.result;
            if (res.ok)
                ++masked;
            else if (res.status == RunStatus::Ok)
                ++sdc;
            else if (res.status == RunStatus::GuestTrap ||
                     res.status == RunStatus::SelfcheckFail)
                ++detected;
            else if (res.status == RunStatus::Timeout)
                ++hang;
            else
                ++other;
        }
        t.addRow({row, std::to_string(masked), std::to_string(sdc),
                  std::to_string(detected), std::to_string(hang),
                  std::to_string(other), std::to_string(total)});
    }
    return t;
}

/** The campaign description from a spec's top-level keys. TOML puts
 *  every top-level key before the first table header, so the header
 *  parses alone, without validating (and loading the guest programs
 *  of) the axis points. */
std::string
headerDescription(std::string_view text, const std::string& file)
{
    size_t end = text.find("\n[");
    if (end != std::string_view::npos)
        text = text.substr(0, end + 1);
    return parseSpecText(std::string(text), file).description;
}

/** The source path diagnostics give for preset @p name's spec. */
std::string
specFileName(const std::string& name)
{
    return "examples/specs/" + name + ".toml";
}

} // namespace

core::ArchConfig
baselineConfig(uint32_t cores, core::ArchConfig base)
{
    base.numCores = cores;
    if (cores >= 4) {
        base.l2Enabled = true; // clusters attach an optional L2 (§4.1)
        base.coresPerCluster = 4;
    }
    if (cores > 16)
        base.mem.numChannels = 8; // Stratix 10 board (8 banks, §6.5)
    return base;
}

ReportTable
pivotIpc(const CampaignResult& r)
{
    if (r.axisNames.size() != 2)
        fatal("pivotIpc: campaign '", r.name, "' has ",
              r.axisNames.size(), " axes, need exactly 2");
    ReportTable t;
    t.title = r.name + ": IPC";
    t.columns = {r.axisNames[0] + " \\ " + r.axisNames[1]};
    const std::vector<std::string> columns = axisLabels(r, 1);
    t.columns.insert(t.columns.end(), columns.begin(), columns.end());
    for (const std::string& row : axisLabels(r, 0)) {
        std::vector<std::string> cells = {row};
        for (const std::string& col : columns)
            cells.push_back(fmtF(r.at({row, col}).result.ipc, 3));
        t.addRow(std::move(cells));
    }
    return t;
}

ReportFn
reportFor(const SweepSpec& spec)
{
    static const std::pair<const char*, ReportFn> kRenderers[] = {
        {"fig14", fig14Report},
        {"fig18", fig18Report},
        {"fig19", fig19Report},
        {"fig20", fig20Report},
        {"fig21", fig21Report},
        {"fault_smoke", faultClassificationReport},
    };
    for (const auto& [name, render] : kRenderers)
        if (spec.name == name)
            return render;
    return spec.axes.size() == 2 ? pivotIpc : nullptr;
}

SweepSpec
Preset::spec() const
{
    return parseSpecText(std::string(text), specFileName(name));
}

const std::vector<Preset>&
presets()
{
    static const std::vector<Preset> all = [] {
        std::vector<Preset> p = {
            {"fig15", "per-component area distribution of the 8-core build",
             {}, fig15Report},
            {"table3", "core synthesis, five geometries (area model)", {},
             table3Report},
            {"table4", "whole-device synthesis, 1-32 cores (area model)", {},
             table4Report},
            {"table5", "virtually multi-ported D$ synthesis (area model)", {},
             table5Report},
        };
        for (size_t i = 0; i < kPresetSpecFileCount; ++i) {
            Preset s;
            s.name = kPresetSpecFiles[i][0];
            s.text = kPresetSpecFiles[i][1];
            s.description = headerDescription(s.text, specFileName(s.name));
            p.push_back(std::move(s));
        }
        std::sort(p.begin(), p.end(),
                  [](const Preset& a, const Preset& b) {
                      return a.name < b.name;
                  });
        return p;
    }();
    return all;
}

const Preset*
findPreset(const std::string& name)
{
    for (const Preset& p : presets())
        if (p.name == name)
            return &p;
    // Compatibility shim, to be removed on 2027-04-01: accept the long
    // figure/table names as aliases ("fig18_scaling" is the fig18
    // preset, "table3_core_area" is table3, and so on). Only
    // figN_*/tableN_* are shortened — ablation_* presets keep their
    // underscore names.
    if (name.rfind("fig", 0) == 0 || name.rfind("table", 0) == 0) {
        size_t us = name.find('_');
        if (us != std::string::npos)
            return findPreset(name.substr(0, us));
    }
    return nullptr;
}

} // namespace vortex::sweep

/**
 * @file
 * The built-in preset registry: spec builders and report renderers for
 * every paper figure/table and the ablation studies.
 */

#include "sweep/presets.h"

#include <algorithm>
#include <cstdio>

#include "area/area.h"
#include "common/log.h"
#include "common/outcome.h"

namespace vortex::sweep {

namespace {

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
    const std::vector<std::string> counts = {"1", "2", "4", "8", "16"};
    ReportTable t;
    t.title = "Figure 18: IPC vs core count";
    t.columns = {"kernel", "group"};
    for (const std::string& c : counts)
        t.columns.push_back(c + "c");
    t.columns.push_back("speedup(16c/1c)");
    for (const std::string& kernel : fig18Kernels()) {
        std::vector<std::string> row = {
            kernel,
            runtime::isComputeBound(kernel) ? "compute" : "memory"};
        double first = 0.0, last = 0.0;
        for (const std::string& c : counts) {
            double ipc = r.at({kernel, c}).result.ipc;
            if (c == counts.front())
                first = ipc;
            last = ipc;
            row.push_back(fmtF(ipc, 3));
        }
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
    const std::vector<std::string> ports = {"1", "2", "4"};
    ReportTable t;
    t.title = "Figure 19: D$ bank utilization / IPC vs virtual ports "
              "(1 core, 4 banks)";
    t.columns = {"kernel"};
    for (const std::string& p : ports)
        t.columns.push_back("util@" + p + "p");
    for (const std::string& p : ports)
        t.columns.push_back("IPC@" + p + "p");
    for (const std::string& kernel : fig14Kernels()) {
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
    for (const char* c : {"1", "2", "4", "8"}) {
        for (const char* f : {"point", "bilinear", "trilinear"}) {
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
    t.columns = {"kernel", "latency"};
    for (const char* bw : {"x1", "x2", "x4"})
        t.columns.push_back(std::string("bw ") + bw);
    for (const char* kernel : {"saxpy", "sgemm"}) {
        for (const char* lat : {"25", "50", "100", "200", "400"}) {
            std::vector<std::string> row = {
                std::string(kernel) + (runtime::isComputeBound(kernel)
                                           ? " (compute)"
                                           : " (memory)"),
                lat};
            for (const char* bw : {"x1", "x2", "x4"})
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

/** Shared shape of the ablation presets: kernels x one swept field. */
SweepSpec
ablationSpec(const std::string& name, const std::string& description,
             const std::vector<std::string>& kernels, Axis axis)
{
    SweepSpec s;
    s.name = name;
    s.description = description;
    s.base = baselineConfig(1);
    s.axes = {Axis::sweep("kernel", kernels), std::move(axis)};
    return s;
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

Axis
geometryAxis()
{
    Axis a;
    a.name = "geometry";
    for (const auto& [w, t] : std::initializer_list<std::pair<int, int>>{
             {4, 4}, {2, 8}, {8, 2}, {4, 8}, {8, 4}}) {
        std::string label =
            std::to_string(w) + "W-" + std::to_string(t) + "T";
        a.points.push_back(AxisPoint{
            label,
            {{"numWarps", std::to_string(w)},
             {"numThreads", std::to_string(t)}}});
    }
    return a;
}

const std::vector<std::string>&
fig14Kernels()
{
    static const std::vector<std::string> k = {"sgemm", "vecadd", "sfilter",
                                               "saxpy", "nearn"};
    return k;
}

const std::vector<std::string>&
fig18Kernels()
{
    static const std::vector<std::string> k = {
        "sgemm", "vecadd", "sfilter", "saxpy", "nearn", "gaussian", "bfs"};
    return k;
}

SweepSpec
fig14Spec()
{
    SweepSpec s;
    s.name = "fig14";
    s.description = "IPC of the five core geometries on five kernels";
    s.base = baselineConfig(1);
    s.axes = {Axis::sweep("kernel", fig14Kernels()), geometryAxis()};
    return s;
}

SweepSpec
fig18Spec()
{
    SweepSpec s;
    s.name = "fig18";
    s.description = "IPC scaling with core count (1-16), seven kernels";
    s.axes.push_back(Axis::sweep("kernel", fig18Kernels()));
    Axis cores;
    cores.name = "cores";
    for (uint32_t c : {1u, 2u, 4u, 8u, 16u}) {
        // Scale the problem with the machine so every core has work.
        cores.points.push_back(AxisPoint{
            std::to_string(c),
            {{"cores", std::to_string(c)},
             {"scale", c >= 4 ? "2" : "1"}}});
    }
    s.axes.push_back(std::move(cores));
    return s;
}

SweepSpec
fig19Spec()
{
    SweepSpec s;
    s.name = "fig19";
    s.description = "D$ bank utilization and IPC at 1/2/4 virtual ports";
    s.base = baselineConfig(1);
    s.axes = {Axis::sweep("kernel", fig14Kernels()),
              Axis::sweepU32("dcachePorts", {1, 2, 4})};
    return s;
}

SweepSpec
fig20Spec(uint32_t size)
{
    SweepSpec s;
    s.name = "fig20";
    s.description = "HW vs SW texture filtering at 1/2/4/8 cores";
    s.baseWorkload.kind = WorkloadSpec::Kind::Texture;
    s.baseWorkload.texSize = size;
    s.axes = {Axis::sweepU32("cores", {1, 2, 4, 8}),
              Axis::sweep("texFilter", {"point", "bilinear", "trilinear"}),
              Axis{"path",
                   {AxisPoint{"sw", {{"texHw", "0"}}},
                    AxisPoint{"hw", {{"texHw", "1"}}}}}};
    return s;
}

SweepSpec
perfSmokeSpec()
{
    SweepSpec s;
    s.name = "perf_smoke";
    s.description =
        "CI perf-trajectory smoke: 3 kernels x {1, 2} cores, test-sized";
    s.base = baselineConfig(1);
    s.axes = {Axis::sweep("kernel", {"vecadd", "saxpy", "sgemm"}),
              Axis::sweep("cores", {"1", "2"})};
    return s;
}

SweepSpec
asmSmokeSpec()
{
    SweepSpec s;
    s.name = "asm_smoke";
    s.description =
        "assembly-toolchain smoke: the seven .s kernel twins through "
        "the object pipeline at {1, 2} cores";
    s.base = baselineConfig(1);
    Axis k;
    k.name = "kernel";
    for (const char* name : {"vecadd", "saxpy", "sgemm", "sfilter",
                             "nearn", "gaussian", "bfs"})
        k.points.push_back(AxisPoint{
            name,
            {{"kernel", name},
             {"program", std::string("examples/kernels/") + name + ".s"}}});
    s.axes = {std::move(k), Axis::sweep("cores", {"1", "2"})};
    return s;
}

SweepSpec
workloadZooSpec()
{
    SweepSpec s;
    s.name = "workload_zoo";
    s.description =
        "harness-free .s workload zoo: every self-checking guest "
        "program at {1, 2} cores";
    s.base = baselineConfig(1);
    Axis w;
    w.name = "kernel";
    for (const char* name : {"bitonic", "reduce_tree", "histogram",
                             "stress_barrier", "stress_diverge",
                             "stress_bank"})
        w.points.push_back(AxisPoint{
            name,
            {{"kernel", name},
             {"program", std::string("examples/kernels/") + name + ".s"},
             {"check", "selfcheck"}}});
    s.axes = {std::move(w), Axis::sweep("cores", {"1", "2"})};
    return s;
}

SweepSpec
faultSmokeSpec()
{
    SweepSpec s;
    s.name = "fault_smoke";
    s.description =
        "fault-injection smoke: seeded bit flips into self-checking "
        "guests (plus the non-terminating hang guest), eight seeds, "
        "classified as masked / sdc / detected / hang";
    s.base = baselineConfig(1);
    // Four flips per run, fired inside the first 4000 cycles so every
    // event lands while the guest is still running (a single flip in
    // the default 64K window almost always misses the run or a dead
    // register — all-masked smoke tells CI nothing). The watchdog
    // turns the wedged hang guest into a `timeout` row in well under a
    // second instead of the runtime's 400M-cycle budget.
    s.baseWorkload.faults.count = 4;
    s.baseWorkload.faults.window = 4000;
    s.baseWorkload.faults.watchdog = 100000;
    Axis w;
    w.name = "kernel";
    for (const char* name : {"bitonic", "reduce_tree", "hang"})
        w.points.push_back(AxisPoint{
            name,
            {{"kernel", name},
             {"program", std::string("examples/kernels/") + name + ".s"},
             {"check", "selfcheck"}}});
    Axis seeds;
    seeds.name = "seed";
    for (uint32_t seed = 1; seed <= 8; ++seed)
        seeds.points.push_back(
            AxisPoint{"s" + std::to_string(seed),
                      {{"faults.seed", std::to_string(seed)}}});
    s.axes = {std::move(w), std::move(seeds)};
    return s;
}

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
    std::vector<std::string> rows;
    for (const RunRecord& rec : r.records) {
        const std::string& row = rec.spec.coords[0].second;
        if (std::find(rows.begin(), rows.end(), row) == rows.end())
            rows.push_back(row);
    }
    for (const std::string& row : rows) {
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

SweepSpec
fig21Spec(bool paperSize)
{
    const uint32_t geo = paperSize ? 16 : 8;
    SweepSpec s;
    s.name = "fig21";
    s.description = "IPC vs board-memory latency and bandwidth";
    s.base = baselineConfig(geo);
    s.base.numWarps = geo;
    s.base.numThreads = geo;
    s.baseWorkload.scale = 2;
    Axis bw;
    bw.name = "bandwidth";
    for (uint32_t m : {1u, 2u, 4u})
        bw.points.push_back(
            AxisPoint{"x" + std::to_string(m),
                      {{"mem.numChannels", std::to_string(2 * m)}}});
    s.axes = {Axis::sweep("kernel", {"saxpy", "sgemm"}),
              Axis::sweepU32("mem.latency", {25, 50, 100, 200, 400}),
              std::move(bw)};
    return s;
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
    std::vector<std::string> rowLabels;
    for (const RunRecord& rec : r.records) {
        const std::string& row = rec.spec.coords[0].second;
        const std::string& col = rec.spec.coords[1].second;
        if (rowLabels.empty() || rowLabels.back() != row)
            if (std::find(rowLabels.begin(), rowLabels.end(), row) ==
                rowLabels.end())
                rowLabels.push_back(row);
        if (rowLabels.size() == 1)
            t.columns.push_back(col);
    }
    for (const std::string& row : rowLabels) {
        std::vector<std::string> cells = {row};
        for (size_t c = 1; c < t.columns.size(); ++c)
            cells.push_back(
                fmtF(r.at({row, t.columns[c]}).result.ipc, 3));
        t.addRow(std::move(cells));
    }
    return t;
}

namespace {

/** Fatal when a preset that takes no parameters receives one. */
void
requireNoArgs(const std::string& preset, const PresetArgs& args)
{
    if (!args.empty())
        fatal("preset '", preset, "' takes no --arg '", args[0].first,
              "'");
}


} // namespace

const std::vector<Preset>&
presets()
{
    static const std::vector<Preset> all = [] {
        std::vector<Preset> p;

        // Wrap an argument-less builder with the no-args check.
        auto sweepPreset =
            [&](std::function<SweepSpec()> build,
                std::function<ReportTable(const CampaignResult&)> report) {
                SweepSpec probe = build();
                std::string name = probe.name;
                p.push_back(Preset{
                    name, probe.description,
                    [name, build = std::move(build)](
                        const PresetArgs& args) {
                        requireNoArgs(name, args);
                        return build();
                    },
                    nullptr, std::move(report)});
            };
        auto paramPreset =
            [&](std::function<SweepSpec(const PresetArgs&)> build,
                std::function<ReportTable(const CampaignResult&)> report) {
                SweepSpec probe = build({});
                p.push_back(Preset{probe.name, probe.description,
                                   std::move(build), nullptr,
                                   std::move(report)});
            };
        auto tablePreset = [&](const std::string& name,
                               const std::string& description,
                               std::function<ReportTable()> build) {
            p.push_back(Preset{name, description, nullptr,
                               std::move(build), nullptr});
        };

        sweepPreset([] { return fig14Spec(); }, fig14Report);
        tablePreset("fig15",
                    "per-component area distribution of the 8-core build",
                    fig15Report);
        sweepPreset([] { return fig18Spec(); }, fig18Report);
        sweepPreset([] { return fig19Spec(); }, fig19Report);
        paramPreset(
            [](const PresetArgs& args) {
                uint32_t size = 64;
                for (const auto& [k, v] : args) {
                    if (k == "size")
                        size = parseU32Value("fig20 --arg size", v);
                    else
                        fatal("preset 'fig20' takes no --arg '", k, "'");
                }
                return fig20Spec(size);
            },
            fig20Report);
        paramPreset(
            [](const PresetArgs& args) {
                bool paper = false;
                for (const auto& [k, v] : args) {
                    if (k == "paper")
                        paper = parseBoolValue("fig21 --arg paper", v);
                    else
                        fatal("preset 'fig21' takes no --arg '", k, "'");
                }
                return fig21Spec(paper);
            },
            fig21Report);
        tablePreset("table3", "core synthesis, five geometries (area model)",
                    table3Report);
        tablePreset("table4", "whole-device synthesis, 1-32 cores (area "
                              "model)",
                    table4Report);
        tablePreset("table5", "virtually multi-ported D$ synthesis (area "
                              "model)",
                    table5Report);

        sweepPreset(
            [] {
                return ablationSpec(
                    "ablation_mshr",
                    "non-blocking depth: MSHR entries per bank",
                    {"saxpy", "sgemm"},
                    Axis::sweepU32("mshrEntries", {1, 2, 4, 8, 16}));
            },
            pivotIpc);
        sweepPreset(
            [] {
                return ablationSpec("ablation_banks",
                                    "D$ bank count at 1 virtual port",
                                    {"saxpy", "sgemm"},
                                    Axis::sweepU32("dcacheBanks",
                                                   {1, 2, 4, 8}));
            },
            pivotIpc);
        sweepPreset(
            [] {
                return ablationSpec(
                    "ablation_linesize", "cache/memory line size",
                    {"saxpy", "vecadd"},
                    Axis::sweepU32("lineSize", {16, 32, 64, 128}));
            },
            pivotIpc);
        sweepPreset(
            [] {
                return ablationSpec("ablation_ibuffer",
                                    "instruction-buffer depth",
                                    {"sgemm", "saxpy"},
                                    Axis::sweepU32("ibufferDepth",
                                                   {1, 2, 4, 8}));
            },
            pivotIpc);
        sweepPreset(
            [] {
                return ablationSpec(
                    "ablation_lsu",
                    "LSU depth (in-flight warp memory ops)",
                    {"saxpy", "vecadd"},
                    Axis::sweepU32("lsuDepth", {1, 2, 4, 8}));
            },
            pivotIpc);
        sweepPreset(
            [] {
                SweepSpec s = ablationSpec(
                    "ablation_sched",
                    "wavefront scheduling policy at 8 wavefronts",
                    {"sgemm", "saxpy", "nearn", "bfs"},
                    Axis::sweep("schedPolicy",
                                {"hierarchical", "roundrobin"}));
                s.base.numWarps = 8; // policy differences show with
                                     // more wavefronts
                return s;
            },
            pivotIpc);
        sweepPreset(
            [] {
                return ablationSpec(
                    "ablation_fsqrt",
                    "fsqrt latency sensitivity (nearn, §6.2.3)",
                    {"nearn", "saxpy"},
                    Axis::sweepU32("lat.fsqrt", {4, 12, 24, 48}));
            },
            pivotIpc);

        sweepPreset([] { return perfSmokeSpec(); }, pivotIpc);
        sweepPreset([] { return asmSmokeSpec(); }, pivotIpc);
        sweepPreset([] { return workloadZooSpec(); }, pivotIpc);
        sweepPreset([] { return faultSmokeSpec(); },
                    faultClassificationReport);

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
    // Accept the long figure/table names as aliases: "fig18_scaling" is
    // the fig18 preset, "table3_core_area" is table3, and so on. Only
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

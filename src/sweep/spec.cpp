/**
 * @file
 * Sweep-spec expansion, the named-field registry, and canonical
 * serialization/hashing of resolved runs.
 */

#include "sweep/spec.h"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/log.h"
#include "runtime/device.h"
#include "sweep/presets.h"

namespace vortex::sweep {

uint32_t
parseU32Value(const std::string& what, const std::string& value)
{
    try {
        size_t pos = 0;
        unsigned long v = std::stoul(value, &pos);
        if (pos != value.size() || v > UINT32_MAX)
            throw std::invalid_argument(value);
        return static_cast<uint32_t>(v);
    } catch (const std::exception&) {
        fatal(what, ": cannot parse '", value,
              "' as an unsigned integer");
    }
}

bool
parseBoolValue(const std::string& what, const std::string& value)
{
    if (value == "0" || value == "false" || value == "off")
        return false;
    if (value == "1" || value == "true" || value == "on")
        return true;
    fatal(what, ": cannot parse '", value,
          "' as a boolean (use 0/1/true/false/on/off)");
}

void
parseShardValue(const std::string& what, const std::string& value,
                uint32_t& index, uint32_t& count)
{
    size_t slash = value.find('/');
    if (slash == std::string::npos || slash == 0 ||
        slash + 1 >= value.size())
        fatal(what, ": expected I/N (shard I of N, 0-based), got '",
              value, "'");
    index = parseU32Value(what, value.substr(0, slash));
    count = parseU32Value(what, value.substr(slash + 1));
    if (count == 0)
        fatal(what, ": shard count must be >= 1 (got '", value, "')");
    if (index >= count)
        fatal(what, ": shard index ", index, " out of range for ", count,
              " shard", count == 1 ? "" : "s");
}

namespace {

uint32_t
parseU32(const std::string& name, const std::string& value)
{
    return parseU32Value("sweep field '" + name + "'", value);
}

bool
parseBool(const std::string& name, const std::string& value)
{
    return parseBoolValue("sweep field '" + name + "'", value);
}

/** Strict uint64 parse for the 64-bit fields (sampleInterval-style). */
uint64_t
parseU64(const std::string& name, const std::string& value)
{
    try {
        size_t pos = 0;
        uint64_t v = std::stoull(value, &pos);
        if (pos != value.size())
            throw std::invalid_argument(value);
        return v;
    } catch (const std::exception&) {
        fatal("sweep field '", name, "': cannot parse '", value,
              "' as an unsigned integer");
    }
}

core::SchedPolicy
parseSchedPolicy(const std::string& value)
{
    if (value == "hierarchical")
        return core::SchedPolicy::Hierarchical;
    if (value == "roundrobin" || value == "round-robin")
        return core::SchedPolicy::RoundRobin;
    fatal("sweep field 'schedPolicy': unknown policy '", value,
          "' (hierarchical | roundrobin)");
}

runtime::TexFilterMode
parseTexFilter(const std::string& value)
{
    if (value == "point")
        return runtime::TexFilterMode::Point;
    if (value == "bilinear")
        return runtime::TexFilterMode::Bilinear;
    if (value == "trilinear")
        return runtime::TexFilterMode::Trilinear;
    fatal("sweep field 'texFilter': unknown mode '", value,
          "' (point | bilinear | trilinear)");
}

/** One entry of the field registry: name -> assignment function. */
struct FieldDef
{
    const char* name;
    const char* help;
    void (*apply)(core::ArchConfig&, WorkloadSpec&, const std::string&);
};

#define VORTEX_U32_FIELD(field, help)                                       \
    {#field, help,                                                          \
     [](core::ArchConfig& c, WorkloadSpec&, const std::string& v) {         \
         c.field = parseU32(#field, v);                                     \
     }}
#define VORTEX_BOOL_FIELD(field, help)                                      \
    {#field, help,                                                          \
     [](core::ArchConfig& c, WorkloadSpec&, const std::string& v) {         \
         c.field = parseBool(#field, v);                                    \
     }}

const FieldDef kFields[] = {
    // SIMT geometry.
    VORTEX_U32_FIELD(numThreads, "threads per wavefront"),
    VORTEX_U32_FIELD(numWarps, "wavefronts per core"),
    VORTEX_U32_FIELD(numCores, "core count (raw; see also 'cores')"),
    VORTEX_U32_FIELD(coresPerCluster, "cores sharing one L2 cluster"),
    {"cores", "core count with the paper's scaling rules (L2 from 4 "
              "cores, 8-channel board above 16)",
     [](core::ArchConfig& c, WorkloadSpec&, const std::string& v) {
         c = baselineConfig(parseU32("cores", v), c);
     }},

    // Pipeline.
    VORTEX_U32_FIELD(ibufferDepth, "instruction-buffer depth"),
    VORTEX_U32_FIELD(lsuDepth, "in-flight warp memory ops per core"),
    {"schedPolicy", "wavefront scheduling (hierarchical | roundrobin)",
     [](core::ArchConfig& c, WorkloadSpec&, const std::string& v) {
         c.schedPolicy = parseSchedPolicy(v);
     }},
    VORTEX_U32_FIELD(lat.alu, "ALU latency (cycles)"),
    VORTEX_U32_FIELD(lat.mul, "integer-multiply latency"),
    VORTEX_U32_FIELD(lat.div, "integer-divide latency"),
    VORTEX_U32_FIELD(lat.fpu, "FP add/mul/fma latency"),
    VORTEX_U32_FIELD(lat.fcvt, "FP convert/move/compare latency"),
    VORTEX_U32_FIELD(lat.fdiv, "FP divide latency"),
    VORTEX_U32_FIELD(lat.fsqrt, "FP square-root latency"),
    VORTEX_U32_FIELD(lat.sfu, "SFU latency"),

    // L1 caches.
    {"lineSize", "cache AND board-memory line size (bytes)",
     [](core::ArchConfig& c, WorkloadSpec&, const std::string& v) {
         c.lineSize = parseU32("lineSize", v);
         c.mem.lineSize = c.lineSize;
     }},
    VORTEX_U32_FIELD(icacheSize, "L1I size (bytes)"),
    VORTEX_U32_FIELD(icacheWays, "L1I associativity"),
    VORTEX_U32_FIELD(dcacheSize, "L1D size (bytes)"),
    VORTEX_U32_FIELD(dcacheWays, "L1D associativity"),
    VORTEX_U32_FIELD(dcacheBanks, "L1D bank count"),
    VORTEX_U32_FIELD(dcachePorts, "L1D virtual ports per bank (Fig. 19)"),
    VORTEX_U32_FIELD(mshrEntries, "MSHR entries per bank"),

    // Shared memory.
    VORTEX_U32_FIELD(smemSize, "per-core scratchpad size (bytes)"),
    VORTEX_U32_FIELD(smemLatency, "scratchpad latency (cycles)"),

    // Optional cache hierarchy.
    VORTEX_BOOL_FIELD(l2Enabled, "attach a per-cluster L2"),
    VORTEX_U32_FIELD(l2Size, "L2 size (bytes)"),
    VORTEX_U32_FIELD(l2Banks, "L2 bank count"),
    VORTEX_U32_FIELD(l2Ways, "L2 associativity"),
    VORTEX_BOOL_FIELD(l3Enabled, "attach a device-level L3"),
    VORTEX_U32_FIELD(l3Size, "L3 size (bytes)"),
    VORTEX_U32_FIELD(l3Banks, "L3 bank count"),
    VORTEX_U32_FIELD(l3Ways, "L3 associativity"),

    // Board memory.
    VORTEX_U32_FIELD(mem.latency, "board-memory latency (cycles)"),
    VORTEX_U32_FIELD(mem.busWidth, "bytes per channel per cycle"),
    VORTEX_U32_FIELD(mem.numChannels, "independent memory channels"),
    VORTEX_U32_FIELD(mem.queueDepth, "memory input-queue depth"),

    // Texture units.
    VORTEX_BOOL_FIELD(texEnabled, "build the per-core texture units"),

    // Observability. The config field is 64-bit; parse it as such.
    {"sampleInterval", "cycles between counter snapshots (0 = off)",
     [](core::ArchConfig& c, WorkloadSpec&, const std::string& v) {
         try {
             size_t pos = 0;
             c.sampleInterval = std::stoull(v, &pos);
             if (pos != v.size())
                 throw std::invalid_argument(v);
         } catch (const std::exception&) {
             fatal("sweep field 'sampleInterval': cannot parse '", v,
                   "' as an unsigned integer");
         }
     }},

    // Workload selection.
    {"workload", "workload family (rodinia | texture)",
     [](core::ArchConfig&, WorkloadSpec& w, const std::string& v) {
         if (v == "rodinia")
             w.kind = WorkloadSpec::Kind::Rodinia;
         else if (v == "texture")
             w.kind = WorkloadSpec::Kind::Texture;
         else
             fatal("sweep field 'workload': unknown family '", v,
                   "' (rodinia | texture)");
     }},
    {"kernel", "Rodinia kernel name (implies workload=rodinia)",
     [](core::ArchConfig&, WorkloadSpec& w, const std::string& v) {
         w.kind = WorkloadSpec::Kind::Rodinia;
         w.kernel = v;
     }},
    {"scale", "Rodinia problem-size multiplier",
     [](core::ArchConfig&, WorkloadSpec& w, const std::string& v) {
         w.scale = parseU32("scale", v);
     }},
    {"texFilter", "texture filtering (point | bilinear | trilinear; "
                  "implies workload=texture)",
     [](core::ArchConfig&, WorkloadSpec& w, const std::string& v) {
         w.kind = WorkloadSpec::Kind::Texture;
         w.texFilter = parseTexFilter(v);
     }},
    {"texHw", "1 = hardware `tex` instruction, 0 = software sampler",
     [](core::ArchConfig&, WorkloadSpec& w, const std::string& v) {
         w.texHw = parseBool("texHw", v);
     }},
    {"texSize", "square texture/render-target size (power of two)",
     [](core::ArchConfig&, WorkloadSpec& w, const std::string& v) {
         w.texSize = parseU32("texSize", v);
     }},
    {"program", "assembly file run through the object pipeline instead "
                "of the kernel's built-in source (kernel still selects "
                "the argument/verification harness)",
     [](core::ArchConfig&, WorkloadSpec& w, const std::string& v) {
         w.program = v;
         w.programSource = loadProgramSource(v);
     }},
    {"check", "harness-free result check for program workloads "
              "(selfcheck | memcmp:ADDR:LEN:FNV)",
     [](core::ArchConfig&, WorkloadSpec& w, const std::string& v) {
         // Validate eagerly so spec files report malformed values with
         // file:line:col; the raw text is what gets hashed/serialized.
         parseCheckValue("sweep field 'check'", v);
         w.check = v;
     }},

    // Fault injection (docs/ROBUSTNESS.md; [faults] in spec files).
    {"faults.seed", "fault-injection PRNG seed selecting the upsets",
     [](core::ArchConfig&, WorkloadSpec& w, const std::string& v) {
         w.faults.seed = parseU64("faults.seed", v);
     }},
    {"faults.count", "single-bit upsets to inject (0 = off)",
     [](core::ArchConfig&, WorkloadSpec& w, const std::string& v) {
         w.faults.count = parseU32("faults.count", v);
     }},
    {"faults.window", "trigger-cycle window for injections (0 = default)",
     [](core::ArchConfig&, WorkloadSpec& w, const std::string& v) {
         w.faults.window = parseU64("faults.window", v);
     }},
    {"faults.watchdog", "cycle watchdog override for hang detection "
                        "(0 = runner default)",
     [](core::ArchConfig&, WorkloadSpec& w, const std::string& v) {
         w.faults.watchdog = parseU64("faults.watchdog", v);
     }},
};

#undef VORTEX_U32_FIELD
#undef VORTEX_BOOL_FIELD

/** FNV-1a 64-bit. */
uint64_t
fnv1a(const std::string& s)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace

std::string
resolveProgramPath(const std::string& path)
{
    auto exists = [](const std::string& p) {
        return static_cast<bool>(std::ifstream(p));
    };
    if (exists(path))
        return path;
    if (const char* env = std::getenv("VORTEX_PROGRAM_PATH")) {
        std::string prefixes = env;
        size_t start = 0;
        while (start <= prefixes.size()) {
            size_t colon = prefixes.find(':', start);
            std::string prefix =
                prefixes.substr(start, colon == std::string::npos
                                           ? std::string::npos
                                           : colon - start);
            if (!prefix.empty()) {
                std::string candidate = prefix + "/" + path;
                if (exists(candidate))
                    return candidate;
            }
            if (colon == std::string::npos)
                break;
            start = colon + 1;
        }
    }
    return path;
}

namespace {

/** Strict hex parse (optional 0x prefix, whole string must consume);
 *  fatal on failure, naming @p what. */
uint64_t
parseHexValue(const std::string& what, const std::string& value)
{
    std::string digits = value;
    if (digits.size() > 2 && digits[0] == '0' &&
        (digits[1] == 'x' || digits[1] == 'X'))
        digits = digits.substr(2);
    if (digits.empty() || digits.size() > 16)
        fatal(what, ": cannot parse '", value, "' as a hex number");
    uint64_t v = 0;
    for (char c : digits) {
        int d;
        if (c >= '0' && c <= '9')
            d = c - '0';
        else if (c >= 'a' && c <= 'f')
            d = c - 'a' + 10;
        else if (c >= 'A' && c <= 'F')
            d = c - 'A' + 10;
        else
            fatal(what, ": cannot parse '", value, "' as a hex number");
        v = (v << 4) | static_cast<uint64_t>(d);
    }
    return v;
}

} // namespace

CheckSpec
parseCheckValue(const std::string& what, const std::string& value)
{
    CheckSpec spec;
    if (value.empty())
        return spec;
    if (value == "selfcheck") {
        spec.kind = CheckSpec::Kind::Self;
        return spec;
    }
    const std::string prefix = "memcmp:";
    if (value.rfind(prefix, 0) == 0) {
        std::string rest = value.substr(prefix.size());
        size_t c1 = rest.find(':');
        size_t c2 = c1 == std::string::npos ? std::string::npos
                                            : rest.find(':', c1 + 1);
        if (c1 == std::string::npos || c2 == std::string::npos ||
            rest.find(':', c2 + 1) != std::string::npos)
            fatal(what, ": '", value,
                  "' is not of the form memcmp:ADDR:LEN:FNV");
        spec.kind = CheckSpec::Kind::Memcmp;
        uint64_t addr = parseHexValue(what, rest.substr(0, c1));
        uint64_t len = parseHexValue(what, rest.substr(c1 + 1,
                                                       c2 - c1 - 1));
        if (addr > UINT32_MAX || len > UINT32_MAX)
            fatal(what, ": '", value,
                  "' ADDR/LEN exceed the 32-bit address space");
        spec.addr = static_cast<Addr>(addr);
        spec.len = static_cast<uint32_t>(len);
        spec.fnv = parseHexValue(what, rest.substr(c2 + 1));
        return spec;
    }
    fatal(what, ": unknown check '", value,
          "' (selfcheck | memcmp:ADDR:LEN:FNV)");
}

std::string
loadProgramSource(const std::string& path)
{
    std::string resolved = resolveProgramPath(path);
    std::ifstream in(resolved, std::ios::binary);
    if (!in)
        fatal("cannot open program file '", path,
              "' (also searched $VORTEX_PROGRAM_PATH prefixes)");
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

const char*
schedPolicyName(core::SchedPolicy p)
{
    return p == core::SchedPolicy::RoundRobin ? "roundrobin"
                                              : "hierarchical";
}

const char*
texFilterName(runtime::TexFilterMode m)
{
    switch (m) {
    case runtime::TexFilterMode::Point:
        return "point";
    case runtime::TexFilterMode::Bilinear:
        return "bilinear";
    case runtime::TexFilterMode::Trilinear:
        return "trilinear";
    }
    return "?";
}

std::string
workloadKernelName(const WorkloadSpec& w)
{
    if (w.kind == WorkloadSpec::Kind::Rodinia)
        return w.kernel;
    return std::string("tex_") + texFilterName(w.texFilter) +
           (w.texHw ? "_hw" : "_sw");
}

std::string
WorkloadSpec::describe() const
{
    std::ostringstream os;
    if (kind == Kind::Rodinia) {
        os << kernel;
        if (scale != 1)
            os << " x" << scale;
    } else {
        os << "texture " << texFilterName(texFilter)
           << (texHw ? " hw " : " sw ") << texSize;
    }
    if (!program.empty())
        os << " @" << program;
    if (!check.empty())
        os << " [" << check << "]";
    return os.str();
}

namespace {

/** Failed RunResult of class @p status, with whatever counters the
 *  device accumulated before the run ended. */
runtime::RunResult
failedResult(runtime::Device& dev, RunStatus status,
             const std::string& what)
{
    runtime::RunResult r;
    r.ok = false;
    r.status = status;
    r.error = what;
    r.cycles = dev.processor().cycles();
    r.threadInstrs = dev.processor().threadInstrs();
    r.ipc = dev.processor().ipc();
    return r;
}

/** Memory-word upsets target this many words from startPC — enough to
 *  cover the image (code + data) of every shipped guest program. */
constexpr uint32_t kFaultMemWords = 0x4000 / 4;

} // namespace

runtime::RunResult
WorkloadSpec::run(runtime::Device& dev) const
{
    try {
        if (faults.watchdog)
            dev.setCycleLimit(faults.watchdog);
        if (faults.count)
            faults::FaultInjector::install(
                faults, dev.processor(), dev.processor().config().startPC,
                kFaultMemWords);
        if (!program.empty())
            dev.setKernelOverride(programSource, program);
        if (!check.empty()) {
            // Harness-free path: the guest program is the workload.
            if (program.empty())
                fatal("workload check '", check,
                      "' requires a program file ([workload] program = "
                      "...)");
            CheckSpec c = parseCheckValue("workload check", check);
            if (c.kind == CheckSpec::Kind::Self)
                return runtime::runSelfCheck(dev);
            return runtime::runMemcmp(dev, c.addr, c.len, c.fnv);
        }
        if (kind == Kind::Rodinia)
            return runtime::runRodinia(dev, kernel, scale);
        return runtime::runTexture(dev, texFilter, texHw, texSize);
    } catch (const SimError& e) {
        // Structured run-path failure (watchdog, guest trap): one failed
        // row, not a campaign abort (docs/ROBUSTNESS.md).
        return failedResult(dev, e.status(), e.what());
    } catch (const FatalError& e) {
        // Anything else fatal on the run path is a host-side error.
        return failedResult(dev, RunStatus::HostError, e.what());
    }
}

Axis
Axis::sweep(const std::string& field, const std::vector<std::string>& values)
{
    Axis a;
    a.name = field;
    for (const std::string& v : values)
        a.points.push_back(AxisPoint{v, {{field, v}}});
    return a;
}

Axis
Axis::sweepU32(const std::string& field, const std::vector<uint32_t>& values)
{
    std::vector<std::string> vs;
    for (uint32_t v : values)
        vs.push_back(std::to_string(v));
    return sweep(field, vs);
}

std::string
RunSpec::id() const
{
    std::string s;
    for (const auto& [axis, label] : coords) {
        (void)axis;
        if (!s.empty())
            s += '/';
        s += label;
    }
    return s.empty() ? workload.describe() : s;
}

std::string
RunSpec::canonical() const
{
    // Serialize EVERY field. When ArchConfig or WorkloadSpec grows a knob,
    // add it here (and bump the version tag if an old serialization would
    // be ambiguous) — tests/test_sweep.cpp guards the differentiation
    // property for the swept fields.
    const core::ArchConfig& c = config;
    const WorkloadSpec& w = workload;
    std::ostringstream os;
    os << "vortex-run v2\n"; // v2: added sampleInterval
    os << "numThreads = " << c.numThreads << "\n"
       << "numWarps = " << c.numWarps << "\n"
       << "numCores = " << c.numCores << "\n"
       << "coresPerCluster = " << c.coresPerCluster << "\n"
       << "ibufferDepth = " << c.ibufferDepth << "\n"
       << "lsuDepth = " << c.lsuDepth << "\n"
       << "schedPolicy = " << schedPolicyName(c.schedPolicy) << "\n"
       << "lat.alu = " << c.lat.alu << "\n"
       << "lat.mul = " << c.lat.mul << "\n"
       << "lat.div = " << c.lat.div << "\n"
       << "lat.fpu = " << c.lat.fpu << "\n"
       << "lat.fcvt = " << c.lat.fcvt << "\n"
       << "lat.fdiv = " << c.lat.fdiv << "\n"
       << "lat.fsqrt = " << c.lat.fsqrt << "\n"
       << "lat.sfu = " << c.lat.sfu << "\n"
       << "lineSize = " << c.lineSize << "\n"
       << "icacheSize = " << c.icacheSize << "\n"
       << "icacheWays = " << c.icacheWays << "\n"
       << "dcacheSize = " << c.dcacheSize << "\n"
       << "dcacheWays = " << c.dcacheWays << "\n"
       << "dcacheBanks = " << c.dcacheBanks << "\n"
       << "dcachePorts = " << c.dcachePorts << "\n"
       << "mshrEntries = " << c.mshrEntries << "\n"
       << "smemSize = " << c.smemSize << "\n"
       << "smemLatency = " << c.smemLatency << "\n"
       << "l2Enabled = " << c.l2Enabled << "\n"
       << "l2Size = " << c.l2Size << "\n"
       << "l2Banks = " << c.l2Banks << "\n"
       << "l2Ways = " << c.l2Ways << "\n"
       << "l3Enabled = " << c.l3Enabled << "\n"
       << "l3Size = " << c.l3Size << "\n"
       << "l3Banks = " << c.l3Banks << "\n"
       << "l3Ways = " << c.l3Ways << "\n"
       << "mem.latency = " << c.mem.latency << "\n"
       << "mem.lineSize = " << c.mem.lineSize << "\n"
       << "mem.busWidth = " << c.mem.busWidth << "\n"
       << "mem.numChannels = " << c.mem.numChannels << "\n"
       << "mem.queueDepth = " << c.mem.queueDepth << "\n"
       << "texEnabled = " << c.texEnabled << "\n"
       << "startPC = " << c.startPC << "\n"
       << "smemBase = " << c.smemBase << "\n"
       << "sampleInterval = " << c.sampleInterval << "\n";
    // sampleInterval is included even though it cannot change simulation
    // results: a cached record must carry the time series the request
    // asks for, and the series shape depends on the interval.
    os << "workload = "
       << (w.kind == WorkloadSpec::Kind::Rodinia ? "rodinia" : "texture")
       << "\n";
    if (w.kind == WorkloadSpec::Kind::Rodinia)
        os << "kernel = " << w.kernel << "\n"
           << "scale = " << w.scale << "\n";
    else
        os << "texFilter = " << texFilterName(w.texFilter) << "\n"
           << "texHw = " << w.texHw << "\n"
           << "texSize = " << w.texSize << "\n";
    if (!w.program.empty()) {
        // The cache key must change when the FILE CONTENT changes, not
        // just the path — hash the loaded source into the preimage.
        char fnv[17];
        std::snprintf(fnv, sizeof(fnv), "%016llx",
                      static_cast<unsigned long long>(
                          fnv1a(w.programSource)));
        os << "program = " << w.program << "\n"
           << "program.fnv = " << fnv << "\n";
    }
    if (!w.check.empty())
        os << "check = " << w.check << "\n";
    // Fault-injection fields, only when set: a clean run's preimage (and
    // so its cache key) is byte-identical to pre-faults versions, while
    // every distinct injection gets its own key. The watchdog is
    // included because it changes what a long run *returns* (timeout),
    // even though it cannot change a completing run's results.
    if (w.faults.any())
        os << "faults.seed = " << w.faults.seed << "\n"
           << "faults.count = " << w.faults.count << "\n"
           << "faults.window = " << w.faults.window << "\n"
           << "faults.watchdog = " << w.faults.watchdog << "\n";
    return os.str();
}

std::string
RunSpec::contentHash() const
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fnv1a(canonical())));
    return buf;
}

size_t
SweepSpec::runCount() const
{
    size_t n = 1;
    for (const Axis& a : axes)
        n *= a.points.size();
    return n;
}

std::vector<RunSpec>
SweepSpec::expand() const
{
    for (const Axis& a : axes)
        if (a.points.empty())
            fatal("sweep '", name, "': axis '", a.name, "' has no points");

    std::vector<RunSpec> runs;
    runs.reserve(runCount());
    std::vector<size_t> idx(axes.size(), 0);
    while (true) {
        RunSpec r;
        r.config = base;
        r.workload = baseWorkload;
        for (size_t a = 0; a < axes.size(); ++a) {
            const AxisPoint& p = axes[a].points[idx[a]];
            r.coords.emplace_back(axes[a].name, p.label);
            for (const auto& [field, value] : p.sets)
                if (!applyField(r.config, r.workload, field, value))
                    fatal("sweep '", name, "': axis '", axes[a].name,
                          "' point '", p.label, "': unknown field '",
                          field, "'");
        }
        runs.push_back(std::move(r));

        // Row-major increment: the last axis varies fastest.
        size_t a = axes.size();
        while (a > 0) {
            --a;
            if (++idx[a] < axes[a].points.size())
                break;
            idx[a] = 0;
            if (a == 0)
                return runs;
        }
        if (axes.empty())
            return runs;
    }
}

bool
applyField(core::ArchConfig& cfg, WorkloadSpec& wl, const std::string& name,
           const std::string& value)
{
    for (const FieldDef& f : kFields) {
        if (name == f.name) {
            f.apply(cfg, wl, value);
            return true;
        }
    }
    return false;
}

const std::vector<FieldInfo>&
sweepableFields()
{
    static const std::vector<FieldInfo> infos = [] {
        std::vector<FieldInfo> v;
        for (const FieldDef& f : kFields)
            v.push_back(FieldInfo{f.name, f.help});
        return v;
    }();
    return infos;
}

} // namespace vortex::sweep

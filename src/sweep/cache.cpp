/**
 * @file
 * CacheStore implementation: v2 entry I/O, pruning, and cross-directory
 * merge. See cache.h for the on-disk format.
 */

#include "sweep/cache.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/log.h"
#include "sweep/report.h"

namespace vortex::sweep {

namespace {

// v2: "campaign" provenance line + the time-series block. v1 entries
// fail the magic check and simply miss (the run is re-simulated).
// Provenance lines added since (host_seconds, kernel) ride the
// unknown-tag rule and do not bump the version.
constexpr const char* kCacheMagic = "vortex-sweep-cache v2";

/** Mirror of Processor::ipc() so cache-restored records reproduce the
 *  exact double a fresh run reports. */
double
ipcOf(uint64_t threadInstrs, uint64_t cycles)
{
    return cycles == 0 ? 0.0
                       : static_cast<double>(threadInstrs) /
                             static_cast<double>(cycles);
}

/** A per-thread-unique temp-file suffix (rename is the commit point). */
std::string
tmpSuffix()
{
    return ".tmp." + std::to_string(::getpid()) + "." +
           std::to_string(
               std::hash<std::thread::id>{}(std::this_thread::get_id()));
}

/** @p path's mtime as seconds since the Unix epoch (0 on error). */
int64_t
mtimeSeconds(const std::filesystem::path& path)
{
    std::error_code ec;
    auto ftime = std::filesystem::last_write_time(path, ec);
    if (ec)
        return 0;
    // Portable file_clock -> system_clock conversion (no C++20
    // clock_cast dependency): rebase through the two clocks' "now".
    auto sys = std::chrono::time_point_cast<std::chrono::seconds>(
        ftime - std::filesystem::file_time_type::clock::now() +
        std::chrono::system_clock::now());
    return sys.time_since_epoch().count();
}

/**
 * Validate one on-disk entry file: correct magic, a `hash` provenance
 * line equal to @p expectHash (the file's basename), and a complete
 * `end`-terminated payload. Returns false on any defect. When @p info is
 * non-null the entry's provenance lines are read into it on the same
 * pass.
 */
bool
validEntryFile(const std::filesystem::path& path,
               const std::string& expectHash, CacheEntryInfo* info = nullptr)
{
    std::ifstream in(path);
    std::string line;
    if (!in || !std::getline(in, line) || line != kCacheMagic)
        return false;
    bool hashOk = false, complete = false;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string tag;
        ls >> tag;
        if (tag == "hash") {
            std::string h;
            ls >> h;
            hashOk = (h == expectHash);
        } else if (tag == "end") {
            complete = true;
        } else if (!info) {
            continue;
        } else if (tag == "id") {
            std::getline(ls >> std::ws, info->id);
        } else if (tag == "campaign") {
            std::getline(ls >> std::ws, info->campaign);
        } else if (tag == "host_seconds") {
            ls >> info->hostSeconds;
        } else if (tag == "kernel") {
            ls >> info->kernel;
        }
    }
    return hashOk && complete;
}

} // namespace

std::string
CacheStore::entryPath(const std::string& hash) const
{
    return dir_ + "/" + hash + ".run";
}

bool
CacheStore::contains(const std::string& hash) const
{
    if (!enabled())
        return false;
    std::ifstream in(entryPath(hash));
    std::string line;
    return in && std::getline(in, line) && line == kCacheMagic;
}

bool
CacheStore::load(const RunSpec& spec, RunRecord& out) const
{
    if (!enabled())
        return false;
    std::ifstream in(entryPath(spec.contentHash()));
    if (!in)
        return false;

    std::string line;
    if (!std::getline(in, line) || line != kCacheMagic)
        return false;

    RunRecord rec;
    rec.spec = spec;
    rec.fromCache = true;
    rec.result.ok = true;
    bool complete = false;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string tag;
        ls >> tag;
        if (tag == "hash") {
            std::string h;
            ls >> h;
            if (h != spec.contentHash())
                return false; // foreign entry (renamed file?)
        } else if (tag == "cycles") {
            ls >> rec.result.cycles;
        } else if (tag == "thread_instrs") {
            ls >> rec.result.threadInstrs;
        } else if (tag == "stat") {
            std::string key;
            uint64_t value = 0;
            ls >> key >> value;
            rec.stats.counter(key) = value;
        } else if (tag == "sample_interval") {
            ls >> rec.series.interval;
        } else if (tag == "sample_cycles") {
            uint64_t c = 0;
            while (ls >> c)
                rec.series.sampleCycles.push_back(c);
        } else if (tag == "series") {
            std::string key;
            ls >> key;
            rec.series.keys.push_back(key);
            rec.series.deltas.emplace_back();
            uint64_t d = 0;
            while (ls >> d)
                rec.series.deltas.back().push_back(d);
        } else if (tag == "end") {
            complete = true;
        }
    }
    if (!complete)
        return false; // truncated write
    // A well-formed series is rectangular: every delta row as long as the
    // cycle-stamp vector. Treat anything else as corruption -> miss.
    for (const auto& row : rec.series.deltas)
        if (row.size() != rec.series.numSamples())
            return false;
    rec.result.ipc = ipcOf(rec.result.threadInstrs, rec.result.cycles);
    out = std::move(rec);
    return true;
}

void
CacheStore::store(const RunRecord& record,
                  const std::string& campaignName) const
{
    if (!enabled() || !record.result.ok)
        return;
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);

    const std::string hash = record.spec.contentHash();
    const std::string path = entryPath(hash);
    const std::string tmp = path + tmpSuffix();
    {
        std::ofstream outf(tmp, std::ios::trunc);
        if (!outf)
            return; // cache is best-effort; the run still succeeded
        outf << kCacheMagic << "\n";
        outf << "hash " << hash << "\n";
        outf << "id " << record.spec.id() << "\n";
        outf << "campaign " << campaignName << "\n";
        // Provenance, not payload: what the simulation cost this host
        // and which registry kernel it ran (`cache list` prints both).
        // Readers that predate a tag ignore it (unknown-tag rule), so the
        // cache format stays v2.
        outf << "host_seconds " << fmtDouble(record.hostSeconds) << "\n";
        outf << "kernel " << workloadKernelName(record.spec.workload)
             << "\n";
        outf << "cycles " << record.result.cycles << "\n";
        outf << "thread_instrs " << record.result.threadInstrs << "\n";
        for (const auto& [k, v] : record.stats.all())
            outf << "stat " << k << " " << v << "\n";
        if (record.series.interval != 0) {
            outf << "sample_interval " << record.series.interval << "\n";
            outf << "sample_cycles";
            for (uint64_t c : record.series.sampleCycles)
                outf << " " << c;
            outf << "\n";
            for (size_t k = 0; k < record.series.keys.size(); ++k) {
                outf << "series " << record.series.keys[k];
                for (uint64_t d : record.series.deltas[k])
                    outf << " " << d;
                outf << "\n";
            }
        }
        outf << "end\n";
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec)
        std::filesystem::remove(tmp, ec);
}

std::vector<CacheEntryInfo>
CacheStore::entries() const
{
    std::vector<CacheEntryInfo> out;
    if (!enabled())
        return out;
    std::error_code ec;
    for (const auto& de :
         std::filesystem::directory_iterator(dir_, ec)) {
        if (!de.is_regular_file() || de.path().extension() != ".run")
            continue;
        // Same gate as load()/mergeFrom(): magic, hash matching the file
        // name, and a complete `end`-terminated payload — a torn entry
        // from a crash mid-write is invisible here too, not just a miss.
        CacheEntryInfo info;
        info.hash = de.path().stem().string();
        if (!validEntryFile(de.path(), info.hash, &info))
            continue;
        info.mtime = mtimeSeconds(de.path());
        out.push_back(std::move(info));
    }
    std::sort(out.begin(), out.end(),
              [](const CacheEntryInfo& a, const CacheEntryInfo& b) {
                  return a.hash < b.hash;
              });
    return out;
}

size_t
CacheStore::prune(double olderThanDays) const
{
    if (!enabled())
        return 0;
    const int64_t cutoff =
        olderThanDays < 0.0
            ? INT64_MAX // prune everything
            : std::chrono::duration_cast<std::chrono::seconds>(
                  std::chrono::system_clock::now().time_since_epoch())
                      .count() -
                  static_cast<int64_t>(olderThanDays * 86400.0);
    size_t removed = 0;
    std::error_code ec;
    for (const auto& de :
         std::filesystem::directory_iterator(dir_, ec)) {
        if (!de.is_regular_file())
            continue;
        const std::string fname = de.path().filename().string();
        // Sweep leftover temp files from interrupted writes regardless
        // of age; they are never valid entries. Compatibility shim, to
        // be removed on 2027-04-01: also sweep the unused manifest.json
        // index that older builds wrote.
        if (fname.find(".run.tmp.") != std::string::npos ||
            fname == "manifest.json") {
            std::filesystem::remove(de.path(), ec);
            continue;
        }
        if (de.path().extension() != ".run")
            continue;
        // Torn entries (bad magic, wrong hash, missing `end`) are swept
        // regardless of age: load() and mergeFrom() already refuse
        // them, so they are dead weight a crash left behind.
        if (!validEntryFile(de.path(), de.path().stem().string())) {
            std::filesystem::remove(de.path(), ec);
            if (!ec)
                ++removed;
            continue;
        }
        if (mtimeSeconds(de.path()) <= cutoff) {
            std::filesystem::remove(de.path(), ec);
            if (!ec)
                ++removed;
        }
    }
    return removed;
}

CacheMergeStats
CacheStore::mergeFrom(const std::string& srcDir) const
{
    if (!enabled())
        fatal("cache merge: destination store is disabled (no directory)");
    std::error_code ec;
    if (!std::filesystem::is_directory(srcDir, ec))
        fatal("cache merge: source '", srcDir, "' is not a directory");
    if (std::filesystem::weakly_canonical(srcDir, ec) ==
        std::filesystem::weakly_canonical(dir_, ec))
        fatal("cache merge: source and destination are the same "
              "directory '", dir_, "'");
    std::filesystem::create_directories(dir_, ec);

    CacheMergeStats stats;
    // Deterministic import order (directory iteration order is not).
    std::vector<std::filesystem::path> files;
    for (const auto& de :
         std::filesystem::directory_iterator(srcDir, ec)) {
        if (de.is_regular_file() && de.path().extension() == ".run")
            files.push_back(de.path());
    }
    std::sort(files.begin(), files.end());

    for (const std::filesystem::path& src : files) {
        const std::string hash = src.stem().string();
        if (!validEntryFile(src, hash)) {
            warn("cache merge: rejecting invalid entry ", src.string());
            ++stats.rejected;
            continue;
        }
        if (contains(hash)) {
            // Content-addressed: an existing entry for this hash
            // describes the same simulation; keep the local bytes.
            ++stats.skipped;
            continue;
        }
        const std::string dst = entryPath(hash);
        const std::string tmp = dst + tmpSuffix();
        std::filesystem::copy_file(
            src, tmp, std::filesystem::copy_options::overwrite_existing,
            ec);
        if (ec) {
            warn("cache merge: cannot copy ", src.string(), ": ",
                 ec.message());
            ++stats.rejected;
            continue;
        }
        std::filesystem::rename(tmp, dst, ec);
        if (ec) {
            std::filesystem::remove(tmp, ec);
            warn("cache merge: cannot commit ", dst, ": ", ec.message());
            ++stats.rejected;
            continue;
        }
        ++stats.imported;
    }
    return stats;
}

} // namespace vortex::sweep

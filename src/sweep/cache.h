/**
 * @file
 * CacheStore — the campaign result cache as an object.
 *
 * One CacheStore owns one cache directory: entry I/O (load/store of
 * RunRecords keyed by RunSpec::contentHash), pruning, and
 * — the fabric primitive — merge/import of entries from other cache
 * directories. It absorbs the free-function cache API that used to live
 * in campaign.h (removed after one release of deprecated forwarding
 * shims) and the ad-hoc read/write paths that used to live inside
 * Campaign.
 *
 * On-disk format (unchanged from the free-function era — v2, one
 * `<hash>.run` text file per entry):
 *
 *     vortex-sweep-cache v2
 *     hash <contentHash>            # provenance lines ...
 *     id <run id>
 *     campaign <campaign name>
 *     host_seconds <double>
 *     kernel <registry kernel name>  # older entries lack it
 *     cycles <n>                     # ... payload lines
 *     thread_instrs <n>
 *     stat <key> <value>
 *     sample_interval / sample_cycles / series ...   # when sampled
 *     end
 *
 * Readers skip unknown tags, so adding or dropping provenance lines never
 * bumps the version: old binaries still hit on new entries and vice
 * versa (an entry carrying a since-dropped line still loads). Entries are
 * content-addressed — the same hash always describes the same simulation
 * — which is what makes cache directories *mergeable artifacts*: shipping
 * shard caches between hosts and merging them (mergeFrom) reconstructs
 * exactly the records a single host would have produced.
 *
 * All writes are atomic (temp file + rename), so concurrent campaigns —
 * or a campaign and a merge — may share a directory.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sweep/campaign.h"

namespace vortex::sweep {

/** One result-cache entry as listed by CacheStore::entries(). */
struct CacheEntryInfo
{
    std::string hash;     ///< content hash (the file basename)
    std::string id;       ///< run id recorded at store time
    std::string campaign; ///< campaign name recorded at store time
    int64_t mtime = 0;    ///< entry mtime, seconds since the Unix epoch
    double hostSeconds = -1.0; ///< recorded wall-clock (-1 = not recorded)
    std::string kernel;   ///< registry kernel name ("" on old entries)
};

/** Outcome of one CacheStore::mergeFrom call. */
struct CacheMergeStats
{
    size_t imported = 0; ///< entries copied into the destination
    size_t skipped = 0;  ///< already present (same content hash)
    size_t rejected = 0; ///< invalid entries refused (bad magic, foreign
                         ///< hash line, or truncated payload)
};

/**
 * The campaign result cache as an object: owns a directory of
 * content-addressed run entries. A default-constructed (or empty-dir)
 * store is disabled: loads miss, stores are no-ops, maintenance is a
 * no-op. Copyable; holds no open handles between calls.
 */
class CacheStore
{
  public:
    /** A disabled store (no directory). */
    CacheStore() = default;

    /** A store over @p dir (created lazily on first write); an empty
     *  @p dir makes a disabled store. */
    explicit CacheStore(std::string dir) : dir_(std::move(dir)) {}

    /** Whether this store has a directory at all. */
    bool enabled() const { return !dir_.empty(); }

    /** The cache directory ("" when disabled). */
    const std::string& dir() const { return dir_; }

    /** Path of the entry file for @p hash (meaningless when disabled). */
    std::string entryPath(const std::string& hash) const;

    /**
     * Restore the cached record for @p spec into @p out.
     * @return true on a hit: a complete, well-formed entry whose
     *         recorded hash matches @p spec's content hash. Any defect
     *         (missing, truncated, foreign, corrupt series) is a miss,
     *         never an error — the run is simply re-simulated.
     */
    bool load(const RunSpec& spec, RunRecord& out) const;

    /**
     * Store @p record under its spec's content hash, tagged with
     * @p campaignName and the run's provenance (host_seconds, kernel —
     * what `cache list` prints). Only verified
     * (ok) records are stored; writes are atomic and best-effort (a
     * failed write never fails the campaign). No-op when disabled.
     */
    void store(const RunRecord& record,
               const std::string& campaignName) const;

    /** Whether a valid entry for @p hash exists (magic check only — the
     *  cheap scheduler probe that prices a cached run at 0; load() still
     *  arbitrates hits). */
    bool contains(const std::string& hash) const;

    /** All valid entries, sorted by hash (empty when the directory is
     *  missing or the store is disabled). Reads each entry file once. */
    std::vector<CacheEntryInfo> entries() const;

    /**
     * Delete cached records: all of them, or with @p olderThanDays >= 0
     * only those whose mtime is older than that many days. Torn entries
     * — bad magic, hash not matching the file name, missing `end`
     * terminator (a crash mid-write) — are swept regardless of age, as
     * are leftover temp files and the manifest.json older builds wrote
     * (a compatibility shim, to be removed on 2027-04-01).
     * @return the number of records removed.
     */
    size_t prune(double olderThanDays = -1.0) const;

    /**
     * Import every valid entry of @p srcDir into this store — the
     * fabric's "ship cache dirs, not CSVs" primitive. Each source entry
     * is validated (magic line, `hash` provenance line matching the
     * file name, complete `end`-terminated payload) and copied
     * byte-for-byte via temp file + rename; entries whose hash already
     * exists here are skipped (content-addressed: same hash, same
     * simulation). Invalid entries are rejected, counted, and reported
     * on stderr — never imported. Every import is its own atomic
     * rename, so a crash mid-merge leaves a valid store.
     *
     * Merging the caches of shards 0..N-1 of a campaign and re-running
     * the full spec against the merged store is a 100%-hit, byte-
     * identical reconstruction of the single-host outputs (pinned by
     * tests/test_fabric.cpp and the CI `fabric` job).
     *
     * Fatal when @p srcDir does not exist or this store is disabled.
     */
    CacheMergeStats mergeFrom(const std::string& srcDir) const;

  private:
    std::string dir_; ///< cache directory ("" = disabled)
};

} // namespace vortex::sweep

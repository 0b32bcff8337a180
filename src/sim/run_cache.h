/**
 * @file
 * Persistent cross-process run cache. The 19 figure/table harnesses
 * recompute heavily overlapping (workload x config) points — every
 * one of them re-runs the slack-threshold tuning sweep. When the
 * REDSOC_CACHE_DIR environment variable names a directory, SimDriver
 * stores every finished CoreStats there (text format, versioned,
 * atomic rename-on-write) and later processes load instead of
 * resimulating. Entries are keyed by the full run key
 * (workload @ configKey # max_ops) plus a format version; any
 * mismatch, parse error, or truncation falls back to recomputation.
 */

#ifndef REDSOC_SIM_RUN_CACHE_H
#define REDSOC_SIM_RUN_CACHE_H

#include <chrono>
#include <optional>
#include <string>

#include "common/thread_annotations.h"
#include "core/ooo_core.h"
#include "proc/processor.h"

namespace redsoc {

class RunCache
{
  public:
    /** Bump when a serialized stats layout changes or when simulation
     *  semantics shift (v3: byte-accurate multi-store forwarding
     *  changed partial-overlap load timing; v4: run keys carry the
     *  full cache-hierarchy geometry and multi-core ProcStats entries
     *  joined the cache; v5: run keys carry the structural capacities
     *  — ROB/RS/LSQ entries, widths, FU counts, predictor geometry —
     *  so configs differing only structurally no longer alias; v6:
     *  run keys carry the L2 line size, so 64-B and 128-B L2 lines
     *  no longer alias; v7: keys and entries are derived from the
     *  field visitors — every config leaf, doubles at round-trip
     *  precision, so 0.85 and 0.8500001 no longer alias). */
    static constexpr unsigned kFormatVersion = 7;

    /**
     * Opens (and creates if missing) the cache directory. Opening
     * also garbage-collects stale ".tmp-*" staging files left behind
     * by killed processes (kill -9 mid-write): anything older than
     * one hour is removed, so a crashed sweep can never grow the
     * directory without bound.
     */
    explicit RunCache(std::string dir);

    /**
     * Cache named by REDSOC_CACHE_DIR (created if missing), or
     * nullopt when the variable is unset/empty.
     */
    static std::optional<RunCache> fromEnv();

    /** Load the stats stored under @p key; nullopt on miss or any
     *  version/key/parse mismatch (never throws on bad files). */
    std::optional<CoreStats> load(const std::string &key) const;

    /** Persist @p stats under @p key (atomic rename-on-write, safe
     *  against concurrent harnesses sharing the directory). */
    void store(const std::string &key, const CoreStats &stats) const;

    /** Multi-core entries: same contract as load()/store(), separate
     *  ".pstats" namespace. */
    std::optional<ProcStats> loadProc(const std::string &key) const;
    void storeProc(const std::string &key, const ProcStats &stats) const;

    const std::string &dir() const { return dir_; }

    /** Path of the entry file for @p key (testing/inspection). */
    std::string entryPath(const std::string &key) const;

    /** Path of the multi-core entry file for @p key. */
    std::string procEntryPath(const std::string &key) const;

    /**
     * Remove ".tmp-*" staging files in @p dir older than @p max_age
     * (the crash-recovery sweep the constructor runs; exposed for
     * tests). Live writers are untouched: a healthy store() holds
     * its staging file for milliseconds, orders of magnitude under
     * any sane age threshold.
     * @return number of files removed
     */
    static unsigned sweepStaleTmpFiles(const std::string &dir,
                                       std::chrono::seconds max_age);

  private:
    /**
     * Write @p text then publish via atomic rename. Staging files
     * are created in REDSOC_CACHE_TMP_DIR when set (e.g. fast local
     * disk in front of a network cache dir) and otherwise next to
     * the entry; a cross-device rename (EXDEV) falls back to
     * copy-into-cache-dir + same-device rename, so readers still
     * only ever observe absent or complete entries. Every failure
     * path removes its staging file(s).
     */
    void storeText(const std::string &final_path,
                   const std::string &text) const;

    // RunCache holds no mutex by design: dir_ is immutable after
    // construction and all cross-thread/cross-process coordination is
    // delegated to the filesystem — store() writes a unique temp file
    // and publishes it with an atomic std::filesystem::rename, load()
    // treats any torn/mismatched file as a miss. Concurrent harnesses
    // sharing REDSOC_CACHE_DIR therefore need no locking protocol.
    std::string dir_ REDSOC_NOT_GUARDED;
};

/** Text codec for CoreStats (exposed for tests). */
std::string serializeStats(const std::string &key, const CoreStats &stats);
std::optional<CoreStats> deserializeStats(const std::string &text,
                                          const std::string &expect_key);

/** Text codec for multi-core ProcStats: per-core CoreStats blocks in
 *  core-id order followed by the shared-LLC block (exposed for tests
 *  — the determinism harness byte-compares serializations). */
std::string serializeProcStats(const std::string &key,
                               const ProcStats &stats);
std::optional<ProcStats> deserializeProcStats(const std::string &text,
                                              const std::string &expect_key);

/**
 * The equivalence comparator: path of the first field in which two
 * results differ ("cycles", "chain_lengths",
 * "cores.1.commit_checksum", "llc.per_core.0.hits"), or "" when they
 * are identical. Compares exact values of every field the codec
 * carries except the host wall clock, sim_seconds.
 */
std::string firstDifference(CoreStats a, CoreStats b);
std::string firstDifference(ProcStats a, ProcStats b);

} // namespace redsoc

#endif // REDSOC_SIM_RUN_CACHE_H

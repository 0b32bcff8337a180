#include "sim/run_cache.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <thread>

#include "common/bitutils.h"
#include "common/logging.h"

namespace fs = std::filesystem;

namespace redsoc {

namespace {

constexpr const char *kMagic = "redsoc-stats";
constexpr const char *kProcMagic = "redsoc-pstats";

/** Bounds on counts read from disk: more cores or LLC slices, or a
 *  wider histogram, than any run produces marks a corrupt entry. */
constexpr u64 kMaxSlices = 1024;
constexpr u64 kMaxHistSample = 1'000'000;

/** Path of element @p i of the vector at @p path. */
std::string
elementPath(const std::string &path, size_t i)
{
    std::string out = path;
    out += '.';
    appendLeaf(out, i);
    return out;
}

/**
 * Stats body writer, one "path value" line per visitor leaf. A
 * vector writes "path size", then each element's leaves under
 * "path.i"; a histogram writes "path max_sample count sum sum_sq"
 * and its buckets on one line.
 */
struct LineWriter
{
    std::string &out;

    template <class M>
    void operator()(const std::string &path, const M &m) const
    {
        out += path;
        if constexpr (kIsVector<M>) {
            put(m.size());
            out += '\n';
            for (size_t i = 0; i < m.size(); ++i) {
                std::string elem = elementPath(path, i);
                forEachLeaf(m[i], *this, elem);
            }
            return;
        } else if constexpr (std::is_same_v<M, Histogram>) {
            put(m.maxSample());
            put(m.count());
            put(m.total());
            put(m.sumSquares());
            for (u64 b : m.rawBuckets())
                put(b);
        } else {
            put(m);
        }
        out += '\n';
    }

    template <class V>
    void put(const V &v) const
    {
        out += ' ';
        appendLeaf(out, v);
    }
};

/** Whitespace-separated tokens of an entry. */
class Tokens
{
  public:
    explicit Tokens(std::string_view text) : rest_(text) {}

    /** Next token ("" at the end). */
    std::string_view next()
    {
        const size_t begin = rest_.find_first_not_of(kSpace);
        if (begin == std::string_view::npos) {
            rest_ = {};
            return {};
        }
        rest_.remove_prefix(begin);
        const size_t end =
            std::min(rest_.find_first_of(kSpace), rest_.size());
        const std::string_view tok = rest_.substr(0, end);
        rest_.remove_prefix(end);
        return tok;
    }

    /** The rest of the current line, less its one separator space. */
    std::string_view restOfLine()
    {
        const size_t end = std::min(rest_.find('\n'), rest_.size());
        std::string_view line = rest_.substr(0, end);
        rest_.remove_prefix(std::min(end + 1, rest_.size()));
        if (!line.empty() && line.front() == ' ')
            line.remove_prefix(1);
        return line;
    }

    template <class T>
    bool value(T &v)
    {
        return parseLeaf(next(), v);
    }

  private:
    static constexpr std::string_view kSpace = " \t\r\n";
    std::string_view rest_;
};

/** Reads back exactly what LineWriter wrote: every tag must be the
 *  path the visitor expects next. @c ok drops on the first fault. */
struct LineReader
{
    Tokens &in;
    bool &ok;

    template <class M>
    void operator()(const std::string &path, M &m) const
    {
        if (!ok || in.next() != path) {
            ok = false;
            return;
        }
        if constexpr (kIsVector<M>) {
            u64 n = 0;
            if (!in.value(n) || n > kMaxSlices) {
                ok = false;
                return;
            }
            m.resize(n);
            for (size_t i = 0; i < n && ok; ++i) {
                std::string elem = elementPath(path, i);
                forEachLeaf(m[i], *this, elem);
            }
        } else if constexpr (std::is_same_v<M, Histogram>) {
            u64 max_sample = 0, count = 0, sum = 0, sum_sq = 0;
            if (!in.value(max_sample) || !in.value(count) ||
                !in.value(sum) || !in.value(sum_sq) ||
                max_sample > kMaxHistSample) {
                ok = false;
                return;
            }
            std::vector<u64> buckets(max_sample + 1, 0);
            for (u64 &b : buckets)
                if (!in.value(b)) {
                    ok = false;
                    return;
                }
            m = Histogram::fromRaw(max_sample, std::move(buckets), count,
                                   sum, sum_sq);
        } else {
            ok = in.value(m);
        }
    }
};

template <class T>
std::string
bodyText(const T &stats)
{
    std::string out;
    forEachLeaf(stats, LineWriter{out});
    return out;
}

/** "vN" for the current format version. */
std::string
versionTag()
{
    std::string tag = "v";
    appendLeaf(tag, RunCache::kFormatVersion);
    return tag;
}

/** "<magic> vN", "key <key>", the body, "end". */
template <class T>
std::string
serializeEntry(const char *magic, const std::string &key, const T &stats)
{
    std::string out = magic;
    out += ' ';
    out += versionTag();
    out += "\nkey ";
    out += key;
    out += '\n';
    forEachLeaf(stats, LineWriter{out});
    out += "end\n";
    return out;
}

/** nullopt on a wrong magic, version or key (an empty @p expect_key
 *  accepts any), a body that does not match the visitor, or a
 *  missing "end" (a truncated write). */
template <class T>
std::optional<T>
deserializeEntry(const char *magic, const std::string &text,
                 const std::string &expect_key)
{
    Tokens in(text);
    if (in.next() != magic || in.next() != versionTag() ||
        in.next() != "key")
        return std::nullopt;
    const std::string_view key = in.restOfLine();
    if (!expect_key.empty() && key != expect_key)
        return std::nullopt; // hash collision or stale rename
    T stats;
    bool ok = true;
    forEachLeaf(stats, LineReader{in, ok});
    if (!ok || in.next() != "end")
        return std::nullopt;
    return stats;
}

/** Tag of the first line in which two bodies differ ("" if none). */
std::string
firstDifferingLine(std::string_view a, std::string_view b)
{
    while (!a.empty() || !b.empty()) {
        const std::string_view la = a.substr(0, a.find('\n'));
        const std::string_view lb = b.substr(0, b.find('\n'));
        if (la != lb) {
            const std::string_view line = la.empty() ? lb : la;
            return std::string(line.substr(0, line.find(' ')));
        }
        a.remove_prefix(std::min(la.size() + 1, a.size()));
        b.remove_prefix(std::min(lb.size() + 1, b.size()));
    }
    return "";
}

} // namespace

std::string
serializeStats(const std::string &key, const CoreStats &stats)
{
    return serializeEntry(kMagic, key, stats);
}

std::optional<CoreStats>
deserializeStats(const std::string &text, const std::string &expect_key)
{
    return deserializeEntry<CoreStats>(kMagic, text, expect_key);
}

std::string
serializeProcStats(const std::string &key, const ProcStats &stats)
{
    return serializeEntry(kProcMagic, key, stats);
}

std::optional<ProcStats>
deserializeProcStats(const std::string &text,
                     const std::string &expect_key)
{
    return deserializeEntry<ProcStats>(kProcMagic, text, expect_key);
}

std::string
firstDifference(CoreStats a, CoreStats b)
{
    a.sim_seconds = 0.0;
    b.sim_seconds = 0.0;
    return firstDifferingLine(bodyText(a), bodyText(b));
}

std::string
firstDifference(ProcStats a, ProcStats b)
{
    for (CoreStats &c : a.cores)
        c.sim_seconds = 0.0;
    for (CoreStats &c : b.cores)
        c.sim_seconds = 0.0;
    return firstDifferingLine(bodyText(a), bodyText(b));
}

RunCache::RunCache(std::string dir) : dir_(std::move(dir))
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec)
        warn("run cache: cannot create '", dir_, "': ", ec.message());

    // Crash recovery: a process killed between staging-file creation
    // and the publishing rename (SIGKILL, OOM, power) leaks its
    // ".tmp-*" file forever — no later run ever touches that unique
    // name. Sweep anything old enough that its writer must be dead.
    const std::chrono::seconds ttl{3600};
    const unsigned removed = sweepStaleTmpFiles(dir_, ttl);
    if (const char *tmp_dir = std::getenv("REDSOC_CACHE_TMP_DIR")) {
        if (*tmp_dir != '\0' && tmp_dir != dir_)
            sweepStaleTmpFiles(tmp_dir, ttl);
    }
    if (removed > 0) {
        inform("run cache: swept ", removed,
               " stale staging file(s) from '", dir_, "'");
    }
}

unsigned
RunCache::sweepStaleTmpFiles(const std::string &dir,
                             std::chrono::seconds max_age)
{
    unsigned removed = 0;
    std::error_code ec;
    const auto now = fs::file_time_type::clock::now();
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind(".tmp-", 0) != 0)
            continue;
        std::error_code fec;
        const auto mtime = fs::last_write_time(entry.path(), fec);
        if (fec)
            continue; // raced with its writer's own rename/remove
        if (now - mtime < max_age)
            continue; // plausibly still being written
        if (fs::remove(entry.path(), fec) && !fec)
            ++removed;
    }
    return removed;
}

std::optional<RunCache>
RunCache::fromEnv()
{
    const char *dir = std::getenv("REDSOC_CACHE_DIR");
    if (dir == nullptr || *dir == '\0')
        return std::nullopt;
    return RunCache(dir);
}

std::string
RunCache::entryPath(const std::string &key) const
{
    char name[32];
    std::snprintf(name, sizeof(name), "%016llx.stats",
                  static_cast<unsigned long long>(fnv1a64(key)));
    return (fs::path(dir_) / name).string();
}

std::optional<CoreStats>
RunCache::load(const std::string &key) const
{
    std::ifstream in(entryPath(key), std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream text;
    text << in.rdbuf();
    return deserializeStats(text.str(), key);
}

void
RunCache::store(const std::string &key, const CoreStats &stats) const
{
    storeText(entryPath(key), serializeStats(key, stats));
}

std::string
RunCache::procEntryPath(const std::string &key) const
{
    char name[32];
    std::snprintf(name, sizeof(name), "%016llx.pstats",
                  static_cast<unsigned long long>(fnv1a64(key)));
    return (fs::path(dir_) / name).string();
}

std::optional<ProcStats>
RunCache::loadProc(const std::string &key) const
{
    std::ifstream in(procEntryPath(key), std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream text;
    text << in.rdbuf();
    return deserializeProcStats(text.str(), key);
}

void
RunCache::storeProc(const std::string &key, const ProcStats &stats) const
{
    storeText(procEntryPath(key), serializeProcStats(key, stats));
}

void
RunCache::storeText(const std::string &final_path,
                    const std::string &text) const
{
    std::ostringstream tmp_name;
    tmp_name << ".tmp-" << ::getpid() << '-'
             << std::this_thread::get_id() << '-'
             << (fnv1a64(final_path) & 0xffff);
    fs::path tmp_dir(dir_);
    if (const char *env = std::getenv("REDSOC_CACHE_TMP_DIR")) {
        if (*env != '\0')
            tmp_dir = env;
    }
    const fs::path tmp_path = tmp_dir / tmp_name.str();

    std::error_code ec;
    bool wrote = false;
    {
        std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
        if (!out) {
            warn("run cache: cannot write '", tmp_path.string(), "'");
            return;
        }
        out << text;
        out.flush();
        wrote = out.good();
    }
    if (!wrote) {
        // Short write (disk full, quota): the entry is dropped, but
        // the staging file must not leak — it would otherwise sit in
        // the directory forever under its unique name.
        warn("run cache: short write to '", tmp_path.string(),
             "' (entry dropped)");
        fs::remove(tmp_path, ec);
        return;
    }

    // Atomic publish: readers only ever see absent or complete files,
    // and the last concurrent writer of an identical point wins.
    fs::rename(tmp_path, final_path, ec);
    if (!ec)
        return;
    if (ec == std::errc::cross_device_link) {
        // REDSOC_CACHE_TMP_DIR on a different filesystem than the
        // cache directory: rename(2) cannot cross devices. Bridge by
        // copying into the cache directory under another unique
        // ".tmp-*" name (covered by the stale sweep if we die here),
        // then publish with a same-device — and therefore again
        // atomic — rename.
        const fs::path bridge =
            fs::path(final_path).parent_path() / (tmp_name.str() + "-x");
        std::error_code cec;
        fs::copy_file(tmp_path, bridge,
                      fs::copy_options::overwrite_existing, cec);
        if (!cec)
            fs::rename(bridge, final_path, cec);
        if (cec) {
            warn("run cache: cross-device publish of '", final_path,
                 "': ", cec.message());
            fs::remove(bridge, cec);
        }
        fs::remove(tmp_path, ec);
        return;
    }
    warn("run cache: rename to '", final_path, "': ", ec.message());
    fs::remove(tmp_path, ec);
}

} // namespace redsoc

/**
 * @file
 * One declaration per field. Every config and stats struct lists its
 * members once, in a REDSOC_FIELDS visitor next to its definition;
 * the run-cache key, the stats codec, the fuzz fixture's config line,
 * the StatGroup export and the equivalence comparator are all walks
 * over that list (DESIGN.md §7).
 *
 * The compiler checks the list is complete: next to the visitor the
 * macro emits a structured binding of exactly the listed arity, so a
 * member added to the struct but not to its list fails the build
 * ("only N names provided for structured binding"). Members are
 * visited by name, so the list order (which is the text order of
 * keys and codecs) need not follow the declaration order.
 */

#ifndef REDSOC_COMMON_FIELDS_H
#define REDSOC_COMMON_FIELDS_H

#include <algorithm>
#include <charconv>
#include <concepts>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace redsoc {

// Preprocessor for-each over a member list (C++20 __VA_OPT__
// recursion; 256 rescans bound the list length).
#define REDSOC_FIELDS_PARENS ()
#define REDSOC_FIELDS_EXPAND(...)                                      \
    REDSOC_FIELDS_EXPAND3(REDSOC_FIELDS_EXPAND3(                       \
        REDSOC_FIELDS_EXPAND3(REDSOC_FIELDS_EXPAND3(__VA_ARGS__))))
#define REDSOC_FIELDS_EXPAND3(...)                                     \
    REDSOC_FIELDS_EXPAND2(REDSOC_FIELDS_EXPAND2(                       \
        REDSOC_FIELDS_EXPAND2(REDSOC_FIELDS_EXPAND2(__VA_ARGS__))))
#define REDSOC_FIELDS_EXPAND2(...)                                     \
    REDSOC_FIELDS_EXPAND1(REDSOC_FIELDS_EXPAND1(                       \
        REDSOC_FIELDS_EXPAND1(REDSOC_FIELDS_EXPAND1(__VA_ARGS__))))
#define REDSOC_FIELDS_EXPAND1(...) __VA_ARGS__

#define REDSOC_FIELDS_CALLS(...)                                       \
    __VA_OPT__(REDSOC_FIELDS_EXPAND(REDSOC_FIELDS_CALL(__VA_ARGS__)))
#define REDSOC_FIELDS_CALL(m, ...)                                     \
    f(#m, s.m);                                                        \
    __VA_OPT__(REDSOC_FIELDS_CALL_AGAIN REDSOC_FIELDS_PARENS(__VA_ARGS__))
#define REDSOC_FIELDS_CALL_AGAIN() REDSOC_FIELDS_CALL

#define REDSOC_FIELDS_BINDS(m, ...)                                    \
    m##_ __VA_OPT__(REDSOC_FIELDS_EXPAND(REDSOC_FIELDS_BIND(__VA_ARGS__)))
#define REDSOC_FIELDS_BIND(m, ...)                                     \
    , m##_ __VA_OPT__(REDSOC_FIELDS_BIND_AGAIN REDSOC_FIELDS_PARENS(__VA_ARGS__))
#define REDSOC_FIELDS_BIND_AGAIN() REDSOC_FIELDS_BIND

/**
 * Declare `visitFields(s, f)` for @p Type: calls f("member", s.member)
 * for every listed member, in list order, on a Type or const Type.
 * The list must name every non-static data member; the non-template
 * fieldsArityCheck makes every file that includes the declaration
 * check that.
 */
#define REDSOC_FIELDS(Type, ...)                                       \
    inline void fieldsArityCheck(const Type &s)                        \
    {                                                                  \
        [[maybe_unused]] auto &[REDSOC_FIELDS_BINDS(__VA_ARGS__)] = s; \
    }                                                                  \
    template <class S, class F>                                        \
        requires std::same_as<std::remove_const_t<S>, Type>            \
    void visitFields(S &s, F &&f)                                      \
    {                                                                  \
        REDSOC_FIELDS_CALLS(__VA_ARGS__)                               \
    }

namespace fields_detail {
struct IgnoreField
{
    template <class M>
    void operator()(const char *, M &) const
    {
    }
};
} // namespace fields_detail

/** A struct with a REDSOC_FIELDS visitor. */
template <class T>
concept Visitable = requires(T &t) {
    visitFields(t, fields_detail::IgnoreField{});
};

/** A vector member (per-core stats slices) reaches forEachLeaf's
 *  callback as one leaf; the codec steps into its elements. */
template <class T>
inline constexpr bool kIsVector = false;
template <class T>
inline constexpr bool kIsVector<std::vector<T>> = true;

/**
 * Call f(path, leaf) for every leaf of @p obj in visitor order.
 * Nested visitable structs are walked, not passed: their leaves get
 * dotted paths ("memory.l1.size_bytes"). @p path is the prefix and a
 * reused buffer; it is restored on return.
 */
template <class T, class F>
void
forEachLeaf(T &obj, F &&f, std::string &path)
{
    visitFields(obj, [&](const char *name, auto &member) {
        const size_t mark = path.size();
        if (mark != 0)
            path += '.';
        path += name;
        if constexpr (Visitable<std::remove_cvref_t<decltype(member)>>)
            forEachLeaf(member, f, path);
        else
            f(std::as_const(path), member);
        path.resize(mark);
    });
}

template <class T, class F>
void
forEachLeaf(T &obj, F &&f)
{
    std::string path;
    forEachLeaf(obj, f, path);
}

/**
 * Append the text of one leaf: integers in decimal, bools as 0/1,
 * doubles in the shortest form that round-trips exactly, enums by
 * their enumText() name, strings verbatim.
 */
template <class T>
void
appendLeaf(std::string &out, const T &v)
{
    if constexpr (std::is_same_v<T, std::string>) {
        out += v;
    } else if constexpr (std::is_same_v<T, bool>) {
        out += v ? '1' : '0';
    } else if constexpr (std::is_enum_v<T>) {
        out += enumText(v);
    } else {
        static_assert(std::is_arithmetic_v<T>, "not a leaf type");
        char buf[32];
        const auto res = std::to_chars(buf, buf + sizeof(buf), v);
        out.append(buf, res.ptr);
    }
}

/** Inverse of appendLeaf; false (and @p v unspecified) unless the
 *  whole of @p text is one valid value of the leaf's type. */
template <class T>
bool
parseLeaf(std::string_view text, T &v)
{
    if constexpr (std::is_same_v<T, std::string>) {
        v.assign(text);
        return !text.empty();
    } else if constexpr (std::is_same_v<T, bool>) {
        v = text == "1";
        return text == "0" || text == "1";
    } else if constexpr (std::is_enum_v<T>) {
        return parseEnum(text, v);
    } else {
        static_assert(std::is_arithmetic_v<T>, "not a leaf type");
        const char *end = text.data() + text.size();
        const auto res = std::from_chars(text.data(), end, v);
        return res.ec == std::errc() && res.ptr == end && !text.empty();
    }
}

/**
 * "path=value" for every leaf of @p obj, space-separated: the
 * run-cache key of a config and the fuzz fixture's config line.
 */
template <class T>
std::string
fieldsText(const T &obj)
{
    std::string out;
    forEachLeaf(obj, [&out](const std::string &path, const auto &leaf) {
        if (!out.empty())
            out += ' ';
        out += path;
        out += '=';
        appendLeaf(out, leaf);
    });
    return out;
}

/**
 * Inverse of fieldsText: assign every leaf of @p obj from
 * whitespace-separated "path=value" tokens, in any order. Returns ""
 * on success, else the first problem: a token that is not
 * path=value, a repeated or unknown path, a missing leaf, or a value
 * that does not parse.
 */
template <class T>
std::string
parseFieldsText(std::string_view text, T &obj)
{
    std::map<std::string, std::string, std::less<>> kv;
    const std::string_view ws = " \t\r\n";
    for (size_t pos = text.find_first_not_of(ws);
         pos != std::string_view::npos;
         pos = text.find_first_not_of(ws, pos)) {
        const size_t end = std::min(text.find_first_of(ws, pos),
                                    text.size());
        const std::string_view tok = text.substr(pos, end - pos);
        pos = end;
        const size_t eq = tok.find('=');
        if (eq == std::string_view::npos || eq == 0)
            return "expected path=value, got '" + std::string(tok) + "'";
        if (!kv.emplace(tok.substr(0, eq), tok.substr(eq + 1)).second)
            return "repeated '" + std::string(tok.substr(0, eq)) + "'";
    }
    std::string err;
    forEachLeaf(obj, [&](const std::string &path, auto &leaf) {
        if (!err.empty())
            return;
        const auto it = kv.find(path);
        if (it == kv.end()) {
            err = "missing '" + path + "'";
            return;
        }
        if (!parseLeaf(it->second, leaf))
            err = "bad value '" + it->second + "' for '" + path + "'";
        kv.erase(it);
    });
    if (err.empty() && !kv.empty())
        err = "unknown key '" + kv.begin()->first + "'";
    return err;
}

/** Assign one leaf from a "path=value" token (redsoc_sim --set, the
 *  fuzz minimizer's resets). Returns "" on success, else the
 *  problem: no '=', an unknown path or a value that does not parse. */
template <class T>
std::string
setLeaf(T &obj, std::string_view token)
{
    const size_t eq = token.find('=');
    if (eq == std::string_view::npos || eq == 0)
        return "expected PATH=VALUE, got '" + std::string(token) + "'";
    const std::string_view path = token.substr(0, eq);
    const std::string_view text = token.substr(eq + 1);
    std::string err = "unknown path '" + std::string(path) + "'";
    forEachLeaf(obj, [&](const std::string &p, auto &leaf) {
        if (p == path)
            err = parseLeaf(text, leaf) ? ""
                                        : "bad value '" +
                                              std::string(text) +
                                              "' for '" + p + "'";
    });
    return err;
}

/**
 * Builds a config struct's configError(): "" or the first problem,
 * "path=value: must be RULE" with the leaf's visitor path. The
 * constructor runs each nested struct's configError() (member name
 * prefixed to its paths); require() checks leaves in call order.
 */
template <class C>
class RangeCheck
{
  public:
    explicit RangeCheck(const C &config) : config_(config)
    {
        visitFields(config, [this](const char *name, const auto &m) {
            if constexpr (Visitable<std::remove_cvref_t<decltype(m)>>)
                if (error_.empty() && !configError(m).empty())
                    error_ = name + ("." + configError(m));
        });
    }

    /** Unless @p ok, name @p leaf (found by address) and @p rule. */
    template <class M>
    RangeCheck &require(const M &leaf, bool ok, std::string_view rule)
    {
        if (ok || !error_.empty())
            return *this;
        forEachLeaf(config_, [&](const std::string &path, const auto &m) {
            if (static_cast<const void *>(&m) == &leaf) {
                error_ = path + '=';
                appendLeaf(error_, leaf);
            }
        });
        panic_if(error_.empty(), "require() on a non-leaf: ", rule);
        error_ += ": must be ";
        error_ += rule;
        return *this;
    }

    std::string error() const { return error_; }

  private:
    const C &config_;
    std::string error_;
};

/** @p config, after a fatal() naming its first configError() problem:
 *  a constructor's first member initializer, so nothing is built. */
template <class C>
C
checkedConfig(C config, const char *what)
{
    const std::string err = configError(config);
    fatal_if(!err.empty(), "bad ", what, " config: ", err);
    return config;
}

} // namespace redsoc

#endif // REDSOC_COMMON_FIELDS_H

/**
 * @file
 * The redsoc_lint rule set (R1-R8). Every rule walks the token
 * stream produced by lexer.cc; see lint.h for the rule catalogue and
 * the reasoning behind each.
 */

#include "lint.h"

#include <algorithm>
#include <cctype>

namespace redsoc::lint {

namespace {

bool
isIdent(const Token &t, const char *s)
{
    return t.kind == TokKind::Ident && t.text == s;
}

bool
isPunct(const Token &t, const char *s)
{
    return t.kind == TokKind::Punct && t.text == s;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

/** Identifier that plausibly names a cycle/tick quantity. */
bool
cycleIsh(const Token &t)
{
    if (t.kind != TokKind::Ident)
        return false;
    std::string low;
    low.reserve(t.text.size());
    for (char c : t.text)
        low.push_back(
            static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    return low.find("cycle") != std::string::npos ||
           low.find("tick") != std::string::npos;
}

/** Integer type names narrower than 64 bits. */
bool
narrowIntType(const std::string &s)
{
    static const std::set<std::string> kNarrow = {
        "int",     "unsigned", "short",    "u8",      "u16",
        "u32",     "s8",       "s16",      "s32",     "uint8_t",
        "uint16_t", "uint32_t", "int8_t",  "int16_t", "int32_t"};
    return kNarrow.count(s) != 0;
}

/** Index of the matching closer for the opener at @p open. */
size_t
matchDelim(const std::vector<Token> &t, size_t open, const char *o,
           const char *c)
{
    int depth = 0;
    for (size_t i = open; i < t.size(); ++i) {
        if (isPunct(t[i], o))
            ++depth;
        else if (isPunct(t[i], c) && --depth == 0)
            return i;
    }
    return t.size();
}

void
emit(const SourceFile &sf, int line, const char *rule,
     std::string message, std::vector<Finding> &out)
{
    if (sf.allowed(line, rule))
        return;
    out.push_back(Finding{sf.path, line, rule, std::move(message)});
}

// -------------------------------------------------------------------
// Struct parsing (R1)
// -------------------------------------------------------------------

/** Keywords that mark a member statement as not-an-instance-field. */
bool
nonFieldLeader(const std::string &s)
{
    return s == "static" || s == "using" || s == "typedef" ||
           s == "friend" || s == "static_assert" || s == "virtual" ||
           s == "explicit" || s == "operator" || s == "template" ||
           s == "public" || s == "private" || s == "protected";
}

/**
 * Parse the body of one struct/class starting at the '{' at @p open;
 * returns the index just past the matching '}'. Nested struct/class
 * definitions recurse into @p all.
 */
size_t
parseStructBody(const SourceFile &sf, size_t open, StructInfo &info,
                std::vector<StructInfo> &all);

/**
 * Handle a "struct"/"class" keyword at @p i. Returns the index to
 * resume scanning from. Only definitions (with a body) produce a
 * StructInfo; forward declarations and elaborated type specifiers
 * ("struct Foo x;") are skipped.
 */
size_t
parseStructAt(const SourceFile &sf, size_t i,
              std::vector<StructInfo> &all)
{
    const auto &t = sf.toks;
    size_t j = i + 1;
    std::string name;
    int line = t[i].line;
    if (j < t.size() && t[j].kind == TokKind::Ident) {
        name = t[j].text;
        line = t[j].line;
        ++j;
    }
    // Skip a base-clause up to the opening brace.
    while (j < t.size() && !isPunct(t[j], "{") && !isPunct(t[j], ";") &&
           !isPunct(t[j], ")"))
        ++j;
    if (j >= t.size() || !isPunct(t[j], "{"))
        return j; // forward declaration / parameter / return type
    StructInfo info;
    info.name = name;
    info.line = line;
    size_t end = parseStructBody(sf, j, info, all);
    all.push_back(std::move(info));
    return end;
}

size_t
parseStructBody(const SourceFile &sf, size_t open, StructInfo &info,
                std::vector<StructInfo> &all)
{
    const auto &t = sf.toks;
    const size_t close = matchDelim(t, open, "{", "}");
    size_t i = open + 1;
    while (i < close) {
        const Token &tok = t[i];
        if (isPunct(tok, ";")) {
            ++i;
            continue;
        }
        if (isIdent(tok, "struct") || isIdent(tok, "class")) {
            i = parseStructAt(sf, i, all);
            // Skip any declarator between the nested body and ';'.
            while (i < close && !isPunct(t[i], ";"))
                ++i;
            continue;
        }
        if (isIdent(tok, "enum")) {
            size_t j = i;
            while (j < close && !isPunct(t[j], "{") &&
                   !isPunct(t[j], ";"))
                ++j;
            if (j < close && isPunct(t[j], "{"))
                j = matchDelim(t, j, "{", "}");
            while (j < close && !isPunct(t[j], ";"))
                ++j;
            i = j + 1;
            continue;
        }
        if (tok.kind == TokKind::Ident && nonFieldLeader(tok.text)) {
            // Skip the whole member (to ';' at this depth, or past a
            // function/initializer body).
            size_t j = i;
            while (j < close) {
                if (isPunct(t[j], "{")) {
                    j = matchDelim(t, j, "{", "}") + 1;
                    if (j < close && isPunct(t[j], ";"))
                        ++j;
                    break;
                }
                if (isPunct(t[j], ";")) {
                    ++j;
                    break;
                }
                ++j;
            }
            i = j;
            continue;
        }
        if (isPunct(tok, "~")) { // destructor
            size_t j = i;
            while (j < close && !isPunct(t[j], "{") &&
                   !isPunct(t[j], ";"))
                ++j;
            if (j < close && isPunct(t[j], "{"))
                j = matchDelim(t, j, "{", "}");
            i = j + 1;
            continue;
        }

        // A data member or a function. Scan forward classifying by
        // the first structural token: '(' => function (skip it and
        // its body if any), '=' => initialized member, '{' preceded
        // by the declarator => brace-initialized member (unless the
        // '{' follows ')' / const / noexcept — then a function body),
        // ';' => member without initializer.
        size_t j = i;
        bool initialized = false;
        bool is_function = false;
        size_t name_end = close; ///< token index of terminator
        int angle = 0;
        while (j < close) {
            const Token &c = t[j];
            if (c.kind == TokKind::Ident &&
                c.text.rfind("REDSOC_", 0) == 0) {
                // Thread-safety annotation macro: its paren group is
                // not a function parameter list.
                if (j + 1 < close && isPunct(t[j + 1], "("))
                    j = matchDelim(t, j + 1, "(", ")");
                ++j;
                continue;
            }
            if (isIdent(c, "operator")) {
                // "T &operator=(...)": the '=' in the name is not a
                // field initializer.
                is_function = true;
                while (j < close && !isPunct(t[j], ";")) {
                    if (isPunct(t[j], "{")) {
                        j = matchDelim(t, j, "{", "}") + 1;
                        break;
                    }
                    ++j;
                }
                if (j < close && isPunct(t[j], ";"))
                    ++j;
                break;
            }
            if (isPunct(c, "<"))
                ++angle;
            else if (isPunct(c, ">") && angle > 0)
                --angle;
            else if (angle == 0 && isPunct(c, "(")) {
                is_function = true;
                j = matchDelim(t, j, "(", ")") + 1;
                // Trailing specifiers then body or ';'.
                while (j < close && !isPunct(t[j], "{") &&
                       !isPunct(t[j], ";") && !isPunct(t[j], "="))
                    ++j;
                if (j < close && isPunct(t[j], "="))
                    // "= default/delete/0" — still a function.
                    while (j < close && !isPunct(t[j], ";"))
                        ++j;
                if (j < close && isPunct(t[j], "{"))
                    j = matchDelim(t, j, "{", "}");
                ++j;
                break;
            } else if (angle == 0 && isPunct(c, "=")) {
                initialized = true;
                name_end = j;
                while (j < close && !isPunct(t[j], ";")) {
                    if (isPunct(t[j], "{"))
                        j = matchDelim(t, j, "{", "}");
                    ++j;
                }
                ++j;
                break;
            } else if (angle == 0 && isPunct(c, "{")) {
                initialized = true;
                name_end = j;
                j = matchDelim(t, j, "{", "}") + 1;
                while (j < close && !isPunct(t[j], ";"))
                    ++j;
                ++j;
                break;
            } else if (angle == 0 && isPunct(c, ";")) {
                name_end = j;
                ++j;
                break;
            }
            ++j;
        }
        if (!is_function && name_end > i && name_end < close) {
            // Declarator name: last identifier before the terminator,
            // skipping array extents and bitfield widths.
            size_t k = name_end;
            std::string fname;
            int fline = t[i].line;
            while (k > i) {
                --k;
                if (isPunct(t[k], ")")) {
                    // Skip an annotation's argument group backwards.
                    int pd = 1;
                    while (k > i && pd > 0) {
                        --k;
                        if (isPunct(t[k], ")"))
                            ++pd;
                        else if (isPunct(t[k], "("))
                            --pd;
                    }
                    continue;
                }
                if (t[k].kind == TokKind::Ident &&
                    t[k].text.rfind("REDSOC_", 0) == 0)
                    continue;
                if (t[k].kind == TokKind::Ident) {
                    fname = t[k].text;
                    fline = t[k].line;
                    break;
                }
            }
            if (!fname.empty())
                info.fields.push_back(
                    FieldInfo{fname, fline, initialized});
        }
        i = (j > i) ? j : i + 1;
    }
    return close + 1;
}

} // namespace

std::vector<StructInfo>
parseStructs(const SourceFile &sf)
{
    std::vector<StructInfo> all;
    const auto &t = sf.toks;
    for (size_t i = 0; i < t.size();) {
        if (isIdent(t[i], "struct") || isIdent(t[i], "class")) {
            // Only treat as a definition opener at top level or in a
            // namespace/struct: parseStructAt handles the rest.
            i = parseStructAt(sf, i, all);
        } else {
            ++i;
        }
    }
    return all;
}

// -------------------------------------------------------------------
// R1: init-field
// -------------------------------------------------------------------

void
ruleInitField(const SourceFile &sf, std::vector<Finding> &out)
{
    for (const StructInfo &s : parseStructs(sf)) {
        if (!endsWith(s.name, "Config") && !endsWith(s.name, "Stats"))
            continue;
        for (const FieldInfo &f : s.fields) {
            if (f.initialized)
                continue;
            emit(sf, f.line, "init-field",
                 "field '" + s.name + "::" + f.name +
                     "' has no in-class initializer; every *Config/"
                     "*Stats field must be deterministically "
                     "initialized",
                 out);
        }
    }
}

// -------------------------------------------------------------------
// R2: nondet-api
// -------------------------------------------------------------------

void
ruleNondetApi(const SourceFile &sf, std::vector<Finding> &out)
{
    static const std::set<std::string> kBannedCalls = {
        "rand",   "srand",   "rand_r",      "drand48", "lrand48",
        "random", "time",    "clock",       "gettimeofday",
        "getrandom"};
    const auto &t = sf.toks;
    for (size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokKind::Ident)
            continue;
        if (t[i].text == "random_device") {
            emit(sf, t[i].line, "nondet-api",
                 "std::random_device is nondeterministic across runs; "
                 "use redsoc::Rng with a fixed seed",
                 out);
            continue;
        }
        if (!kBannedCalls.count(t[i].text))
            continue;
        if (i + 1 >= t.size() || !isPunct(t[i + 1], "("))
            continue;
        // Member calls (obj.time(...)) are fine; std:: / global
        // qualification is the banned C API.
        if (i > 0 && (isPunct(t[i - 1], ".") || isPunct(t[i - 1], "->")))
            continue;
        if (i > 1 && isPunct(t[i - 1], "::") &&
            t[i - 2].kind == TokKind::Ident && t[i - 2].text != "std")
            continue;
        // A preceding identifier / '&' / '*' marks a declaration
        // ("SubCycleClock clock(...)", "const Clock &clock() const"),
        // and a preceding ':' a constructor member-initializer
        // (": clock(3, 500)") — not calls of the banned C API.
        if (i > 0 && (t[i - 1].kind == TokKind::Ident ||
                      isPunct(t[i - 1], "&") || isPunct(t[i - 1], "*") ||
                      isPunct(t[i - 1], ":")))
            continue;
        emit(sf, t[i].line, "nondet-api",
             "call to nondeterministic API '" + t[i].text +
                 "' (wall clock / unseeded randomness breaks "
                 "bit-reproducibility); use redsoc::Rng or a "
                 "simulated clock",
             out);
    }
}

// -------------------------------------------------------------------
// R2: nondet-iter
// -------------------------------------------------------------------

namespace {

/** Names of variables declared in this file with an unordered
 *  container type. */
std::set<std::string>
unorderedVars(const SourceFile &sf)
{
    static const std::set<std::string> kUnordered = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};
    std::set<std::string> vars;
    const auto &t = sf.toks;
    for (size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokKind::Ident || !kUnordered.count(t[i].text))
            continue;
        size_t j = i + 1;
        if (j < t.size() && isPunct(t[j], "<"))
            j = matchDelim(t, j, "<", ">") + 1;
        if (j < t.size() && isPunct(t[j], "&"))
            ++j; // references alias a container all the same
        if (j < t.size() && t[j].kind == TokKind::Ident &&
            (j + 1 >= t.size() || !isPunct(t[j + 1], "(")))
            vars.insert(t[j].text);
    }
    return vars;
}

} // namespace

void
ruleNondetIter(const SourceFile &sf, std::vector<Finding> &out)
{
    const std::set<std::string> vars = unorderedVars(sf);
    if (vars.empty())
        return;
    const auto &t = sf.toks;
    for (size_t i = 0; i + 1 < t.size(); ++i) {
        if (!isIdent(t[i], "for") || !isPunct(t[i + 1], "("))
            continue;
        const size_t open = i + 1;
        const size_t close = matchDelim(t, open, "(", ")");
        // Range-for: a single ':' at paren depth 1 ('::' lexes as one
        // token, so a lone ':' is unambiguous).
        size_t colon = 0;
        int depth = 0;
        for (size_t j = open; j < close; ++j) {
            if (isPunct(t[j], "(") || isPunct(t[j], "[") ||
                isPunct(t[j], "{"))
                ++depth;
            else if (isPunct(t[j], ")") || isPunct(t[j], "]") ||
                     isPunct(t[j], "}"))
                --depth;
            else if (isPunct(t[j], ":") && depth == 1) {
                colon = j;
                break;
            }
        }
        if (colon == 0)
            continue;
        for (size_t j = colon + 1; j < close; ++j) {
            if (t[j].kind == TokKind::Ident && vars.count(t[j].text)) {
                emit(sf, t[j].line, "nondet-iter",
                     "range-for over unordered container '" +
                         t[j].text +
                         "': iteration order is unspecified and "
                         "varies run to run; iterate a sorted copy "
                         "or use an ordered container",
                     out);
                break;
            }
        }
    }
}

// -------------------------------------------------------------------
// R2: ptr-key-order
// -------------------------------------------------------------------

void
rulePtrKeyOrder(const SourceFile &sf, std::vector<Finding> &out)
{
    static const std::set<std::string> kAssoc = {
        "map",           "set",           "multimap",
        "multiset",      "unordered_map", "unordered_set",
        "unordered_multimap", "unordered_multiset"};
    const auto &t = sf.toks;
    for (size_t i = 0; i + 1 < t.size(); ++i) {
        if (t[i].kind != TokKind::Ident || !kAssoc.count(t[i].text))
            continue;
        if (!isPunct(t[i + 1], "<"))
            continue;
        // Require std:: qualification (or unqualified in a file that
        // has no competing 'map' identifier — keep it strict: only
        // std::).
        if (!(i > 1 && isPunct(t[i - 1], "::") &&
              isIdent(t[i - 2], "std")))
            continue;
        // First template argument: up to ',' or '>' at angle depth 1.
        int angle = 0;
        size_t last_star = 0;
        for (size_t j = i + 1; j < t.size(); ++j) {
            if (isPunct(t[j], "<"))
                ++angle;
            else if (isPunct(t[j], ">")) {
                if (--angle == 0)
                    break;
            } else if (angle == 1 && isPunct(t[j], ",")) {
                break;
            } else if (angle == 1 && isPunct(t[j], "*")) {
                last_star = j;
            }
        }
        if (last_star != 0)
            emit(sf, t[i].line, "ptr-key-order",
                 "associative container keyed by a pointer: ordering/"
                 "hashing follows allocation addresses, which differ "
                 "run to run; key by a stable id (SeqNum, index, "
                 "name) instead",
                 out);
    }
}

// -------------------------------------------------------------------
// R3: cycle-narrow
// -------------------------------------------------------------------

void
ruleCycleNarrow(const SourceFile &sf, std::vector<Finding> &out)
{
    // Only the explicit form: static_cast<NARROW>(... cycleish ...).
    // An implicit narrowing (u32 x = cycles;) is -Wconversion's, which
    // the warning-hardened build turns into an error.
    const auto &t = sf.toks;
    for (size_t i = 0; i + 1 < t.size(); ++i) {
        if (!isIdent(t[i], "static_cast") || !isPunct(t[i + 1], "<"))
            continue;
        const size_t gt = matchDelim(t, i + 1, "<", ">");
        bool narrow = false;
        for (size_t j = i + 2; j < gt; ++j) {
            if (t[j].kind != TokKind::Ident)
                continue;
            if (narrowIntType(t[j].text))
                narrow = true;
            if (t[j].text == "long") // unsigned long (long): 64-bit
                narrow = false;
        }
        if (!narrow || gt + 1 >= t.size() || !isPunct(t[gt + 1], "("))
            continue;
        const size_t rp = matchDelim(t, gt + 1, "(", ")");
        for (size_t j = gt + 2; j < rp; ++j) {
            if (cycleIsh(t[j])) {
                emit(sf, t[j].line, "cycle-narrow",
                     "64-bit cycle/tick value '" + t[j].text +
                         "' cast to a 32-bit-or-smaller type; "
                         "keep cycle math in Cycle/Tick (u64)",
                     out);
                break;
            }
        }
    }
}

// -------------------------------------------------------------------
// R3: float-accum
// -------------------------------------------------------------------

void
ruleFloatAccum(const SourceFile &sf,
               const std::vector<std::string> &exempt,
               std::vector<Finding> &out)
{
    for (const std::string &prefix : exempt)
        if (sf.path.rfind(prefix, 0) == 0)
            return;

    const auto &t = sf.toks;
    // Variables declared float/double anywhere in the file.
    std::set<std::string> fvars;
    for (size_t i = 0; i + 1 < t.size(); ++i)
        if ((isIdent(t[i], "double") || isIdent(t[i], "float")) &&
            t[i + 1].kind == TokKind::Ident &&
            (i + 2 >= t.size() || !isPunct(t[i + 2], "(")))
            fvars.insert(t[i + 1].text);
    if (fvars.empty())
        return;

    for (size_t i = 0; i + 1 < t.size(); ++i) {
        if (!(isIdent(t[i], "for") || isIdent(t[i], "while")) ||
            !isPunct(t[i + 1], "("))
            continue;
        const size_t open = i + 1;
        const size_t close = matchDelim(t, open, "(", ")");
        bool cycle_loop = false;
        for (size_t j = open + 1; j < close; ++j)
            if (cycleIsh(t[j]))
                cycle_loop = true;
        if (!cycle_loop)
            continue;
        // Body: brace block or single statement.
        size_t body_begin = close + 1;
        size_t body_end;
        if (body_begin < t.size() && isPunct(t[body_begin], "{"))
            body_end = matchDelim(t, body_begin, "{", "}");
        else {
            body_end = body_begin;
            while (body_end < t.size() && !isPunct(t[body_end], ";"))
                ++body_end;
        }
        for (size_t j = body_begin; j + 1 < body_end; ++j) {
            if (t[j].kind == TokKind::Ident && fvars.count(t[j].text) &&
                (isPunct(t[j + 1], "+=") || isPunct(t[j + 1], "-="))) {
                emit(sf, t[j].line, "float-accum",
                     "floating-point accumulation into '" + t[j].text +
                         "' inside a per-cycle loop: rounding depends "
                         "on iteration order; accumulate integer "
                         "ticks and convert once (allowed only under "
                         "src/power)",
                     out);
            }
        }
    }
}

// -------------------------------------------------------------------
// Enum parsing + R6: audit-complete
// -------------------------------------------------------------------

namespace {

int
countIdent(const SourceFile &sf, const std::string &name)
{
    int n = 0;
    for (const Token &t : sf.toks)
        if (t.kind == TokKind::Ident && t.text == name)
            ++n;
    return n;
}

} // namespace


std::vector<EnumInfo>
parseEnums(const SourceFile &sf)
{
    const auto &t = sf.toks;
    std::vector<EnumInfo> out;
    for (size_t i = 0; i < t.size(); ++i) {
        if (!isIdent(t[i], "enum"))
            continue;
        size_t j = i + 1;
        if (j < t.size() &&
            (isIdent(t[j], "class") || isIdent(t[j], "struct")))
            ++j;
        if (j >= t.size() || t[j].kind != TokKind::Ident)
            continue; // unnamed enum: nothing to wire a rule to
        EnumInfo info;
        info.name = t[j].text;
        info.line = t[j].line;
        // Skip an optional underlying-type clause up to '{'; a ';'
        // first means this was only a forward declaration.
        ++j;
        while (j < t.size() && !isPunct(t[j], "{") &&
               !isPunct(t[j], ";"))
            ++j;
        if (j >= t.size() || !isPunct(t[j], "{"))
            continue;
        const size_t close = matchDelim(t, j, "{", "}");
        for (size_t k = j + 1; k < close; ++k) {
            if (t[k].kind != TokKind::Ident)
                continue;
            info.enumerators.push_back(
                EnumeratorInfo{t[k].text, t[k].line});
            // Skip any "= expr" initializer to the next ',' at
            // enumerator depth (initializers may nest parens/braces).
            int depth = 0;
            while (k + 1 < close) {
                const Token &n = t[k + 1];
                if (isPunct(n, "(") || isPunct(n, "{"))
                    ++depth;
                else if (isPunct(n, ")") || isPunct(n, "}"))
                    --depth;
                else if (isPunct(n, ",") && depth == 0)
                    break;
                ++k;
            }
            ++k; // the ','
        }
        out.push_back(std::move(info));
        i = close;
    }
    return out;
}

void
ruleAuditComplete(const SourceFile &header,
                  const std::string &enum_name,
                  const SourceFile &tests,
                  std::vector<Finding> &out)
{
    for (const EnumInfo &e : parseEnums(header)) {
        if (e.name != enum_name)
            continue;
        for (const EnumeratorInfo &en : e.enumerators) {
            if (en.name == "NUM")
                continue; // count sentinel, never a real invariant
            if (countIdent(tests, en.name) < 1)
                emit(header, en.line, "audit-complete",
                     enum_name + " enumerator '" + en.name +
                         "' has no corrupting unit test (" +
                         tests.path +
                         " must mention it at least once: every "
                         "runtime invariant check needs a test "
                         "proving it fires)",
                     out);
        }
    }
}

// -------------------------------------------------------------------
// R8: hot-alloc
// -------------------------------------------------------------------

namespace {

/** Keywords whose "(...) {" shape is a control statement, not a
 *  function definition. */
bool
controlKeyword(const std::string &s)
{
    return s == "if" || s == "for" || s == "while" || s == "switch" ||
           s == "catch" || s == "return" || s == "sizeof";
}

/**
 * True when @p name names a function *definition* at @p i: the
 * identifier is followed by a parameter list whose closer leads —
 * possibly through const/noexcept/override — to a '{'.
 */
bool
isFunctionDefinition(const std::vector<Token> &t, size_t i)
{
    if (i + 1 >= t.size() || !isPunct(t[i + 1], "("))
        return false;
    size_t j = matchDelim(t, i + 1, "(", ")");
    if (j >= t.size())
        return false;
    ++j;
    while (j < t.size() &&
           (isIdent(t[j], "const") || isIdent(t[j], "noexcept") ||
            isIdent(t[j], "override") || isIdent(t[j], "final")))
        ++j;
    return j < t.size() && isPunct(t[j], "{");
}

} // namespace

void
ruleHotAlloc(const SourceFile &sf,
             const std::vector<std::string> &hot_paths,
             const std::vector<std::string> &hot_functions,
             std::vector<Finding> &out)
{
    bool in_scope = false;
    for (const std::string &prefix : hot_paths)
        in_scope = in_scope || sf.path.rfind(prefix, 0) == 0;
    if (!in_scope)
        return;

    const auto &t = sf.toks;

    // Containers pre-sized *somewhere in this file* (the SoA lanes
    // are resize()d at run() start; scratch vectors are reserve()d in
    // the constructor): push_back into those is amortized-free and
    // allowed.
    std::set<std::string> presized;
    for (size_t i = 0; i + 3 < t.size(); ++i)
        if (t[i].kind == TokKind::Ident && isPunct(t[i + 1], ".") &&
            (isIdent(t[i + 2], "reserve") ||
             isIdent(t[i + 2], "resize")) &&
            isPunct(t[i + 3], "("))
            presized.insert(t[i].text);

    for (size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokKind::Ident ||
            controlKeyword(t[i].text) ||
            std::find(hot_functions.begin(), hot_functions.end(),
                      t[i].text) == hot_functions.end() ||
            !isFunctionDefinition(t, i))
            continue;
        const std::string &fn = t[i].text;
        size_t body = matchDelim(t, i + 1, "(", ")") + 1;
        while (body < t.size() && !isPunct(t[body], "{"))
            ++body;
        const size_t end = matchDelim(t, body, "{", "}");
        for (size_t j = body + 1; j < end; ++j) {
            if (isIdent(t[j], "new")) {
                emit(sf, t[j].line, "hot-alloc",
                     "'new' inside per-cycle function '" +
                         fn + "': the hot loops must stay "
                         "allocation-free (pre-size at run() start)",
                     out);
            } else if ((isIdent(t[j], "push_back") ||
                        isIdent(t[j], "emplace_back")) &&
                       j >= 2 && isPunct(t[j - 1], ".") &&
                       t[j - 2].kind == TokKind::Ident &&
                       !presized.count(t[j - 2].text)) {
                emit(sf, t[j].line, "hot-alloc",
                     t[j].text + " into '" + t[j - 2].text +
                         "' inside per-cycle function '" +
                         fn + "' with no reserve()/resize() in this "
                         "file: growth reallocates mid-cycle",
                     out);
            } else if (isIdent(t[j], "function") && j + 1 < end &&
                       isPunct(t[j + 1], "<")) {
                emit(sf, t[j].line, "hot-alloc",
                     "std::function constructed inside per-cycle "
                     "function '" + fn +
                         "': type-erased callables heap-allocate; "
                         "use a template or function pointer",
                     out);
            }
        }
        i = end;
    }
}

} // namespace redsoc::lint

/**
 * @file
 * Brace-matched scope tree over the redsoc_lint token stream — the
 * structural substrate of the semantic rules (R10-R12). Where R1-R8
 * are token- and line-local, the concurrency rules need to answer
 * "which function body am I in, of which class, annotated how?" —
 * this module answers exactly that and nothing more.
 *
 * The tree is built by a single forward walk that matches every '{'
 * to its '}' and classifies the opener from the statement slice in
 * front of it (the tokens since the last ';', '{' or '}'):
 * namespace, class/struct, enum, function definition (with its name,
 * qualifying class, and any REDSOC_REQUIRES / REDSOC_EXCLUDES
 * annotations between the parameter list and the body), lambda, or
 * plain block. Everything the classifier cannot prove stays a Block,
 * which downstream rules treat as "inside the enclosing function" —
 * misclassification degrades to fewer checks, never to a parse
 * failure.
 *
 * Like the rest of the linter this is a deliberate approximation of
 * C++, not a front end: preprocessor conditionals that unbalance
 * braces, macros that expand to braces, and declarations of the form
 * `Type var(args);` at namespace scope are out of contract (none
 * occur in this tree; the fixture suite pins the constructs that do).
 */

#ifndef REDSOC_TOOLS_LINT_SCOPES_H
#define REDSOC_TOOLS_LINT_SCOPES_H

#include <string>
#include <vector>

#include "lint.h"

namespace redsoc::lint {

enum class ScopeKind {
    File,      ///< synthetic root covering the whole token stream
    Namespace, ///< namespace N { } (anonymous: empty name)
    Class,     ///< struct/class/union definition body
    Enum,      ///< enum / enum class body
    Function,  ///< function definition body (methods included)
    Lambda,    ///< lambda body
    Block,     ///< everything else: control flow, bare blocks,
               ///< brace initializers the classifier rejected
};

struct Scope
{
    ScopeKind kind = ScopeKind::Block;
    /** Class/namespace/enum/function name ("" when anonymous or not
     *  applicable). For Function: the unqualified name. */
    std::string name;
    /** Function scopes: the class the function belongs to — the
     *  `C::` qualifier of an out-of-line definition, else the
     *  enclosing Class scope's name, else "". */
    std::string class_name;
    int line = 0;        ///< line of the opening token
    size_t open_tok = 0; ///< index of '{' (File: 0)
    size_t close_tok = 0; ///< index of matching '}' (File: toks.size())
    int parent = -1;
    std::vector<int> children;
    /** Function scopes: mutex names from REDSOC_REQUIRES(...) between
     *  the parameter list and the body (held on entry). */
    std::vector<std::string> requires_;
    /** Function scopes: mutex names from REDSOC_EXCLUDES(...). */
    std::vector<std::string> excludes_;
};

struct ScopeTree
{
    /** Preorder; scopes[0] is the File root. */
    std::vector<Scope> scopes;

    const Scope &fileScope() const { return scopes.front(); }
};

/** Build the scope tree of one lexed file. Never fails: unmatched
 *  braces truncate the affected scopes at end-of-file. */
ScopeTree buildScopeTree(const SourceFile &sf);

/** Parse a comma-separated REDSOC_REQUIRES/EXCLUDES argument list
 *  starting at the '(' at @p open: the canonical mutex name of each
 *  argument is its last identifier token (`foo.mu_` -> `mu_`),
 *  matching how the R10 walk canonicalizes guard expressions. */
std::vector<std::string> parseMutexArgs(const std::vector<Token> &toks,
                                        size_t open);

} // namespace redsoc::lint

#endif // REDSOC_TOOLS_LINT_SCOPES_H

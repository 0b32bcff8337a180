/**
 * @file
 * Argument helpers shared by the command-line tools.
 */

#ifndef REDSOC_TOOLS_CLI_H
#define REDSOC_TOOLS_CLI_H

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "common/fields.h"
#include "common/logging.h"
#include "core/core_config.h"

namespace redsoc::cli {

/** A usage error: @p msg on stderr, exit status 2. */
[[noreturn]] inline void
usageError(const std::string &msg)
{
    std::fprintf(stderr, "%s\n", msg.c_str());
    std::exit(2);
}

/** The enumerator named @p text (enumText's inverse). An unknown name
 *  is a usage error, never a silent default. */
template <class E>
E
enumArg(const char *flag, const std::string &text)
{
    E value{};
    if (!parseEnum(text, value))
        usageError("unknown " + std::string(flag) + " '" + text + "'");
    return value;
}

/** The core preset name @p text (findCorePreset). An unknown name is
 *  a usage error, not an abort. */
inline std::string
coreArg(const std::string &text)
{
    if (!findCorePreset(text))
        usageError("unknown --core '" + text + "'");
    return text;
}

/** The number @p text spells, whole (parseLeaf). Anything else is a
 *  usage error, never a silent zero or default. */
template <class T>
T
numArg(const char *flag, const std::string &text)
{
    T value{};
    if (!parseLeaf(text, value))
        usageError("invalid " + std::string(flag) + " '" + text + "'");
    return value;
}

/** The workloads of a comma-separated --mix (empty entries skipped;
 *  fatal when none is left). */
inline std::vector<std::string>
splitMix(const std::string &spec)
{
    std::vector<std::string> out;
    std::istringstream is(spec);
    for (std::string name; std::getline(is, name, ',');)
        if (!name.empty())
            out.push_back(name);
    fatal_if(out.empty(), "empty --mix");
    return out;
}

} // namespace redsoc::cli

#endif // REDSOC_TOOLS_CLI_H

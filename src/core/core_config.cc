#include "core/core_config.h"

#include "common/logging.h"

namespace redsoc {

namespace {

/** Each enum's names, stated once, indexed by enumerator value: the
 *  names enumText prints and parseEnum reads. */
constexpr const char *kSchedModeNames[] = {"baseline", "redsoc", "mos"};
constexpr const char *kRsDesignNames[] = {"illustrative", "operational"};
constexpr const char *kSchedKernelNames[] = {"scan", "event"};

template <class E, size_t N>
const char *
nameOf(E e, const char *const (&names)[N])
{
    const auto i = static_cast<size_t>(e);
    panic_if(i >= N, "bad enumerator ", i);
    return names[i];
}

template <class E, size_t N>
bool
parseByName(std::string_view text, E &out, const char *const (&names)[N])
{
    for (size_t i = 0; i < N; ++i) {
        if (text == names[i]) {
            out = static_cast<E>(i);
            return true;
        }
    }
    return false;
}

} // namespace

const char *
schedModeName(SchedMode mode)
{
    return nameOf(mode, kSchedModeNames);
}

const char *
rsDesignName(RsDesign design)
{
    return nameOf(design, kRsDesignNames);
}

const char *
schedKernelName(SchedKernel kernel)
{
    return nameOf(kernel, kSchedKernelNames);
}

bool
parseEnum(std::string_view text, SchedMode &mode)
{
    return parseByName(text, mode, kSchedModeNames);
}

bool
parseEnum(std::string_view text, RsDesign &design)
{
    return parseByName(text, design, kRsDesignNames);
}

bool
parseEnum(std::string_view text, SchedKernel &kernel)
{
    return parseByName(text, kernel, kSchedKernelNames);
}

CoreConfig
smallCore()
{
    CoreConfig c;
    c.name = "small";
    c.frontend_width = 3;
    c.commit_width = 3;
    c.rob_entries = 40;
    c.lsq_entries = 16;
    c.rs_entries = 32;
    c.alu_units = 3;
    c.simd_units = 2;
    c.fp_units = 2;
    c.mem_ports = 2;
    return c;
}

CoreConfig
mediumCore()
{
    return CoreConfig{}; // the struct's defaults are the medium core
}

CoreConfig
bigCore()
{
    CoreConfig c;
    c.name = "big";
    c.frontend_width = 8;
    c.commit_width = 8;
    c.rob_entries = 160;
    c.lsq_entries = 64;
    c.rs_entries = 128;
    c.alu_units = 6;
    c.simd_units = 4;
    c.fp_units = 4;
    c.mem_ports = 3;
    return c;
}

std::optional<CoreConfig>
findCorePreset(std::string_view name)
{
    if (name == "small")
        return smallCore();
    if (name == "medium")
        return mediumCore();
    if (name == "big")
        return bigCore();
    return std::nullopt;
}

CoreConfig
coreByName(const std::string &name)
{
    std::optional<CoreConfig> preset = findCorePreset(name);
    fatal_if(!preset, "unknown core preset '", name, "'");
    return *std::move(preset);
}

} // namespace redsoc

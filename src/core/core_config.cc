#include "core/core_config.h"

#include "common/logging.h"

namespace redsoc {

const char *
schedModeName(SchedMode mode)
{
    switch (mode) {
      case SchedMode::Baseline: return "baseline";
      case SchedMode::ReDSOC: return "redsoc";
      case SchedMode::MOS: return "mos";
      default: panic("bad sched mode");
    }
}

const char *
rsDesignName(RsDesign design)
{
    switch (design) {
      case RsDesign::Illustrative: return "illustrative";
      case RsDesign::Operational: return "operational";
      default: panic("bad RS design");
    }
}

const char *
schedKernelName(SchedKernel kernel)
{
    switch (kernel) {
      case SchedKernel::Scan: return "scan";
      case SchedKernel::Event: return "event";
      default: panic("bad sched kernel");
    }
}

namespace {

/** Find the enumerator among @p all whose name is @p text. */
template <class E, size_t N>
bool
parseByName(std::string_view text, E &out, const E (&all)[N])
{
    for (E e : all) {
        if (text == enumText(e)) {
            out = e;
            return true;
        }
    }
    return false;
}

} // namespace

bool
parseEnum(std::string_view text, SchedMode &mode)
{
    constexpr SchedMode kAll[] = {SchedMode::Baseline, SchedMode::ReDSOC,
                                  SchedMode::MOS};
    return parseByName(text, mode, kAll);
}

bool
parseEnum(std::string_view text, RsDesign &design)
{
    constexpr RsDesign kAll[] = {RsDesign::Illustrative,
                                 RsDesign::Operational};
    return parseByName(text, design, kAll);
}

bool
parseEnum(std::string_view text, SchedKernel &kernel)
{
    constexpr SchedKernel kAll[] = {SchedKernel::Scan, SchedKernel::Event};
    return parseByName(text, kernel, kAll);
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
    CoreConfig c;
    c.name = "medium";
    c.frontend_width = 4;
    c.commit_width = 4;
    c.rob_entries = 80;
    c.lsq_entries = 32;
    c.rs_entries = 64;
    c.alu_units = 4;
    c.simd_units = 3;
    c.fp_units = 3;
    c.mem_ports = 2;
    return c;
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

CoreConfig
coreByName(const std::string &name)
{
    if (name == "small")
        return smallCore();
    if (name == "medium")
        return mediumCore();
    if (name == "big")
        return bigCore();
    fatal("unknown core preset '", name, "'");
}

} // namespace redsoc

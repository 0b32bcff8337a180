#include "mem/prefetcher.h"

namespace redsoc {

StridePrefetcher::StridePrefetcher(PrefetcherConfig config)
    : config_(checkedConfig(config, "prefetcher")), table_(config.entries)
{
}

std::vector<Addr>
StridePrefetcher::observe(u32 pc, Addr addr)
{
    Entry &e = table_[pc & (config_.entries - 1)];
    std::vector<Addr> fills;

    if (!e.valid || e.pc != pc) {
        e = Entry{};
        e.pc = pc;
        e.last_addr = addr;
        e.valid = true;
        return fills;
    }

    const s64 stride = static_cast<s64>(addr) -
                       static_cast<s64>(e.last_addr);
    if (stride == e.stride && stride != 0) {
        if (e.confidence < 15)
            ++e.confidence;
    } else {
        e.stride = stride;
        e.confidence = 0;
    }
    e.last_addr = addr;

    if (e.confidence >= config_.min_confidence && e.stride != 0) {
        for (unsigned d = 1; d <= config_.degree; ++d) {
            fills.push_back(
                static_cast<Addr>(static_cast<s64>(addr) +
                                  e.stride * static_cast<s64>(d)));
        }
        issued_ += fills.size();
    }
    return fills;
}

} // namespace redsoc

#include "mem/prefetcher.h"

namespace redsoc {

StridePrefetcher::StridePrefetcher(PrefetcherConfig config)
    : config_(checkedConfig(config, "prefetcher")), table_(config.entries)
{
}

} // namespace redsoc

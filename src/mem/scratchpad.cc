#include "src/mem/scratchpad.h"

namespace fabacus {

Scratchpad::Scratchpad(const ScratchpadConfig& config)
    : config_(config), port_("scratchpad", config.total_gb_per_s, config.access_latency) {}

Tick Scratchpad::Access(Tick now, double bytes) { return port_.Reserve(now, bytes).end; }

}  // namespace fabacus

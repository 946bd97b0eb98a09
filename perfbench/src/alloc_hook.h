// Heap-allocation counter for the benchmark's per-layer metrics
// (sim.allocs_per_event, rpc.allocs_per_op). alloc_hook.cc replaces the
// global operator new family in the perfbench executable only; deletes are
// forwarded untouched, so the hook never changes object lifetimes.
#pragma once

#include <cstdint>

namespace perfbench {

// operator-new calls (every form) since process start, all threads.
[[nodiscard]] std::uint64_t allocation_count();

}  // namespace perfbench

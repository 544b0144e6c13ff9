// The CPUs this process may run on. std::thread::hardware_concurrency()
// counts the machine's CPUs whatever the affinity mask says, so a run under
// `taskset -c 0,1` on a 4-CPU host would size every pool for 4. Everything
// that sizes threads from the hardware (the serving worker budget, the
// queue's spin-or-block choice, the fit pool, the load benches) reads these
// instead.
#pragma once

#include <cstddef>
#include <vector>

namespace rafiki::util {

/// CPU ids in the calling thread's affinity mask, ascending. Falls back to
/// 0 .. hardware_concurrency()-1 where the mask cannot be read; never empty.
std::vector<int> allowed_cpus();

/// Number of CPUs in the calling thread's affinity mask (>= 1).
std::size_t hw_threads();

}  // namespace rafiki::util

#include "util/cpu.h"

#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

namespace rafiki::util {

std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
#endif
  if (cpus.empty()) {
    const unsigned hw = std::thread::hardware_concurrency();
    for (unsigned cpu = 0; cpu < (hw > 0 ? hw : 1); ++cpu) cpus.push_back(static_cast<int>(cpu));
  }
  return cpus;
}

std::size_t hw_threads() { return allowed_cpus().size(); }

}  // namespace rafiki::util

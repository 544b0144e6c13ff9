#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

#include "util/cpu.h"
#include "util/sync.h"

namespace rafiki::util {

void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn) {
  threads = std::min(threads ? threads : hw_threads(), n);
  if (threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Relaxed suffices for both atomics: they only hand out indices and ask
  // workers to stop early. Every result slot reaches the caller through the
  // joins below, and the error through error_mutex.
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  // Local mutex: GUARDED_BY cannot annotate captured locals, so the contract
  // is this scope — error and error_index are only touched under
  // error_mutex inside the workers and read after every join.
  Mutex error_mutex;
  std::exception_ptr error;
  std::size_t error_index = n;
  const auto worker = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        MutexLock lock(error_mutex);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (std::size_t t = 0; t + 1 < threads; ++t) {
    try {
      pool.emplace_back(worker);
    } catch (const std::system_error&) {
      break;  // the OS refused a thread: run on the ones we have
    }
  }
  worker();
  for (auto& thread : pool) thread.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace rafiki::util

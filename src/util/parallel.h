// One fork-join loop for the offline pipeline: the surrogate fit's members,
// the ANOVA sweep and the collect plan all run their independent items
// through it. Items are claimed in index order and each writes its own
// result slot, so what a caller assembles never depends on the thread count
// or the schedule.
#pragma once

#include <cstddef>
#include <functional>

namespace rafiki::util {

/// Calls fn(i) once for every i in [0, n) on up to `threads` threads
/// (0 = hw_threads(); never more than n). The calling thread is one of them,
/// and one thread runs the loop inline. fn writes its result to slot i of
/// storage the caller owns; items must not depend on each other. After an
/// item throws, no further index is claimed; once the running items finish,
/// the exception of the lowest throwing index is rethrown, which is the one
/// a serial loop would have thrown.
void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn);

}  // namespace rafiki::util

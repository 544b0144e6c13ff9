// Atomically-swapped publication slot for immutable artifacts. Readers grab
// a shared_ptr with a single atomic load — they never block behind a
// publisher holding a mutex, and whatever snapshot they grabbed stays alive
// (refcounted) for as long as they use it, however many swaps happen
// meanwhile. This is what lets a model refresh publish a new version with
// zero downtime for in-flight requests.
#pragma once

#include <atomic>
#include <memory>
#include <utility>

#include "util/sync.h"

// libstdc++'s lock-free std::atomic<shared_ptr> (_Sp_atomic) protects its
// internal pointer with a lock bit embedded in the refcount word; the mutual
// exclusion on the *slot word* is real, but the reader side is released with
// a relaxed store that TSan's happens-before machinery cannot see, so every
// concurrent get()/set() pair reports a false race inside the library. Under
// TSan we substitute a mutex-backed slot and keep the lock-free path
// everywhere else.
//
// Ordering audit (both paths publish with the same visibility guarantee):
//   * Lock-free path — set() stores with memory_order_release and get()
//     loads with memory_order_acquire. The pairing is load-bearing beyond
//     the slot pointer itself: it is what makes the pointee's fields (the
//     snapshot built and filled before set()) visible to a reader thread
//     that obtained the pointer, so neither side may be weakened to
//     relaxed. (The shared_ptr control block alone only orders the
//     refcount, not the payload writes.)
//   * TSan path — slot_ is GUARDED_BY(mutex_); the publisher's writes
//     happen-before mutex_.unlock() in set(), which synchronizes-with the
//     reader's mutex_.lock() in get(). A mutex release/acquire is at least
//     as strong as the store(release)/load(acquire) pairing it replaces, so
//     the two modes are semantically identical — the mutex slot is a TSan
//     visibility aid, not a weaker substitute.

#if defined(__SANITIZE_THREAD__)
#define RAFIKI_REGISTRY_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define RAFIKI_REGISTRY_TSAN 1
#endif
#endif

namespace rafiki::serve {

template <typename T>
class VersionedRegistry {
 public:
  /// Current value (may be null before the first publication). The returned
  /// shared_ptr pins that version for the caller's lifetime of use.
  std::shared_ptr<const T> get() const noexcept {
#if defined(RAFIKI_REGISTRY_TSAN)
    MutexLock lock(mutex_);
    return slot_;
#else
    return slot_.load(std::memory_order_acquire);
#endif
  }

  /// Atomically replaces the published value; concurrent readers keep
  /// whatever version they already hold.
  void set(std::shared_ptr<const T> value) noexcept {
#if defined(RAFIKI_REGISTRY_TSAN)
    MutexLock lock(mutex_);
    slot_ = std::move(value);
#else
    slot_.store(std::move(value), std::memory_order_release);
#endif
  }

 private:
#if defined(RAFIKI_REGISTRY_TSAN)
  mutable Mutex mutex_;
  std::shared_ptr<const T> slot_ GUARDED_BY(mutex_);
#else
  std::atomic<std::shared_ptr<const T>> slot_{};
#endif
};

}  // namespace rafiki::serve

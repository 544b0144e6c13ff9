#include "serve/retrain.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace rafiki::serve {

RetrainWorker::RetrainWorker(RunFn run, std::size_t threads, ServiceStats* stats)
    : run_(std::move(run)),
      thread_count_(std::max<std::size_t>(threads, 1)),
      capacity_(kQueuePerThread * thread_count_),
      stats_(stats) {}

RetrainWorker::~RetrainWorker() { stop(); }

RetrainEnqueue RetrainWorker::enqueue(std::uint64_t key) {
  RetrainEnqueue result = RetrainEnqueue::kEnqueued;
  std::size_t depth_after = 0;
  {
    MutexLock lock(mutex_);
    if (stopping_) {
      result = RetrainEnqueue::kStopped;
    } else if (pending_.count(key) != 0) {
      result = RetrainEnqueue::kCoalesced;
    } else if (tasks_.size() >= capacity_) {
      result = RetrainEnqueue::kRejected;
    } else {
      pending_.insert(key);
      tasks_.push_back(key);
      depth_after = tasks_.size();
    }
  }
  if (result == RetrainEnqueue::kEnqueued) {
    ready_.notify_one();
    if (stats_) stats_->record_retrain_enqueue(depth_after);
  } else if (result == RetrainEnqueue::kCoalesced) {
    if (stats_) stats_->record_retrain_coalesced();
  } else if (result == RetrainEnqueue::kRejected) {
    if (stats_) stats_->record_retrain_rejected();
  }
  return result;
}

void RetrainWorker::start() {
  MutexLock lock(mutex_);
  if (started_ || stopping_) return;
  started_ = true;
  threads_.reserve(thread_count_);
  for (std::size_t i = 0; i < thread_count_; ++i) threads_.emplace_back([this] { loop(); });
}

void RetrainWorker::loop() {
  for (;;) {
    std::uint64_t key = 0;
    {
      MutexLock lock(mutex_);
      while (!stopping_ && tasks_.empty()) ready_.wait(mutex_);
      if (stopping_) break;  // stop() cancels whatever is still queued
      key = tasks_.front();
      tasks_.pop_front();
    }

    // det:ok(wall-clock): reporting-only retrain latency measurement
    const auto t0 = std::chrono::steady_clock::now();
    const bool ran = run_(key);
    // det:ok(wall-clock): reporting-only retrain latency measurement
    const auto t1 = std::chrono::steady_clock::now();
    if (stats_ && ran) {
      stats_->record_retrain(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
    } else if (stats_) {
      // A run that finished after this task was enqueued already installed
      // the bucket, so no GA ran: count it with the coalesced requests.
      stats_->record_retrain_coalesced();
    }

    {
      MutexLock lock(mutex_);
      pending_.erase(key);
    }
    idle_.notify_all();
  }
}

void RetrainWorker::stop() {
  {
    MutexLock lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  ready_.notify_all();
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }

  // The pool is gone, so every pending key left is a queued, never-run task.
  std::size_t cancelled = 0;
  {
    MutexLock lock(mutex_);
    cancelled = tasks_.size();
    tasks_.clear();
    pending_.clear();
  }
  if (stats_ && cancelled > 0) {
    stats_->record_retrain_cancelled(static_cast<std::uint64_t>(cancelled));
  }
  idle_.notify_all();
}

std::size_t RetrainWorker::depth() const {
  MutexLock lock(mutex_);
  return tasks_.size();
}

void RetrainWorker::wait_idle() {
  MutexLock lock(mutex_);
  while (!pending_.empty()) idle_.wait(mutex_);
}

}  // namespace rafiki::serve

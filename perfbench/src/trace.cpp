#include "trace.h"

#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

std::atomic<std::uint64_t> g_instances{1};

const char* endpoint_span(rafiki::serve::Endpoint endpoint) {
  switch (endpoint) {
    case rafiki::serve::Endpoint::kPredict:
      return kSpanPredict;
    case rafiki::serve::Endpoint::kObserveWindow:
      return kSpanObserve;
    case rafiki::serve::Endpoint::kOptimize:
      return kSpanOptimize;
  }
  return kSpanPredict;
}

}  // namespace

std::int64_t now_ns() {
  // det:ok(wall-clock): benchmark timing is reporting-only
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanLog::SpanLog() : instance_(g_instances.fetch_add(1, std::memory_order_relaxed)) {}

std::vector<Span>& SpanLog::local_buffer() {
  // One buffer per (thread, log): the instance number, never reused, keeps a
  // thread from writing into the buffer of a log that no longer exists.
  struct Slot {
    std::uint64_t instance = 0;
    std::vector<Span>* buffer = nullptr;
  };
  thread_local Slot slot;
  if (slot.instance != instance_) {
    rafiki::MutexLock lock(mutex_);
    buffers_.emplace_back();
    buffers_.back().reserve(1 << 14);
    slot = {instance_, &buffers_.back()};
  }
  return *slot.buffer;
}

void SpanLog::record(const Span& span) { local_buffer().push_back(span); }

std::vector<Span> SpanLog::spans() const {
  rafiki::MutexLock lock(mutex_);
  std::vector<Span> out;
  for (const auto& buffer : buffers_) out.insert(out.end(), buffer.begin(), buffer.end());
  return out;
}

std::vector<Span> SpanLog::named(const char* name) const {
  std::vector<Span> out;
  for (const auto& span : spans()) {
    if (std::string_view(span.name) == name) out.push_back(span);
  }
  return out;
}

bool SpanLog::write_csv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("name,id,parent,start_ns,end_ns\n", out);
  for (const auto& span : spans()) {
    std::fprintf(out, "%s,%llu,%llu,%lld,%lld\n", span.name,
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<long long>(span.start_ns), static_cast<long long>(span.end_ns));
  }
  return std::fclose(out) == 0;
}

rafiki::serve::Status TracedBackend::try_submit(rafiki::serve::Request request,
                                                rafiki::serve::ResponseCallback done) {
  const std::int64_t t0 = now_ns();
  const bool keep = calls_.fetch_add(1, std::memory_order_relaxed) % kSampleEvery == 0;
  const std::uint64_t id = keep ? log_.next_id() : 0;
  const char* name = endpoint_span(request.endpoint);
  SpanLog* log = &log_;
  const auto status = inner_.try_submit(
      std::move(request),
      [log, keep, id, t0, name, done = std::move(done)](rafiki::serve::Response response) mutable {
        if (keep) log->record({name, log->next_id(), id, t0, now_ns()});
        done(std::move(response));
      });
  if (keep) log_.record({kSpanSubmit, id, 0, t0, now_ns()});
  return status;
}

}  // namespace perfbench

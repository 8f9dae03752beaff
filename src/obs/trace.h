// RAII trace spans with per-thread buffers. A ScopedSpan marks one timed
// stage (encode.chunk, encode.search, net.node, ...); spans nest — each
// records its depth on the owning thread's span stack — and completed
// spans land in a per-thread buffer that the TraceCollector merges on
// export. Recording takes the owning thread's otherwise-uncontended
// buffer mutex only when observability is enabled; disabled spans cost a
// relaxed load and a branch.
//
// Exports: chrome://tracing "complete event" JSON (load in a Chromium
// browser or https://ui.perfetto.dev) and a flat CSV.
#ifndef SBR_OBS_TRACE_H_
#define SBR_OBS_TRACE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/obs.h"

namespace sbr::obs {

/// One completed span. `name` must point at a string literal (the macro
/// contract), so events are POD and the buffers never own strings.
struct SpanEvent {
  const char* name = nullptr;
  /// Logical thread id: the order threads first recorded a span.
  uint32_t tid = 0;
  /// Nesting depth at the span's start (0 = top level on its thread).
  uint32_t depth = 0;
  /// Per-thread completion index: within one tid, events are totally
  /// ordered by seq (children complete before their parents).
  uint64_t seq = 0;
  uint64_t start_ns = 0;
  uint64_t duration_ns = 0;
};

/// Per-stage aggregate over a set of span events.
struct StageAggregate {
  std::string name;
  uint64_t count = 0;
  uint64_t total_ns = 0;
};

class TraceCollector {
 public:
  /// The process-wide collector every ScopedSpan records into.
  static TraceCollector& Global();

  /// Moves every buffered event out, merged and ordered by (tid, seq).
  std::vector<SpanEvent> Drain();

  /// Drops buffered events without returning them.
  void Clear() { (void)Drain(); }

  /// Events dropped because a thread buffer hit its cap.
  uint64_t dropped() const;

  // -- export helpers (pure functions of the event list) --

  /// chrome://tracing JSON: {"traceEvents":[{"ph":"X",...}]}.
  static std::string ToChromeJson(const std::vector<SpanEvent>& events);
  /// Flat CSV: name,tid,depth,seq,start_us,duration_us.
  static std::string ToCsv(const std::vector<SpanEvent>& events);
  /// Sums duration by span name; name-sorted (deterministic layout).
  static std::vector<StageAggregate> Aggregate(
      const std::vector<SpanEvent>& events);

 private:
  friend class ScopedSpan;

  /// One thread's recording state. Owned by the collector (threads may
  /// exit before export); the mutex serializes the owner's appends
  /// against a concurrent Drain.
  struct ThreadBuffer {
    std::mutex mu;
    std::vector<SpanEvent> events;
    uint32_t tid = 0;
    uint32_t depth = 0;   // touched only by the owning thread
    uint64_t seq = 0;     // guarded by mu
    uint64_t dropped = 0; // guarded by mu
  };

  /// Bounds each thread's buffer; beyond it events are counted as dropped
  /// so a forgotten Drain cannot grow without bound.
  static constexpr size_t kMaxEventsPerThread = size_t{1} << 20;

  ThreadBuffer* BufferForThisThread();

  std::mutex mu_;  // guards buffers_ (registration and Drain)
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII span. Constructed inert when the runtime gate is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    if (Enabled()) Begin(name);
  }
  ~ScopedSpan() {
    if (buffer_ != nullptr) End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void Begin(const char* name);
  void End();

  const char* name_ = nullptr;
  TraceCollector::ThreadBuffer* buffer_ = nullptr;
  uint64_t start_ns_ = 0;
  uint32_t depth_ = 0;
};

}  // namespace sbr::obs

#define SBR_OBS_SPAN(var, name) ::sbr::obs::ScopedSpan var(name)

#endif  // SBR_OBS_TRACE_H_

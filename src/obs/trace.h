#ifndef CBIR_OBS_TRACE_H_
#define CBIR_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/stopwatch.h"

namespace cbir::obs {

/// \brief One timed stage of a request: [start_us, start_us + duration_us]
/// relative to the owning RequestTrace's start, at the given nesting depth.
struct TraceSpan {
  std::string name;
  uint64_t start_us = 0;
  uint64_t duration_us = 0;
  int depth = 0;
};

/// \brief One named work counter attached to a request's trace (SMO
/// iterations, index rows scanned, kernel entries computed...). Counters are
/// per-request deltas, not process aggregates: they answer "what did THIS
/// request cost", the question the EXPLAIN profile block exists for.
struct TraceCounter {
  std::string name;
  int64_t value = 0;
};

/// \brief The span tree of one request, identified by its trace id.
///
/// A trace is owned by the thread serving the request and is written from
/// that thread only (the serving stack is thread-per-request); no locking.
/// The transport creates it when the frame has arrived, installs it as the
/// thread's current trace (TraceScope), and every ScopedSpan down the stack
/// — codec, admission, queue wait, index scan, solve, encode, write —
/// attaches itself here as a side effect of recording its histogram.
class RequestTrace {
 public:
  explicit RequestTrace(uint64_t trace_id) : trace_id_(trace_id) {}

  uint64_t trace_id() const { return trace_id_; }
  /// Microseconds since the trace was created.
  uint64_t elapsed_us() const {
    return static_cast<uint64_t>(watch_.ElapsedSeconds() * 1e6);
  }

  void AddSpan(std::string name, uint64_t start_us, uint64_t duration_us,
               int depth) {
    spans_.push_back({std::move(name), start_us, duration_us, depth});
  }

  /// Accumulates `delta` into the named counter (created at zero on first
  /// use). Same-thread-only, like AddSpan: instrumentation points deep in
  /// the stack (the SMO solver, the index scan) call this through
  /// CurrentTrace() to attach their per-request work counts.
  void AddCounter(const std::string& name, int64_t delta) {
    for (TraceCounter& c : counters_) {
      if (c.name == name) {
        c.value += delta;
        return;
      }
    }
    counters_.push_back({name, delta});
  }

  const std::vector<TraceSpan>& spans() const { return spans_; }
  const std::vector<TraceCounter>& counters() const { return counters_; }

 private:
  uint64_t trace_id_;
  Stopwatch watch_;
  std::vector<TraceSpan> spans_;
  std::vector<TraceCounter> counters_;
};

/// \brief Installs `trace` as the calling thread's current trace for its
/// scope, so instrumentation points deep in the stack attach spans without
/// the trace being threaded through every signature. Nests: the previous
/// current trace is restored on destruction.
class TraceScope {
 public:
  explicit TraceScope(RequestTrace* trace);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  RequestTrace* previous_;
};

/// The calling thread's current trace, or null when no request is being
/// traced (e.g. a direct in-process service call).
RequestTrace* CurrentTrace();

/// \brief RAII stage timer: records its duration into `histogram` (when
/// given) and appends a span to the thread's current trace (when one is
/// installed). Both sides are optional, so one instrumentation point serves
/// metrics-only, trace-only, and untraced callers at ~a Stopwatch of cost.
///
/// End() is idempotent; the destructor calls it, or call it early to stop
/// the clock before work that should not be attributed to the stage.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name,
                      LatencyHistogram* histogram = nullptr);
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void End();

 private:
  const char* name_;
  LatencyHistogram* histogram_;
  RequestTrace* trace_;       // captured at construction
  uint64_t trace_start_us_ = 0;
  int depth_ = 0;
  Stopwatch watch_;
  bool ended_ = false;
};

/// Multi-line rendering of a trace's span tree (and its work counters when
/// any were attached), e.g.
///   trace 0x1f3a total=4211us
///     decode 12us @0us
///     queue_wait 31us @15us
///     solve 3970us @118us
///     smo_iterations=142
std::string FormatTrace(const RequestTrace& trace, uint64_t total_us);

/// Same rendering for span/counter vectors that outlived their trace (the
/// flight recorder keeps copies after the request is gone).
std::string FormatSpanTree(uint64_t trace_id, uint64_t total_us,
                           const std::vector<TraceSpan>& spans,
                           const std::vector<TraceCounter>& counters);

}  // namespace cbir::obs

#endif  // CBIR_OBS_TRACE_H_

#include "obs/trace.h"

#include <sstream>

namespace cbir::obs {

namespace {

thread_local RequestTrace* t_current_trace = nullptr;
thread_local int t_span_depth = 0;

}  // namespace

TraceScope::TraceScope(RequestTrace* trace) : previous_(t_current_trace) {
  t_current_trace = trace;
}

TraceScope::~TraceScope() { t_current_trace = previous_; }

RequestTrace* CurrentTrace() { return t_current_trace; }

ScopedSpan::ScopedSpan(const char* name, LatencyHistogram* histogram)
    : name_(name), histogram_(histogram), trace_(t_current_trace) {
  if (trace_ != nullptr) {
    trace_start_us_ = trace_->elapsed_us();
    depth_ = t_span_depth++;
  }
}

void ScopedSpan::End() {
  if (ended_) return;
  ended_ = true;
  const double micros = watch_.ElapsedSeconds() * 1e6;
  if (histogram_ != nullptr) histogram_->Record(micros);
  if (trace_ != nullptr) {
    --t_span_depth;
    trace_->AddSpan(name_, trace_start_us_,
                    static_cast<uint64_t>(micros), depth_);
  }
}

std::string FormatSpanTree(uint64_t trace_id, uint64_t total_us,
                           const std::vector<TraceSpan>& spans,
                           const std::vector<TraceCounter>& counters) {
  std::ostringstream os;
  os << "trace 0x" << std::hex << trace_id << std::dec << " total="
     << total_us << "us";
  for (const TraceSpan& span : spans) {
    os << "\n  ";
    for (int d = 0; d < span.depth; ++d) os << "  ";
    os << span.name << " " << span.duration_us << "us @" << span.start_us
       << "us";
  }
  for (const TraceCounter& counter : counters) {
    os << "\n  " << counter.name << "=" << counter.value;
  }
  return os.str();
}

std::string FormatTrace(const RequestTrace& trace, uint64_t total_us) {
  return FormatSpanTree(trace.trace_id(), total_us, trace.spans(),
                        trace.counters());
}

}  // namespace cbir::obs

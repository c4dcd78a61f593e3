#include "obs/slo.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>

#include "util/string_util.h"

namespace cbir::obs {

namespace {

std::string WindowLabel(int window_s) {
  return std::to_string(window_s) + "s";
}

}  // namespace

SloTracker::SloTracker(MetricsRegistry* registry, SloOptions options,
                       StructuredLog* alert_log)
    : registry_(registry),
      options_(std::move(options)),
      alert_log_(alert_log) {
  if (options_.tick_seconds <= 0) options_.tick_seconds = 1;
  // The transport's series (created at zero if absent).
  latency_ = registry_->GetHistogram("cbir_net_request_us");
  requests_ = registry_->GetCounter("cbir_net_requests_total");
  errors_ = registry_->GetCounter("cbir_net_responses_error_total");
  breach_gauge_ = registry_->GetGauge("cbir_slo_breach");
  registry_->SetHelp("cbir_slo_breach",
                     "1 while any SLO window's burn rate is >= 1.0.");
  registry_->SetHelp("cbir_slo_window_p99_us",
                     "p99 request latency over the trailing window only.");
  registry_->SetHelp(
      "cbir_slo_latency_burn_permille",
      "Rate of latency error-budget burn over the window, x1000 "
      "(1000 = burning exactly at the objective).");
  registry_->SetHelp(
      "cbir_slo_error_burn_permille",
      "Rate of error-ratio budget burn over the window, x1000.");
  window_gauges_.reserve(options_.windows_s.size());
  for (const int w : options_.windows_s) {
    WindowGauges g;
    g.p99_us = registry_->GetGauge("cbir_slo_window_p99_us", "window",
                                   WindowLabel(w));
    g.latency_burn_permille = registry_->GetGauge(
        "cbir_slo_latency_burn_permille", "window", WindowLabel(w));
    g.error_burn_permille = registry_->GetGauge(
        "cbir_slo_error_burn_permille", "window", WindowLabel(w));
    window_gauges_.push_back(g);
  }
}

SloTracker::~SloTracker() { Stop(); }

void SloTracker::Tick() {
  Sample now;
  now.latency = latency_->SnapshotCounts();
  now.requests = requests_->value();
  now.errors = errors_->value();

  int max_window_s = 0;
  for (const int w : options_.windows_s) max_window_s = std::max(max_window_s, w);
  const size_t max_ring =
      static_cast<size_t>(max_window_s / options_.tick_seconds) + 1;

  util::MutexLock lock(mu_);
  ring_.push_back(now);
  while (ring_.size() > max_ring) ring_.pop_front();

  SloState state;
  state.configured =
      options_.query_p99_ms > 0.0 || options_.error_ratio > 0.0;
  state.ticks = state_.ticks + 1;
  const uint64_t latency_threshold_us = static_cast<uint64_t>(
      std::llround(std::max(options_.query_p99_ms, 0.0) * 1000.0));
  for (size_t i = 0; i < options_.windows_s.size(); ++i) {
    SloWindowState ws;
    ws.window_s = options_.windows_s[i];
    const size_t steps = static_cast<size_t>(
        std::max(ws.window_s / options_.tick_seconds, 1));
    // The ring's back is "now"; the window's baseline is `steps` ticks
    // earlier, clamped to the oldest snapshot while the ring is warming up
    // (the window then covers the whole uptime, the honest answer).
    const size_t back = std::min(steps, ring_.size() - 1);
    const Sample& older = ring_[ring_.size() - 1 - back];
    const LatencyHistogram::Counts delta =
        LatencyHistogram::DeltaCounts(now.latency, older.latency);
    ws.latency = LatencyHistogram::SummarizeCounts(delta);
    ws.requests = now.requests > older.requests
                      ? now.requests - older.requests : 0;
    ws.errors = now.errors > older.errors ? now.errors - older.errors : 0;
    if (ws.requests > 0) {
      ws.error_ratio = static_cast<double>(ws.errors) /
                       static_cast<double>(ws.requests);
    }
    if (options_.error_ratio > 0.0) {
      ws.error_burn = ws.error_ratio / options_.error_ratio;
    }
    if (options_.query_p99_ms > 0.0 && ws.latency.count > 0) {
      const uint64_t over =
          LatencyHistogram::CountAtOrAbove(delta, latency_threshold_us);
      const double frac =
          static_cast<double>(over) / static_cast<double>(ws.latency.count);
      ws.latency_burn = frac / 0.01;  // the p99 objective's 1% budget
    }
    ws.breached = ws.error_burn >= 1.0 || ws.latency_burn >= 1.0;
    state.breached = state.breached || ws.breached;
    window_gauges_[i].p99_us->Set(
        static_cast<int64_t>(std::llround(ws.latency.p99_us)));
    window_gauges_[i].latency_burn_permille->Set(
        static_cast<int64_t>(std::llround(ws.latency_burn * 1000.0)));
    window_gauges_[i].error_burn_permille->Set(
        static_cast<int64_t>(std::llround(ws.error_burn * 1000.0)));
    state.windows.push_back(ws);
  }
  breach_gauge_->Set(state.breached ? 1 : 0);
  if (state.breached && alert_log_ != nullptr) {
    // One summary line; the log's own per-event rate limit keeps a
    // sustained breach from flooding.
    const SloWindowState& worst = *std::max_element(
        state.windows.begin(), state.windows.end(),
        [](const SloWindowState& a, const SloWindowState& b) {
          return std::max(a.error_burn, a.latency_burn) <
                 std::max(b.error_burn, b.latency_burn);
        });
    alert_log_->Log(
        "slo_breach",
        {{"window", WindowLabel(worst.window_s)},
         {"p99_us", FormatDouble(worst.latency.p99_us, 0)},
         {"error_ratio", FormatDouble(worst.error_ratio, 4)},
         {"latency_burn", FormatDouble(worst.latency_burn, 2)},
         {"error_burn", FormatDouble(worst.error_burn, 2)}});
  }
  state_ = std::move(state);
}

void SloTracker::Start() {
  {
    util::MutexLock lock(stop_mu_);
    if (running_) return;
    running_ = true;
    stopping_ = false;
  }
  thread_ = std::thread([this] {
    for (;;) {
      {
        util::MutexLock lock(stop_mu_);
        stop_cv_.WaitFor(stop_mu_, std::chrono::seconds(options_.tick_seconds),
                         [this]() CBIR_REQUIRES(stop_mu_) { return stopping_; });
        if (stopping_) return;
      }
      Tick();
    }
  });
}

void SloTracker::Stop() {
  {
    util::MutexLock lock(stop_mu_);
    if (!running_) return;
    running_ = false;
    stopping_ = true;
  }
  stop_cv_.NotifyAll();
  if (thread_.joinable()) thread_.join();
}

SloState SloTracker::state() const {
  util::MutexLock lock(mu_);
  return state_;
}

std::string SloTracker::FormatState() const {
  const SloState state = this->state();
  std::ostringstream os;
  os << "slo: " << (state.breached ? "BREACH" : "ok");
  if (!state.configured) os << " (no objectives configured)";
  if (options_.query_p99_ms > 0.0) {
    os << " objective_p99_ms=" << FormatDouble(options_.query_p99_ms, 1);
  }
  if (options_.error_ratio > 0.0) {
    os << " objective_error_ratio=" << FormatDouble(options_.error_ratio, 4);
  }
  os << "\n";
  for (const SloWindowState& ws : state.windows) {
    os << "window " << ws.window_s << "s: windowed p99="
       << FormatDouble(ws.latency.p99_us, 0) << "us p50="
       << FormatDouble(ws.latency.p50_us, 0) << "us requests="
       << ws.requests << " errors=" << ws.errors << " latency_burn="
       << FormatDouble(ws.latency_burn, 2) << " error_burn="
       << FormatDouble(ws.error_burn, 2)
       << (ws.breached ? " BREACH" : "") << "\n";
  }
  if (state.windows.empty()) os << "window: no ticks yet\n";
  return os.str();
}

}  // namespace cbir::obs

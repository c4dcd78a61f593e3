#ifndef CBIR_OBS_SLO_H_
#define CBIR_OBS_SLO_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/structured_log.h"
#include "util/sync.h"

namespace cbir::obs {

/// \brief Service-level objectives and windowing knobs.
struct SloOptions {
  /// Latency objective: "p99 of request latency stays below this" — i.e. at
  /// most 1% of a window's requests may take longer. <= 0 disables the
  /// latency objective (windowed percentiles are still tracked).
  double query_p99_ms = 0.0;
  /// Error-ratio objective: at most this fraction of a window's responses
  /// may carry a non-OK status. <= 0 disables the error objective.
  double error_ratio = 0.0;
  /// Snapshot cadence. Tests drive Tick() directly; Start() spawns a thread
  /// ticking at this period.
  int tick_seconds = 1;
  /// Burn-rate windows, in seconds (each must be a multiple of
  /// tick_seconds). Multi-window per the SRE playbook: the short window
  /// catches a fast burn, the long one a slow leak.
  std::vector<int> windows_s = {60, 600};
};

/// One window's view at the last tick.
struct SloWindowState {
  int window_s = 0;
  LatencySummary latency;     ///< over the window's samples only
  uint64_t requests = 0;      ///< responses counted in the window
  uint64_t errors = 0;        ///< non-OK responses in the window
  double error_ratio = 0.0;
  /// error_ratio / objective: 1.0 = burning the error budget exactly as
  /// fast as the objective allows; 0 when the objective is off.
  double error_burn = 0.0;
  /// (fraction of requests over the latency threshold) / 1%, same scale.
  double latency_burn = 0.0;
  bool breached = false;      ///< any burn >= 1.0
};

/// The tracker's full answer to "are we meeting the objectives right now".
struct SloState {
  bool configured = false;    ///< at least one objective is set
  bool breached = false;      ///< any window breached at the last tick
  uint64_t ticks = 0;
  std::vector<SloWindowState> windows;
};

/// \brief Windowed SLO tracking over the registry's since-boot series.
///
/// It watches the transport's `cbir_net_request_us` histogram and its
/// `cbir_net_requests_total` and `cbir_net_responses_error_total` counters.
/// Counters and histograms in the registry are process-lifetime monotonic
/// by design; the tracker turns them into "over the last 60s" answers by
/// keeping a ring of per-tick bucket snapshots and summarizing deltas —
/// the hot path stays wait-free, all window math happens at tick cadence
/// on this one thread.
///
/// Each tick updates, per window W:
///   cbir_slo_window_p99_us{window="Ws"}        windowed p99
///   cbir_slo_latency_burn_permille{window="Ws"} latency burn rate x1000
///   cbir_slo_error_burn_permille{window="Ws"}   error burn rate x1000
/// plus the unlabeled `cbir_slo_breach` gauge (1 while any window's burn
/// rate is >= 1.0). On breach, one `event=slo_breach` line goes through the
/// alert log — rate-limited by the log itself, so a sustained breach costs
/// one line per interval, not one per tick.
class SloTracker {
 public:
  /// `registry` (and `alert_log`, when given) must outlive the tracker.
  SloTracker(MetricsRegistry* registry, SloOptions options,
             StructuredLog* alert_log = nullptr);
  ~SloTracker();

  SloTracker(const SloTracker&) = delete;
  SloTracker& operator=(const SloTracker&) = delete;

  /// Takes one snapshot and recomputes every window. Thread-safe; tests
  /// call it directly for deterministic windows.
  void Tick();

  /// Spawns the background thread ticking every tick_seconds. Stop() (and
  /// the destructor) joins it. Idempotent.
  void Start();
  void Stop();

  /// The state computed by the last Tick() (empty windows before the
  /// first).
  SloState state() const;

  /// Multi-line human rendering for /statusz: one line per window with the
  /// windowed p99/p50, request/error counts, and burn rates, plus a
  /// breach/ok verdict.
  std::string FormatState() const;

 private:
  struct Sample {
    LatencyHistogram::Counts latency;
    uint64_t requests = 0;
    uint64_t errors = 0;
  };

  MetricsRegistry* registry_;
  SloOptions options_;
  StructuredLog* alert_log_;

  LatencyHistogram* latency_;
  Counter* requests_;
  Counter* errors_;
  Gauge* breach_gauge_;
  struct WindowGauges {
    Gauge* p99_us;
    Gauge* latency_burn_permille;
    Gauge* error_burn_permille;
  };
  std::vector<WindowGauges> window_gauges_;

  mutable util::Mutex mu_{util::LockRank::kSlo, "slo_tracker"};
  /// oldest at front; one entry per tick
  std::deque<Sample> ring_ CBIR_GUARDED_BY(mu_);
  SloState state_ CBIR_GUARDED_BY(mu_);

  std::thread thread_;
  util::Mutex stop_mu_{util::LockRank::kLifecycle, "slo_tracker_stop"};
  util::CondVar stop_cv_;
  bool running_ CBIR_GUARDED_BY(stop_mu_) = false;
  bool stopping_ CBIR_GUARDED_BY(stop_mu_) = false;
};

}  // namespace cbir::obs

#endif  // CBIR_OBS_SLO_H_

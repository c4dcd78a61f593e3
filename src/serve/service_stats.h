#ifndef CBIR_SERVE_SERVICE_STATS_H_
#define CBIR_SERVE_SERVICE_STATS_H_

#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace cbir::serve {

/// The latency machinery lives in obs/metrics.h now (the metrics registry
/// hands out the same histogram type for any named series); these aliases
/// keep the serve API spelled the way it always was.
using LatencySummary = obs::LatencySummary;
using LatencyHistogram = obs::LatencyHistogram;

/// \brief One coherent snapshot of everything the serving layer counts,
/// surfaced the way IndexStats is for the index layer.
struct ServiceStats {
  // Request counters.
  uint64_t queries = 0;        ///< first-round Query() calls answered
  uint64_t feedbacks = 0;      ///< Feedback() rounds ranked
  uint64_t candidate_queries = 0;  ///< sessionless FirstRoundCandidates calls
  uint64_t requests = 0;       ///< queries + feedbacks + candidate_queries

  // Session lifecycle (from the SessionManager).
  uint64_t sessions_started = 0;
  uint64_t sessions_ended = 0;          ///< explicit EndSession calls
  uint64_t sessions_evicted_capacity = 0;
  uint64_t sessions_evicted_ttl = 0;
  uint64_t active_sessions = 0;

  // First-round cache (from the QueryCache).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;

  // Feedback log integration.
  uint64_t log_sessions_appended = 0;  ///< LogSessions flushed to the store

  // Fault tolerance: requests rejected instead of served, and retried
  // requests answered from the idempotency cache instead of re-applied.
  uint64_t requests_shed_overload = 0;  ///< kUnavailable: over max_inflight
  uint64_t requests_shed_deadline = 0;  ///< kDeadlineExceeded on arrival
  uint64_t feedback_replays = 0;        ///< duplicate seq answered from cache

  // Session memory: bytes of the kernel columns sessions carry across
  // rounds (a candidate pool's; a corpus-wide scan's are released after
  // each round) across all live sessions. Grows with feedback rounds,
  // returns to zero as sessions end or are evicted.
  uint64_t session_kernel_cache_bytes = 0;

  double elapsed_seconds = 0.0;  ///< since service start
  /// requests / elapsed_seconds (0 when no time has passed).
  double qps = 0.0;
  /// cache_hits / (cache_hits + cache_misses), 1.0 when no lookups ran.
  double cache_hit_rate = 1.0;

  LatencySummary latency;  ///< over all Query, Feedback, candidate calls
};

/// One-line human-readable rendering, in the "index stats:" key=value style
/// the experiment driver uses.
std::string FormatServiceStats(const ServiceStats& stats);

}  // namespace cbir::serve

#endif  // CBIR_SERVE_SERVICE_STATS_H_

#ifndef CBIR_ROUTER_SHARD_ROUTER_H_
#define CBIR_ROUTER_SHARD_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "api/handler.h"
#include "api/messages.h"
#include "obs/metrics.h"
#include "router/backend_pool.h"
#include "router/hash_ring.h"
#include "util/result.h"
#include "util/sync.h"

namespace cbir::router {

/// \brief ShardRouter knobs.
struct RouterOptions {
  /// Vnodes per backend on the placement ring.
  int vnodes_per_backend = 64;
};

/// \brief Lifetime counters of a ShardRouter.
struct RouterStats {
  uint64_t sessions_started = 0;
  uint64_t sessions_ended = 0;
  uint64_t active_sessions = 0;
  uint64_t scatter_queries = 0;      ///< first-round fan-outs attempted
  uint64_t degraded_responses = 0;   ///< merges missing >= 1 shard
  uint64_t feedbacks_forwarded = 0;  ///< pinned forwards that went out
  uint64_t failfast_unavailable = 0; ///< pinned requests rejected, no network
};

/// \brief Session-affine front tier over N backend shards, speaking the same
/// wire API as a single cbir_server — clients cannot tell the difference
/// except for the new degraded bit.
///
/// Placement: a new session's router-assigned id is consistent-hashed onto
/// the backend ring (healthy backends only) and the session is *pinned*
/// there — relevance feedback trains an SVM whose state lives in that one
/// shard's session table, so every post-feedback request must land on the
/// same backend. The router keeps the pin (router session id -> backend +
/// backend session id) and translates ids in both directions.
///
/// First-round requests (Query before any Feedback, and stateless
/// CandidateRequests) carry no per-session state, so they scatter to every
/// healthy shard in parallel and merge by distance. A shard that cannot
/// answer inside the per-shard deadline is dropped from the merge and the
/// response goes out with the degraded flag (frame flag 0x20) — partial
/// results over no results.
///
/// Failure contract: a pinned session whose backend is ejected fails fast
/// with typed kUnavailable (no network touched). The SVM state is gone with
/// the shard; the client restarts the session, which the ring places on a
/// surviving backend. When the shard returns, the health checker re-admits
/// it and new sessions flow there again automatically.
///
/// Thread-safe (the transport calls from one thread per connection). The
/// session-table lock is never held across a network call.
class ShardRouter : public api::RequestHandler {
 public:
  /// `pool` must be started and must outlive the router.
  ShardRouter(BackendPool* pool, RouterOptions options);

  api::Response HandleRequest(const api::Request& request,
                              const api::RequestEnvelope& envelope,
                              int64_t elapsed_ms,
                              api::ResponseContext* context) override;

  /// Reads the router's own registry: every RouterStats field is one of its
  /// series.
  RouterStats stats() const;

  /// The router's metrics registry (the `cbir_router_*` series). A router
  /// binary Include()s it into MetricsRegistry::Default() to export it.
  obs::MetricsRegistry& metrics() { return metrics_; }

  /// The backend index a live router session is pinned to (tests).
  Result<int> SessionBackend(uint64_t router_session_id) const;

  const BackendPool& pool() const { return *pool_; }

 private:
  /// One pinned session. `fed_back` flips on the first successful Feedback:
  /// before it the session's Query answers are the stateless first round
  /// (scattered); after it they are SVM rankings only the pinned shard can
  /// produce.
  struct PinnedSession {
    int backend = -1;
    uint64_t backend_session_id = 0;
    api::QuerySpec query;
    bool fed_back = false;
    /// Next idempotency seq for forwarded Feedback. Per-session, so the
    /// (session, seq) dedup key stays unique even though successive rounds
    /// may ride different pooled client connections.
    uint32_t next_seq = 1;
  };

  api::Response Handle(const api::StartSessionRequest& request);
  api::Response Handle(const api::QueryRequest& request,
                       api::ResponseContext* context);
  api::Response Handle(const api::FeedbackRequest& request,
                       const api::RequestEnvelope& envelope);
  api::Response Handle(const api::EndSessionRequest& request);
  api::Response Handle(const api::CandidateRequest& request,
                       api::ResponseContext* context);
  api::StatsResponse BuildStats() const;

  /// Scatters `query` to every healthy backend, merges to the global top-k.
  /// Sets *degraded when any configured shard is missing from the merge;
  /// fails kUnavailable when no shard contributed.
  Result<std::vector<api::Candidate>> ScatterCandidates(
      const api::QuerySpec& query, int k, bool* degraded);

  BackendPool* pool_;
  RouterOptions options_;
  HashRing ring_;

  std::atomic<uint64_t> next_session_id_{1};

  mutable util::Mutex sessions_mu_{util::LockRank::kRouterSessions,
                                   "router_sessions"};
  std::unordered_map<uint64_t, PinnedSession> sessions_
      CBIR_GUARDED_BY(sessions_mu_);

  // Each routing event is counted once, in metrics_; the handles are
  // looked up in the constructor and stats() reads them back.
  obs::MetricsRegistry metrics_;
  obs::Counter* sessions_started_ = nullptr;
  obs::Counter* sessions_ended_ = nullptr;
  obs::Counter* scatter_queries_ = nullptr;
  obs::Counter* degraded_responses_ = nullptr;
  obs::Counter* feedbacks_forwarded_ = nullptr;
  obs::Counter* failfast_unavailable_ = nullptr;
  obs::Gauge* active_sessions_ = nullptr;  ///< set under sessions_mu_
};

}  // namespace cbir::router

#endif  // CBIR_ROUTER_SHARD_ROUTER_H_

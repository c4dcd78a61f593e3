#include "router/shard_router.h"

#include <algorithm>
#include <string>
#include <thread>
#include <utility>
#include <variant>

#include "router/merge.h"

namespace cbir::router {

namespace {

/// The fail-fast error a pinned session gets when its shard is ejected. The
/// message tells the client what to do: the SVM state died with the shard,
/// so restart the session (the ring will place it on a healthy backend).
Status PinnedUnavailable(const std::string& backend_label) {
  return Status::Unavailable(
      "router: session is pinned to backend " + backend_label +
      ", which is ejected — restart the session to continue");
}

}  // namespace

ShardRouter::ShardRouter(BackendPool* pool, RouterOptions options)
    : pool_(pool),
      options_(options),
      ring_(pool->num_backends(), options.vnodes_per_backend) {
  sessions_started_ = metrics_.GetCounter("cbir_router_sessions_started_total");
  sessions_ended_ = metrics_.GetCounter("cbir_router_sessions_ended_total");
  scatter_queries_ = metrics_.GetCounter("cbir_router_scatter_total");
  degraded_responses_ = metrics_.GetCounter("cbir_router_degraded_total");
  feedbacks_forwarded_ =
      metrics_.GetCounter("cbir_router_feedbacks_forwarded_total");
  failfast_unavailable_ = metrics_.GetCounter("cbir_router_failfast_total");
  active_sessions_ = metrics_.GetGauge("cbir_router_active_sessions");
  metrics_.SetHelp("cbir_router_degraded_total",
                   "Responses merged from fewer shards than configured.");
}

api::Response ShardRouter::HandleRequest(const api::Request& request,
                                         const api::RequestEnvelope& envelope,
                                         int64_t elapsed_ms,
                                         api::ResponseContext* context) {
  if (envelope.has_deadline &&
      elapsed_ms >= static_cast<int64_t>(envelope.deadline_ms)) {
    return api::StatusOnlyResponse(
        request,
        Status::DeadlineExceeded(
            "request deadline of " + std::to_string(envelope.deadline_ms) +
            "ms expired before dispatch (" + std::to_string(elapsed_ms) +
            "ms elapsed)"));
  }
  return std::visit(
      [&](const auto& typed) -> api::Response {
        using Req = std::decay_t<decltype(typed)>;
        if constexpr (std::is_same_v<Req, api::StartSessionRequest>) {
          return Handle(typed);
        } else if constexpr (std::is_same_v<Req, api::QueryRequest>) {
          return Handle(typed, context);
        } else if constexpr (std::is_same_v<Req, api::FeedbackRequest>) {
          return Handle(typed, envelope);
        } else if constexpr (std::is_same_v<Req, api::EndSessionRequest>) {
          return Handle(typed);
        } else if constexpr (std::is_same_v<Req, api::CandidateRequest>) {
          return Handle(typed, context);
        } else if constexpr (std::is_same_v<Req, api::StatsRequest>) {
          return BuildStats();
        } else if constexpr (std::is_same_v<Req, api::MetricsRequest>) {
          return api::MetricsSnapshotResponse();
        } else {
          // DescribeRequest: the router answers from the pool's validated
          // reference description — drivers learn the corpus without ever
          // talking to a shard directly.
          api::DescribeResponse response = pool_->describe();
          response.status = api::WireStatus{};
          return response;
        }
      },
      request);
}

api::Response ShardRouter::Handle(const api::StartSessionRequest& request) {
  api::StartSessionResponse response;
  const uint64_t router_sid =
      next_session_id_.fetch_add(1, std::memory_order_relaxed);
  const int backend = ring_.Pick(
      router_sid, [this](int b) { return pool_->healthy(b); });
  if (backend < 0) {
    failfast_unavailable_->Increment();
    response.status = api::ToWireStatus(
        Status::Unavailable("router: no healthy backends"));
    return response;
  }
  Result<BackendPool::Lease> lease = pool_->LeaseSession(backend);
  if (!lease.ok()) {
    response.status = api::ToWireStatus(lease.status());
    return response;
  }
  Result<uint64_t> backend_sid = lease.value()->StartSession(request.query);
  pool_->ReportOutcome(backend, backend_sid.status());
  if (!backend_sid.ok()) {
    response.status = api::ToWireStatus(backend_sid.status());
    return response;
  }
  {
    util::MutexLock lock(sessions_mu_);
    PinnedSession pin;
    pin.backend = backend;
    pin.backend_session_id = backend_sid.value();
    pin.query = request.query;
    sessions_.emplace(router_sid, std::move(pin));
    active_sessions_->Set(static_cast<int64_t>(sessions_.size()));
  }
  sessions_started_->Increment();
  response.session_id = router_sid;
  return response;
}

Result<std::vector<api::Candidate>> ShardRouter::ScatterCandidates(
    const api::QuerySpec& query, int k, bool* degraded) {
  scatter_queries_->Increment();
  const std::vector<int> healthy = pool_->HealthyBackends();
  const int total = pool_->num_backends();
  if (healthy.empty()) {
    *degraded = true;
    degraded_responses_->Increment();
    return Status::Unavailable("router: no healthy backends to scatter to");
  }
  const int want = k > 0 ? k : pool_->describe().default_k;
  struct Leg {
    bool contributed = false;
    std::vector<api::Candidate> candidates;
  };
  std::vector<Leg> legs(healthy.size());
  std::vector<std::thread> threads;
  threads.reserve(healthy.size());
  for (size_t i = 0; i < healthy.size(); ++i) {
    threads.emplace_back([this, &legs, &healthy, &query, want, i] {
      const int backend = healthy[i];
      Result<BackendPool::Lease> lease = pool_->LeaseScatter(backend);
      if (!lease.ok()) return;  // ejected since the healthy snapshot
      Result<std::vector<api::Candidate>> result =
          lease.value()->Candidates(query, want);
      pool_->ReportOutcome(backend, result.status());
      if (result.ok()) {
        legs[i].contributed = true;
        legs[i].candidates = std::move(result.value());
      }
    });
  }
  // Bounded join: every leg's client is capped by shard_deadline_ms, so a
  // dead shard costs one deadline, never a hang.
  for (std::thread& t : threads) t.join();
  std::vector<std::vector<api::Candidate>> contributions;
  contributions.reserve(legs.size());
  for (Leg& leg : legs) {
    if (leg.contributed) contributions.push_back(std::move(leg.candidates));
  }
  *degraded = static_cast<int>(contributions.size()) < total;
  if (*degraded) {
    degraded_responses_->Increment();
  }
  if (contributions.empty()) {
    return Status::Unavailable(
        "router: every shard failed the first-round scatter");
  }
  return MergeCandidates(contributions, want);
}

api::Response ShardRouter::Handle(const api::QueryRequest& request,
                                  api::ResponseContext* context) {
  api::QueryResponse response;
  PinnedSession pin;
  {
    util::MutexLock lock(sessions_mu_);
    auto it = sessions_.find(request.session_id);
    if (it == sessions_.end()) {
      response.status = api::ToWireStatus(Status::NotFound(
          "router: unknown session id " +
          std::to_string(request.session_id)));
      return response;
    }
    pin = it->second;
  }
  if (!pin.fed_back) {
    // Pre-feedback, the answer is the stateless first round: scatter it so
    // the merge survives the pinned shard being slow or gone.
    bool degraded = false;
    Result<std::vector<api::Candidate>> merged = ScatterCandidates(
        pin.query, static_cast<int>(request.k), &degraded);
    if (degraded && context != nullptr) context->degraded = true;
    if (!merged.ok()) {
      response.status = api::ToWireStatus(merged.status());
      return response;
    }
    response.ranking.reserve(merged.value().size());
    for (const api::Candidate& c : merged.value()) {
      response.ranking.push_back(c.id);
    }
    return response;
  }
  // Post-feedback, only the pinned shard holds the SVM ranking.
  if (!pool_->healthy(pin.backend)) {
    failfast_unavailable_->Increment();
    response.status = api::ToWireStatus(
        PinnedUnavailable(pool_->endpoint(pin.backend).Label()));
    return response;
  }
  Result<BackendPool::Lease> lease = pool_->LeaseSession(pin.backend);
  if (!lease.ok()) {
    response.status = api::ToWireStatus(lease.status());
    return response;
  }
  Result<std::vector<int>> ranking = lease.value()->Query(
      pin.backend_session_id, static_cast<int>(request.k));
  pool_->ReportOutcome(pin.backend, ranking.status());
  if (!ranking.ok()) {
    response.status = api::ToWireStatus(ranking.status());
    return response;
  }
  response.ranking.assign(ranking.value().begin(), ranking.value().end());
  return response;
}

api::Response ShardRouter::Handle(const api::FeedbackRequest& request,
                                  const api::RequestEnvelope& envelope) {
  api::FeedbackResponse response;
  PinnedSession pin;
  uint32_t seq = 0;
  {
    util::MutexLock lock(sessions_mu_);
    auto it = sessions_.find(request.session_id);
    if (it == sessions_.end()) {
      response.status = api::ToWireStatus(Status::NotFound(
          "router: unknown session id " +
          std::to_string(request.session_id)));
      return response;
    }
    // The forwarded idempotency seq: the client's own when it sent one
    // (its retries must keep deduplicating), else the session's counter.
    // Either way the counter moves past it so later rounds stay unique.
    seq = envelope.has_seq ? envelope.seq : it->second.next_seq;
    it->second.next_seq = std::max(it->second.next_seq, seq) + 1;
    if (it->second.next_seq == 0) it->second.next_seq = 1;
    pin = it->second;
  }
  if (!pool_->healthy(pin.backend)) {
    failfast_unavailable_->Increment();
    response.status = api::ToWireStatus(
        PinnedUnavailable(pool_->endpoint(pin.backend).Label()));
    return response;
  }
  Result<BackendPool::Lease> lease = pool_->LeaseSession(pin.backend);
  if (!lease.ok()) {
    response.status = api::ToWireStatus(lease.status());
    return response;
  }
  Result<std::vector<int>> ranking =
      lease.value()->Feedback(pin.backend_session_id, request.round,
                              static_cast<int>(request.k), seq);
  pool_->ReportOutcome(pin.backend, ranking.status());
  if (!ranking.ok()) {
    response.status = api::ToWireStatus(ranking.status());
    return response;
  }
  feedbacks_forwarded_->Increment();
  {
    util::MutexLock lock(sessions_mu_);
    auto it = sessions_.find(request.session_id);
    if (it != sessions_.end()) it->second.fed_back = true;
  }
  response.ranking.assign(ranking.value().begin(), ranking.value().end());
  return response;
}

api::Response ShardRouter::Handle(const api::EndSessionRequest& request) {
  api::EndSessionResponse response;
  PinnedSession pin;
  {
    util::MutexLock lock(sessions_mu_);
    auto it = sessions_.find(request.session_id);
    if (it == sessions_.end()) {
      response.status = api::ToWireStatus(Status::NotFound(
          "router: unknown session id " +
          std::to_string(request.session_id)));
      return response;
    }
    pin = it->second;
    sessions_.erase(it);
    active_sessions_->Set(static_cast<int64_t>(sessions_.size()));
  }
  sessions_ended_->Increment();
  // Best-effort backend cleanup: if the shard is gone, its session table
  // TTL-evicts the orphan on its own — the router's contract (the pin is
  // released) is already satisfied.
  if (pool_->healthy(pin.backend)) {
    Result<BackendPool::Lease> lease = pool_->LeaseSession(pin.backend);
    if (lease.ok()) {
      const Status forwarded =
          lease.value()->EndSession(pin.backend_session_id);
      pool_->ReportOutcome(pin.backend, forwarded);
    }
  }
  return response;
}

api::Response ShardRouter::Handle(const api::CandidateRequest& request,
                                  api::ResponseContext* context) {
  api::CandidateResponse response;
  bool degraded = false;
  Result<std::vector<api::Candidate>> merged = ScatterCandidates(
      request.query, static_cast<int>(request.k), &degraded);
  if (degraded && context != nullptr) context->degraded = true;
  if (!merged.ok()) {
    response.status = api::ToWireStatus(merged.status());
    return response;
  }
  response.candidates = std::move(merged.value());
  return response;
}

api::StatsResponse ShardRouter::BuildStats() const {
  const RouterStats s = stats();
  api::StatsResponse response;
  response.queries = s.scatter_queries;
  response.feedbacks = s.feedbacks_forwarded;
  response.requests = s.scatter_queries + s.feedbacks_forwarded;
  response.sessions_started = s.sessions_started;
  response.sessions_ended = s.sessions_ended;
  response.active_sessions = s.active_sessions;
  return response;
}

RouterStats ShardRouter::stats() const {
  RouterStats s;
  s.sessions_started = sessions_started_->value();
  s.sessions_ended = sessions_ended_->value();
  s.active_sessions = static_cast<uint64_t>(active_sessions_->value());
  s.scatter_queries = scatter_queries_->value();
  s.degraded_responses = degraded_responses_->value();
  s.feedbacks_forwarded = feedbacks_forwarded_->value();
  s.failfast_unavailable = failfast_unavailable_->value();
  return s;
}

Result<int> ShardRouter::SessionBackend(uint64_t router_session_id) const {
  util::MutexLock lock(sessions_mu_);
  auto it = sessions_.find(router_session_id);
  if (it == sessions_.end()) {
    return Status::NotFound("router: unknown session id " +
                            std::to_string(router_session_id));
  }
  return it->second.backend;
}

}  // namespace cbir::router

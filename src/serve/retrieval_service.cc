#include "serve/retrieval_service.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "la/vector_ops.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/sync.h"

namespace cbir::serve {

namespace {

/// Attaches the index work done inside its scope to the current request's
/// trace as per-request counters (EXPLAIN's `index_*` lines). The index
/// counters are process-wide atomics, so under concurrent traffic a delta
/// can include a slice of another request's scan — the numbers are
/// attributions, not exact accounting (see docs/OBSERVABILITY.md).
class ScopedIndexCounters {
 public:
  explicit ScopedIndexCounters(const retrieval::Index* index)
      : index_(index), trace_(obs::CurrentTrace()) {
    if (index_ != nullptr && trace_ != nullptr) before_ = index_->stats();
  }
  ~ScopedIndexCounters() {
    if (index_ == nullptr || trace_ == nullptr) return;
    const retrieval::IndexStats after = index_->stats();
    trace_->AddCounter(
        "index_rows_scanned",
        static_cast<int64_t>(after.rows_scanned - before_.rows_scanned));
    trace_->AddCounter("index_signatures_scanned",
                       static_cast<int64_t>(after.signatures_scanned -
                                            before_.signatures_scanned));
    trace_->AddCounter("index_candidates_reranked",
                       static_cast<int64_t>(after.candidates_reranked -
                                            before_.candidates_reranked));
  }
  ScopedIndexCounters(const ScopedIndexCounters&) = delete;
  ScopedIndexCounters& operator=(const ScopedIndexCounters&) = delete;

 private:
  const retrieval::Index* index_;
  obs::RequestTrace* trace_;
  retrieval::IndexStats before_;
};

}  // namespace

RetrievalService::RetrievalService(
    const retrieval::ImageDatabase* db, const la::Matrix* log_features,
    logdb::LogStore* log_store,
    std::shared_ptr<const core::FeedbackScheme> scheme,
    const ServiceOptions& options)
    : db_(db),
      log_rows_(log_features != nullptr
                    ? la::SparseRows::FromDense(*log_features)
                    : la::SparseRows()),
      log_store_(log_store),
      scheme_(std::move(scheme)),
      options_(options),
      cache_(options.cache),
      next_session_id_(options.first_session_id) {
  queries_ = metrics_.GetCounter("cbir_serve_queries_total");
  candidate_queries_ =
      metrics_.GetCounter("cbir_serve_candidate_queries_total");
  feedbacks_ = metrics_.GetCounter("cbir_serve_feedbacks_total");
  log_sessions_appended_ =
      metrics_.GetCounter("cbir_serve_log_sessions_appended_total");
  shed_overload_ = metrics_.GetCounter("cbir_serve_shed_overload_total");
  shed_deadline_ = metrics_.GetCounter("cbir_serve_shed_deadline_total");
  feedback_replays_ = metrics_.GetCounter("cbir_serve_feedback_replays_total");
  session_kernel_bytes_ =
      metrics_.GetGauge("cbir_serve_session_kernel_cache_bytes");
  request_us_ = metrics_.GetHistogram("cbir_serve_request_us");
  // The stage histograms share the net layer's `cbir_request_stage_us`
  // family, so one metric name tells the whole per-request story.
  const auto stage = [this](const char* name) {
    return metrics_.GetHistogram("cbir_request_stage_us", "stage", name);
  };
  stage_admission_ = stage("admission");
  stage_queue_wait_ = stage("queue_wait");
  stage_index_scan_ = stage("index_scan");
  stage_solve_ = stage("solve");
  metrics_.SetHelp("cbir_serve_queries_total",
                   "Session Query() calls answered (not candidate calls).");
  metrics_.SetHelp("cbir_serve_candidate_queries_total",
                   "Sessionless first-round candidate calls answered.");
  metrics_.SetHelp("cbir_serve_request_us",
                   "Service-side latency of Query, Feedback and candidate "
                   "calls.");
  sessions_ = std::make_unique<SessionManager>(
      options_.sessions,
      [this](ServeSession& session) {
        // The manager holds the victim's lock across the callback; re-assert
        // the capability across the type-erased std::function boundary.
        session.mu.AssertHeld();
        FlushSessionLocked(session);
      });
}

Result<std::unique_ptr<RetrievalService>> RetrievalService::Create(
    const retrieval::ImageDatabase* db, const la::Matrix* log_features,
    logdb::LogStore* log_store, const core::SchemeOptions& scheme_options,
    const ServiceOptions& options) {
  if (db == nullptr) {
    return Status::InvalidArgument("retrieval service: null database");
  }
  if (log_features != nullptr && !log_features->empty() &&
      log_features->rows() != static_cast<size_t>(db->num_images())) {
    return Status::InvalidArgument(
        "retrieval service: log matrix needs one row per image");
  }
  if (options.default_k <= 0) {
    return Status::InvalidArgument("retrieval service: default_k must be > 0");
  }
  if (options.candidate_depth < 0) {
    return Status::InvalidArgument(
        "retrieval service: candidate_depth must be >= 0");
  }
  if (options.sessions.max_sessions == 0) {
    return Status::InvalidArgument(
        "retrieval service: max_sessions must be > 0");
  }
  if (options.first_session_id == 0) {
    return Status::InvalidArgument(
        "retrieval service: first_session_id must be >= 1");
  }
  if (options.sessions.ttl_seconds < 0.0) {
    return Status::InvalidArgument(
        "retrieval service: ttl_seconds must be >= 0");
  }
  CBIR_ASSIGN_OR_RETURN(
      std::shared_ptr<core::FeedbackScheme> scheme,
      core::MakeScheme(options.scheme, scheme_options, options.csvm));
  return std::unique_ptr<RetrievalService>(new RetrievalService(
      db, log_features, log_store, std::move(scheme), options));
}

Result<uint64_t> RetrievalService::StartSession(int query_id) {
  if (query_id < 0 || query_id >= db_->num_images()) {
    return Status::InvalidArgument(
        "retrieval service: query id " + std::to_string(query_id) +
        " out of range [0, " + std::to_string(db_->num_images()) + ")");
  }
  return RegisterSession(query_id, db_->feature(query_id));
}

Result<uint64_t> RetrievalService::StartSession(const la::Vec& query_feature) {
  CBIR_RETURN_NOT_OK(
      core::CheckQueryFeature(*db_, query_feature, "retrieval service"));
  return RegisterSession(-1, query_feature);
}

uint64_t RetrievalService::RegisterSession(int query_id,
                                           la::Vec query_feature) {
  const uint64_t id =
      next_session_id_.fetch_add(1, std::memory_order_relaxed);
  // Fully initialize before registering: the session only becomes visible
  // to concurrent Acquire calls once its context is ready. Register() also
  // runs the lazy TTL sweep.
  core::FeedbackContext ctx;
  ctx.db = db_;
  ctx.log_rows = &log_rows_;
  ctx.query_id = query_id;
  ctx.candidate_depth = options_.candidate_depth;
  ctx.query_feature = std::move(query_feature);
  auto session = std::make_shared<ServeSession>(std::move(ctx));
  session->id = id;
  sessions_->Register(std::move(session));
  return id;
}

std::vector<int> RetrievalService::FirstRoundRanking(
    const la::Vec& query_feature,
    std::optional<std::vector<int>>* candidates) {
  const int depth = core::FirstRoundDepth(*db_, options_.candidate_depth);
  // Full-corpus rankings (depth <= 0) are never cached: the cache capacity
  // counts entries, so corpus-length vectors would turn it into
  // corpus-size x 4096 bytes of memory. Bounded-depth serving configs (a
  // positive candidate_depth over an index) get the memoization.
  std::vector<int> ranking;
  if (depth <= 0) {
    ScopedIndexCounters index_counters(db_->index());
    ranking = db_->TopK(query_feature, depth);
  } else {
    // The cached ranking still contains the query row itself: the service's
    // database, index and depth are fixed, so the TopK result depends only
    // on the feature, and sessions for different images with identical
    // features can share one entry; the caller-specific self-exclusion
    // happens after the fetch.
    const uint64_t key = QueryCache::FingerprintQuery(query_feature);
    const bool hit = cache_.Lookup(key, &ranking);
    if (!hit) {
      ScopedIndexCounters index_counters(db_->index());
      ranking = db_->TopK(query_feature, depth,
                          candidates != nullptr ? &candidates->emplace()
                                                : nullptr);
      cache_.Insert(key, ranking);
    }
    if (obs::RequestTrace* trace = obs::CurrentTrace(); trace != nullptr) {
      trace->AddCounter("query_cache_hit", hit ? 1 : 0);
    }
  }
  return ranking;
}

Result<std::vector<ScoredCandidate>> RetrievalService::FirstRoundCandidates(
    const la::Vec& query_feature, int k, int exclude_id) {
  Stopwatch watch;
  obs::ScopedSpan admission_span("admission", stage_admission_);
  AdmissionSlot slot(this);
  if (!slot.admitted()) return ShedOverload();
  admission_span.End();
  CBIR_RETURN_NOT_OK(
      core::CheckQueryFeature(*db_, query_feature, "retrieval service"));
  std::vector<int> ranking;
  {
    obs::ScopedSpan scan_span("index_scan", stage_index_scan_);
    ranking = FirstRoundRanking(query_feature);
  }
  if (exclude_id >= 0) {
    ranking.erase(std::remove(ranking.begin(), ranking.end(), exclude_id),
                  ranking.end());
  }
  const int want = k > 0 ? k : options_.default_k;
  const size_t n =
      std::min(ranking.size(), static_cast<size_t>(want));
  std::vector<ScoredCandidate> out(n);
  // Distances are recomputed exactly over the truncated prefix (n rows, not
  // the whole ranking): TopK already ordered by exact distance, the router
  // just needs the values to merge shard lists on.
  const la::Matrix& features = db_->features();
  for (size_t i = 0; i < n; ++i) {
    out[i].id = ranking[i];
    out[i].distance = std::sqrt(la::SquaredDistanceN(
        query_feature.data(), features.RowPtr(static_cast<size_t>(ranking[i])),
        features.cols()));
  }
  candidate_queries_->Increment();
  request_us_->Record(watch.ElapsedSeconds() * 1e6);
  return out;
}

Result<std::vector<int>> RetrievalService::TopKOfRanking(
    const ServeSession& session, int k) const {
  const std::vector<int>& ranking = session.feedback.ranking();
  const int want = k > 0 ? k : options_.default_k;
  const size_t n = std::min(ranking.size(), static_cast<size_t>(want));
  return std::vector<int>(ranking.begin(),
                          ranking.begin() + static_cast<long>(n));
}

RetrievalService::AdmissionSlot::AdmissionSlot(RetrievalService* service)
    : service_(service), admitted_(true) {
  const size_t cap = service_->options_.max_inflight;
  if (cap == 0) return;  // unbounded: every request is admitted
  // Optimistically claim a slot and back out when over the cap; the window
  // where two racers both see the cap reached just sheds both, which is the
  // safe direction for an overload valve.
  const uint64_t prior =
      service_->inflight_.fetch_add(1, std::memory_order_relaxed);
  if (prior >= cap) {
    service_->inflight_.fetch_sub(1, std::memory_order_relaxed);
    admitted_ = false;
  }
}

RetrievalService::AdmissionSlot::~AdmissionSlot() {
  if (admitted_ && service_->options_.max_inflight > 0) {
    service_->inflight_.fetch_sub(1, std::memory_order_relaxed);
  }
}

Status RetrievalService::ShedOverload() {
  shed_overload_->Increment();
  // The hint is a rough p50 of recent requests: by then a slot has likely
  // freed up. Clients without better information back off around it.
  const double p50_us = request_us_->Summarize().p50_us;
  const int retry_ms =
      std::max(1, static_cast<int>(p50_us / 1000.0));
  return Status::Unavailable(
      "retrieval service: overloaded (" +
      std::to_string(options_.max_inflight) +
      " requests in flight); retry after ~" + std::to_string(retry_ms) +
      "ms");
}

void RetrievalService::RecordDeadlineShed() {
  shed_deadline_->Increment();
}

Result<std::vector<int>> RetrievalService::Query(uint64_t session_id, int k) {
  Stopwatch watch;
  obs::ScopedSpan admission_span("admission", stage_admission_);
  AdmissionSlot slot(this);
  if (!slot.admitted()) return ShedOverload();
  admission_span.End();
  obs::ScopedSpan queue_span("queue_wait", stage_queue_wait_);
  std::shared_ptr<ServeSession> session = sessions_->Acquire(session_id);
  if (session == nullptr) {
    return Status::NotFound("retrieval service: unknown session");
  }
  util::MutexLock lock(session->mu);
  queue_span.End();
  if (session->ended) {
    return Status::NotFound("retrieval service: session already ended");
  }
  if (!session->feedback.has_ranking()) {
    obs::ScopedSpan scan_span("index_scan", stage_index_scan_);
    std::optional<std::vector<int>> candidates;
    std::vector<int> ranking = FirstRoundRanking(
        session->feedback.context().query_feature, &candidates);
    session->feedback.SetFirstRound(std::move(ranking),
                                    std::move(candidates));
  }
  Result<std::vector<int>> out = TopKOfRanking(*session, k);
  queries_->Increment();
  request_us_->Record(watch.ElapsedSeconds() * 1e6);
  return out;
}

Result<std::vector<int>> RetrievalService::Feedback(
    uint64_t session_id, const std::vector<logdb::LogEntry>& round, int k,
    uint32_t seq) {
  Stopwatch watch;
  obs::ScopedSpan admission_span("admission", stage_admission_);
  AdmissionSlot slot(this);
  if (!slot.admitted()) return ShedOverload();
  admission_span.End();
  for (const logdb::LogEntry& e : round) {
    if (e.image_id < 0 || e.image_id >= db_->num_images()) {
      return Status::InvalidArgument(
          "retrieval service: judged image id out of range");
    }
    if (e.judgment != 1 && e.judgment != -1) {
      return Status::InvalidArgument(
          "retrieval service: judgment must be +-1");
    }
  }
  obs::ScopedSpan queue_span("queue_wait", stage_queue_wait_);
  std::shared_ptr<ServeSession> session = sessions_->Acquire(session_id);
  if (session == nullptr) {
    return Status::NotFound("retrieval service: unknown session");
  }
  util::MutexLock lock(session->mu);
  queue_span.End();
  if (session->ended) {
    return Status::NotFound("retrieval service: session already ended");
  }
  if (seq != 0 && session->last_feedback_seq != 0) {
    if (seq == session->last_feedback_seq) {
      // A retry of the round already applied (the reply got lost, not the
      // request): answer from the cache, apply nothing a second time.
      feedback_replays_->Increment();
      return session->last_feedback_response;
    }
    if (seq < session->last_feedback_seq) {
      return Status::FailedPrecondition(
          "retrieval service: stale feedback seq " + std::to_string(seq) +
          " (already applied up to " +
          std::to_string(session->last_feedback_seq) + ")");
    }
  }
  {
    // Covers the first round's candidate scan and everything Rank touches —
    // the index work EXPLAIN attributes to this feedback round. A Prepare
    // failure is typed, not fatal, though StartSession validated the input.
    ScopedIndexCounters index_counters(db_->index());
    obs::ScopedSpan solve_span("solve", stage_solve_);
    CBIR_RETURN_NOT_OK(session->feedback.ApplyRound(*scheme_, round));
  }
  // Settle this session's carried kernel memory against the service-wide
  // gauge (the round may have grown its kernel columns or, on the first
  // round, created them).
  const size_t kernel_bytes = session->feedback.kernel_bytes();
  session_kernel_bytes_->Add(
      static_cast<int64_t>(kernel_bytes) -
      static_cast<int64_t>(session->accounted_kernel_bytes));
  session->accounted_kernel_bytes = kernel_bytes;
  Result<std::vector<int>> out = TopKOfRanking(*session, k);
  if (seq != 0 && out.ok()) {
    session->last_feedback_seq = seq;
    session->last_feedback_response = out.value();
  }
  feedbacks_->Increment();
  request_us_->Record(watch.ElapsedSeconds() * 1e6);
  return out;
}

Status RetrievalService::EndSession(uint64_t session_id) {
  std::shared_ptr<ServeSession> session = sessions_->Remove(session_id);
  if (session == nullptr) {
    return Status::NotFound("retrieval service: unknown session");
  }
  util::MutexLock lock(session->mu);
  session->ended = true;
  FlushSessionLocked(*session);
  return Status::OK();
}

size_t RetrievalService::EvictExpiredSessions() {
  return sessions_->EvictExpired();
}

void RetrievalService::FlushSessionLocked(ServeSession& session) {
  // The PR 3 invariant, now machine-checked: flushes (end, TTL/capacity
  // eviction) run under the victim's session lock but never under the
  // manager lock, so a slow log append cannot stall Start/Acquire traffic
  // for every other session.
  util::AssertRankNotHeld(util::LockRank::kSessionManager,
                          "flushing a session to the log store");
  // The session is ended (or evicted): End() hands over its recorded rounds
  // and releases its kernel columns — eviction must actually bound memory —
  // so refund the accounted bytes.
  std::vector<logdb::LogSession> rounds = session.feedback.End();
  if (log_store_ != nullptr) {
    for (logdb::LogSession& record : rounds) {
      log_store_->Append(std::move(record));
      log_sessions_appended_->Increment();
    }
  }
  if (session.accounted_kernel_bytes != 0) {
    session_kernel_bytes_->Add(
        -static_cast<int64_t>(session.accounted_kernel_bytes));
    session.accounted_kernel_bytes = 0;
  }
}

ServiceStats RetrievalService::stats() const {
  ServiceStats s;
  s.queries = queries_->value();
  s.feedbacks = feedbacks_->value();
  s.candidate_queries = candidate_queries_->value();
  s.requests = s.queries + s.feedbacks + s.candidate_queries;

  const SessionManagerStats sm = sessions_->stats();
  s.sessions_started = sm.started;
  s.sessions_ended = sm.ended;
  s.sessions_evicted_capacity = sm.evicted_capacity;
  s.sessions_evicted_ttl = sm.evicted_ttl;
  s.active_sessions = sm.active;

  const QueryCacheStats qc = cache_.stats();
  s.cache_hits = qc.hits;
  s.cache_misses = qc.misses;
  s.cache_evictions = qc.evictions;
  s.cache_hit_rate = qc.hit_rate();

  s.log_sessions_appended = log_sessions_appended_->value();
  s.requests_shed_overload = shed_overload_->value();
  s.requests_shed_deadline = shed_deadline_->value();
  s.feedback_replays = feedback_replays_->value();
  s.session_kernel_cache_bytes = static_cast<uint64_t>(
      std::max<int64_t>(session_kernel_bytes_->value(), 0));
  s.elapsed_seconds = uptime_.ElapsedSeconds();
  s.qps = s.elapsed_seconds > 0.0
              ? static_cast<double>(s.requests) / s.elapsed_seconds
              : 0.0;
  s.latency = request_us_->Summarize();
  return s;
}

}  // namespace cbir::serve

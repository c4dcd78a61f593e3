#ifndef CBIR_SERVE_RETRIEVAL_SERVICE_H_
#define CBIR_SERVE_RETRIEVAL_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/scheme_factory.h"
#include "la/sparse_rows.h"
#include "logdb/log_store.h"
#include "obs/metrics.h"
#include "retrieval/image_database.h"
#include "serve/query_cache.h"
#include "serve/service_stats.h"
#include "serve/session_manager.h"
#include "util/result.h"
#include "util/stopwatch.h"

namespace cbir::serve {

/// \brief Configuration of one RetrievalService.
struct ServiceOptions {
  /// Feedback scheme ranking every session's rounds (a core::MakeScheme
  /// name: "Euclidean", "RF-SVM", "LRF-2SVMs", "LRF-CSVM").
  std::string scheme = "LRF-CSVM";
  /// LRF-CSVM knobs (ignored by the other schemes).
  core::LrfCsvmOptions csvm;
  /// Retrieval depth of the per-session ranking: how deep the first-round
  /// retrieval and every re-ranking go when the database carries an
  /// approximate index (the session can serve results and accept judgments
  /// down to this rank). 0 = full corpus ranking — exact, but every round
  /// scans everything and first-round results are not cached (corpus-length
  /// rankings would blow the entry-counted cache); pick max-results +
  /// expected rounds * judgments like FeedbackLoopOptions::candidate_depth
  /// does.
  int candidate_depth = 0;
  /// Results returned by Query/Feedback when the caller passes k = 0.
  int default_k = 20;
  /// Admission control: hard cap on concurrently executing Query/Feedback
  /// requests (0 = unbounded, the pre-fault-tolerance behavior). A request
  /// arriving with the cap already reached is rejected immediately with
  /// kUnavailable (and a retry-after hint in the message) instead of
  /// queueing — under overload the service sheds load at the door rather
  /// than growing an unbounded latency queue.
  size_t max_inflight = 0;
  /// First session id this service issues (ids count up from here, must be
  /// >= 1). A sharded deployment gives each shard a disjoint id range so a
  /// router — or an operator reading two shards' logs — can tell sessions
  /// apart without a mapping table.
  uint64_t first_session_id = 1;
  SessionManagerOptions sessions;
  QueryCacheOptions cache;
};

/// \brief One scored first-round candidate: a corpus image id plus its
/// exact feature distance to the query. Distances make per-shard candidate
/// lists mergeable by a router.
struct ScoredCandidate {
  int id = -1;
  double distance = 0.0;

  bool operator==(const ScoredCandidate& o) const {
    return id == o.id && distance == o.distance;
  }
};

/// \brief Thread-safe many-user serving facade over one shared
/// ImageDatabase (+ optional retrieval index), feedback scheme, and log
/// store — the deployment loop the paper assumes: many users run feedback
/// sessions concurrently, and every completed session lands in the log
/// database future queries learn from.
///
/// Concurrency model: the database, log-feature matrix, and scheme are
/// immutable and shared by all sessions; per-session mutable state lives in
/// a ServeSession behind its own mutex (SessionManager, TTL + LRU bounded);
/// first-round rankings are memoized in a sharded QueryCache, keyed by the
/// query feature and never invalidated, since the data they derive from
/// stays fixed for the service's lifetime. Requests for
/// different sessions never contend beyond map lookups, so throughput
/// scales with cores until the corpus scans themselves saturate memory
/// bandwidth.
///
/// Every session's rounds run through one core::FeedbackSession, the type
/// core::RunFeedbackSession drives too, so a single-threaded session
/// reproduces it exactly: same first-round ranking, same scan narrowing,
/// same re-rankings, same recorded log rounds (verified by
/// tests/serve/retrieval_service_test.cc).
class RetrievalService {
 public:
  /// `db` must outlive the service and stay unmodified while it serves —
  /// swap in a new service after a rebuild. `log_features` (null, empty, or
  /// one row per image) is copied once into sparse rows the service owns.
  /// `log_store` may be null (completed sessions are then dropped instead
  /// of appended); it may be shared with other writers since LogStore
  /// synchronizes internally.
  static Result<std::unique_ptr<RetrievalService>> Create(
      const retrieval::ImageDatabase* db, const la::Matrix* log_features,
      logdb::LogStore* log_store, const core::SchemeOptions& scheme_options,
      const ServiceOptions& options);

  /// Opens a feedback session for the given corpus query image and returns
  /// its session id. May evict the least-recently-used session at capacity.
  Result<uint64_t> StartSession(int query_id);

  /// Opens a feedback session for an external query feature vector — the
  /// standard CBIR query-by-example setting where the query image is not
  /// part of the corpus (remote callers hand us raw features through
  /// api::QuerySpec). The vector must match the corpus feature
  /// dimensionality and be finite. Unlike an in-corpus session no row is
  /// excluded from the ranking: a corpus image with the identical feature
  /// ranks first instead of being dropped, so such a session reproduces the
  /// matching in-corpus session's ranking with that one image re-inserted.
  Result<uint64_t> StartSession(const la::Vec& query_feature);

  /// Top-k of the session's current ranking (k = 0 uses default_k; k is
  /// clamped to the ranking depth). The first call of a session computes —
  /// or serves from the query cache — the first-round retrieval; after
  /// Feedback() it returns the re-ranked results.
  Result<std::vector<int>> Query(uint64_t session_id, int k = 0);

  /// Applies one round of user judgments (+1 relevant / -1 irrelevant,
  /// already-judged and query-self entries are ignored), re-ranks with the
  /// scheme, records the round for the log store, and returns the new
  /// top-k.
  ///
  /// `seq` (nonzero) makes the call idempotent per session: a retry carrying
  /// the seq already applied is answered from the session's cached response
  /// without re-applying the round, so a client that resends after a lost
  /// reply never double-counts judgments. Seqs must be issued in increasing
  /// order by a serial caller; one older than the last applied is rejected
  /// as FailedPrecondition. 0 (the default) bypasses the dedup entirely.
  Result<std::vector<int>> Feedback(uint64_t session_id,
                                    const std::vector<logdb::LogEntry>& round,
                                    int k = 0, uint32_t seq = 0);

  /// Sessionless first-round retrieval: the top-k candidates nearest
  /// `query_feature` with their exact distances, sorted by (distance, id)
  /// ascending and served through the same index/cache path as a session's
  /// first round (k = 0 uses default_k; the ranking depth still caps the
  /// answer). `exclude_id` >= 0 drops that corpus row — the in-corpus
  /// query's self-exclusion. This is the unit a shard router scatter-gathers
  /// and merges by distance.
  Result<std::vector<ScoredCandidate>> FirstRoundCandidates(
      const la::Vec& query_feature, int k, int exclude_id = -1);

  /// Closes the session and appends its recorded rounds to the log store —
  /// the paper's "deployment accumulates the feedback log" loop. Unknown
  /// (ended, evicted, never-issued) ids return NotFound.
  Status EndSession(uint64_t session_id);

  /// Sweeps TTL-expired sessions now (they are also swept lazily on every
  /// StartSession). Evicted sessions flush to the log store like ended
  /// ones. Returns how many were evicted.
  size_t EvictExpiredSessions();

  /// Counts one request the transport shed for an expired deadline (the
  /// dispatcher decides; the service only owns the counter).
  void RecordDeadlineShed();

  /// Reads the service's own registry: every counter and histogram in
  /// ServiceStats is one of its series.
  ServiceStats stats() const;

  /// The service's metrics registry (the `cbir_serve_*` series and the
  /// admission/queue_wait/index_scan/solve stage histograms). A server
  /// binary Include()s it into MetricsRegistry::Default() to export it.
  obs::MetricsRegistry& metrics() { return metrics_; }

  const ServiceOptions& options() const { return options_; }
  const retrieval::ImageDatabase& db() const { return *db_; }

 private:
  RetrievalService(const retrieval::ImageDatabase* db,
                   const la::Matrix* log_features, logdb::LogStore* log_store,
                   std::shared_ptr<const core::FeedbackScheme> scheme,
                   const ServiceOptions& options);

  /// Builds + registers a session (query_id = -1 for an external query whose
  /// feature is passed in `query_feature`); shared by both StartSession
  /// overloads.
  uint64_t RegisterSession(int query_id, la::Vec query_feature);

  /// The shared first-round retrieval: TopK at core::FirstRoundDepth,
  /// through the query cache when the depth is bounded. A session's first
  /// Query and FirstRoundCandidates build on it; each excludes its own id.
  /// When `candidates` is non-null and the index scan runs (a cache miss
  /// at a bounded depth), it gets the candidate set that scan reranked,
  /// for the session's first round to reuse.
  std::vector<int> FirstRoundRanking(
      const la::Vec& query_feature,
      std::optional<std::vector<int>>* candidates = nullptr);

  /// Finishes an ended/evicted session under its mutex: ends its
  /// FeedbackSession, moves the recorded rounds into the log store and
  /// settles the session-memory accounting.
  void FlushSessionLocked(ServeSession& session) CBIR_REQUIRES(session.mu);

  /// Top-k of the session's current ranking (k = 0 uses default_k).
  Result<std::vector<int>> TopKOfRanking(const ServeSession& session,
                                         int k) const
      CBIR_REQUIRES(session.mu);

  /// RAII admission slot: construction tries to claim one of max_inflight
  /// slots; admitted() says whether it succeeded, destruction releases it.
  class AdmissionSlot {
   public:
    explicit AdmissionSlot(RetrievalService* service);
    ~AdmissionSlot();
    AdmissionSlot(const AdmissionSlot&) = delete;
    AdmissionSlot& operator=(const AdmissionSlot&) = delete;
    bool admitted() const { return admitted_; }

   private:
    RetrievalService* service_;
    bool admitted_;
  };

  /// The kUnavailable status an over-capacity request is shed with.
  Status ShedOverload();

  const retrieval::ImageDatabase* db_;
  /// The log matrix given at construction, converted to sparse rows once;
  /// every session's context scores the log from these.
  const la::SparseRows log_rows_;
  logdb::LogStore* log_store_;
  std::shared_ptr<const core::FeedbackScheme> scheme_;
  ServiceOptions options_;

  std::unique_ptr<SessionManager> sessions_;
  /// First-round rankings keyed by query feature alone: db_, its index and
  /// the depth never change while the service lives.
  QueryCache cache_;

  Stopwatch uptime_;
  std::atomic<uint64_t> next_session_id_{1};
  std::atomic<uint64_t> inflight_{0};

  // Each serving event is counted once, in metrics_; the handles are looked
  // up in the constructor and stats() reads them back.
  obs::MetricsRegistry metrics_;
  obs::Counter* queries_ = nullptr;
  obs::Counter* candidate_queries_ = nullptr;
  obs::Counter* feedbacks_ = nullptr;
  obs::Counter* log_sessions_appended_ = nullptr;
  obs::Counter* shed_overload_ = nullptr;
  obs::Counter* shed_deadline_ = nullptr;
  obs::Counter* feedback_replays_ = nullptr;
  /// Sum over live sessions of their accounted_kernel_bytes (the kernel
  /// columns of their candidate pools); updated after each feedback round
  /// and settled to zero per session on end/eviction.
  obs::Gauge* session_kernel_bytes_ = nullptr;
  /// Latency of every Query, Feedback and candidate call.
  obs::LatencyHistogram* request_us_ = nullptr;
  obs::LatencyHistogram* stage_admission_ = nullptr;
  obs::LatencyHistogram* stage_queue_wait_ = nullptr;
  obs::LatencyHistogram* stage_index_scan_ = nullptr;
  obs::LatencyHistogram* stage_solve_ = nullptr;
};

}  // namespace cbir::serve

#endif  // CBIR_SERVE_RETRIEVAL_SERVICE_H_

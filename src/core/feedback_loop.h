#ifndef CBIR_CORE_FEEDBACK_LOOP_H_
#define CBIR_CORE_FEEDBACK_LOOP_H_

#include <optional>
#include <unordered_set>
#include <vector>

#include "core/feedback_scheme.h"
#include "la/sparse_rows.h"
#include "logdb/log_session.h"
#include "retrieval/image_database.h"
#include "util/result.h"

namespace cbir::core {

/// TopK depth of a session's first-round retrieval: `candidate_depth` when
/// the database carries an index and it is > 0, else -1 (the full ranking).
int FirstRoundDepth(const retrieval::ImageDatabase& db, int candidate_depth);

/// \brief One relevance-feedback session across its rounds (paper Section
/// 2: "the relevance feedback procedures are repeated again and again until
/// the targets are found").
///
/// Owns what a session carries across rounds: the context (with a
/// candidate pool's kernel columns), the warm-start state, the judged set
/// (query included), the current ranking and the rounds recorded for the
/// log. The serving layer and RunFeedbackSession both apply rounds through
/// it. Not thread-safe; not movable (the context points at the owned
/// warm-start state).
class FeedbackSession {
 public:
  /// `ctx` names the database, log rows, query (a corpus id, or -1 with an
  /// external `query_feature`) and candidate depth; its labels start empty.
  explicit FeedbackSession(FeedbackContext ctx);
  FeedbackSession(const FeedbackSession&) = delete;
  FeedbackSession& operator=(const FeedbackSession&) = delete;

  /// Installs the caller's first-round ranking (a server's may come from a
  /// cache), with the query id dropped. `candidates`, when given, is the
  /// candidate set the same index scan reranked for it (ImageDatabase::TopK
  /// at FirstRoundDepth returns it); the first round's Prepare then uses it
  /// instead of scanning the index a second time.
  void SetFirstRound(std::vector<int> ranking,
                     std::optional<std::vector<int>> candidates = {});

  /// Applies one round of judgments: drops already-judged and query ids,
  /// appends the rest as labels, prepares the context on the first round
  /// only, and re-ranks with `scheme`; a corpus-wide scan's kernel columns
  /// are released after the ranking. The round is recorded for the log
  /// only once Rank succeeded, and only if it judged something new. A
  /// round whose Rank fails leaves the labels and the judged set as they
  /// were, so a retry of the round applies it in full.
  Status ApplyRound(const FeedbackScheme& scheme,
                    const std::vector<logdb::LogEntry>& round);

  /// Ends the session: returns its recorded rounds, in order, and releases
  /// the warm-start duals and kernel columns.
  std::vector<logdb::LogSession> End();

  const FeedbackContext& context() const { return ctx_; }
  bool has_ranking() const { return has_ranking_; }
  /// The current ranking, query id excluded.
  const std::vector<int>& ranking() const { return ranking_; }
  /// Bytes of the kernel columns the context holds between rounds.
  size_t kernel_bytes() const { return ctx_.KernelColumnBytes(); }

 private:
  FeedbackContext ctx_;
  SessionState warm_start_;
  bool prepared_ = false;
  /// The first page's candidate set, until the first round's Prepare.
  std::optional<std::vector<int>> first_candidates_;
  std::unordered_set<int> judged_;
  std::vector<int> ranking_;
  bool has_ranking_ = false;
  std::vector<logdb::LogSession> recorded_;
};

/// \brief Configuration of an iterative relevance-feedback session.
struct FeedbackLoopOptions {
  /// Number of feedback rounds after the initial Euclidean retrieval.
  int rounds = 4;
  /// Images judged per round (the paper's N_l per round).
  int judgments_per_round = 20;
  /// Noise applied to the in-session user judgments (0 reproduces the
  /// paper's automatic evaluation protocol).
  double judgment_noise = 0.0;
  /// Scopes at which precision is recorded after every round.
  std::vector<int> scopes = {20};
  uint64_t seed = 1;
  /// Retrieval depth requested from an approximate database index
  /// (0 = auto: max scope + rounds * judgments_per_round + 1). Ignored when
  /// the database has no index or an exhaustive one.
  int candidate_depth = 0;
};

/// \brief Result of one feedback session.
struct FeedbackLoopResult {
  /// precision[r][s] = precision at scopes[s] after round r (round 0 is the
  /// initial Euclidean retrieval, before any feedback).
  std::vector<std::vector<double>> precision;
  /// Total images judged by the simulated user across all rounds.
  int total_judgments = 0;
  /// The session recorded in log form (one LogSession per round that judged
  /// something), ready to be appended to a LogStore — this is how a
  /// deployment accumulates the long-term log the paper's schemes consume.
  std::vector<logdb::LogSession> recorded_sessions;
};

/// \brief Runs a complete multi-round relevance-feedback session for one
/// query: a simulated user drives a FeedbackSession through the initial
/// Euclidean retrieval, then `rounds` iterations of judging the top
/// unjudged results followed by re-ranking with `scheme`.
///
/// `log_rows` (null, empty, or one row per image) is the corpus's log.
/// Deterministic in `options.seed`.
Result<FeedbackLoopResult> RunFeedbackSession(
    const retrieval::ImageDatabase& db, const la::SparseRows* log_rows,
    const FeedbackScheme& scheme, int query_id,
    const FeedbackLoopOptions& options);

}  // namespace cbir::core

#endif  // CBIR_CORE_FEEDBACK_LOOP_H_

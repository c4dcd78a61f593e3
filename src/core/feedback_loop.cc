#include "core/feedback_loop.h"

#include <algorithm>
#include <unordered_set>

#include "retrieval/evaluator.h"
#include "retrieval/ranker.h"
#include "util/logging.h"
#include "util/rng.h"

namespace cbir::core {

Result<FeedbackLoopResult> RunFeedbackSession(
    const retrieval::ImageDatabase& db, const la::Matrix* log_features,
    const FeedbackScheme& scheme, int query_id,
    const FeedbackLoopOptions& options) {
  if (query_id < 0 || query_id >= db.num_images()) {
    return Status::InvalidArgument("query id out of range");
  }
  if (options.rounds < 0 || options.judgments_per_round <= 0) {
    return Status::InvalidArgument("invalid feedback loop configuration");
  }
  if (options.scopes.empty()) {
    return Status::InvalidArgument("at least one evaluation scope required");
  }

  const la::SparseRows log_rows = log_features != nullptr
                                      ? la::SparseRows::FromDense(*log_features)
                                      : la::SparseRows();
  FeedbackContext ctx;
  ctx.db = &db;
  ctx.log_rows = log_rows.empty() ? nullptr : &log_rows;
  ctx.query_id = query_id;
  // Round t+1's QPs differ from round t's only by the newly judged images;
  // the session state lets SVM-based schemes warm-start from round t's duals.
  SessionState session_state;
  ctx.session_state = &session_state;
  // Depth the session consumes from an approximate index: the deepest scope
  // read each round plus every judgment the session will request.
  int max_scope = 0;
  for (int scope : options.scopes) max_scope = std::max(max_scope, scope);
  ctx.candidate_depth =
      options.candidate_depth > 0
          ? options.candidate_depth
          : max_scope + options.rounds * options.judgments_per_round + 1;
  CBIR_RETURN_NOT_OK(ctx.Prepare());

  const int query_category = db.category(query_id);
  logdb::SimulatedUser user(db.categories(),
                            logdb::UserModel{options.judgment_noise});
  Rng rng(options.seed);

  FeedbackLoopResult result;

  // Round 0: plain Euclidean retrieval. When Prepare() narrowed the scan
  // space, the candidate scan already ran for this exact (query, depth) —
  // rank the gathered distances instead of paying a second index scan
  // (scan_ids is ascending, so position ties break on the smaller id just
  // like RankByEuclidean). Otherwise the exhaustive path is unchanged.
  std::vector<int> current;
  if (!ctx.scan_ids.empty()) {
    std::vector<double> scores(ctx.query_distances.size());
    for (size_t i = 0; i < scores.size(); ++i) {
      scores[i] = -ctx.query_distances[i];
    }
    for (int pos : retrieval::RankByScoreDesc(scores, {},
                                              ctx.candidate_depth)) {
      current.push_back(ctx.ScanId(static_cast<size_t>(pos)));
    }
  } else {
    current = db.TopK(ctx.query_feature,
                      db.index() == nullptr ? -1 : ctx.candidate_depth);
  }
  current.erase(std::remove(current.begin(), current.end(), query_id),
                current.end());
  result.precision.push_back(retrieval::PrecisionAtScopes(
      current, db.categories(), query_category, options.scopes));

  std::unordered_set<int> judged{query_id};
  for (int round = 1; round <= options.rounds; ++round) {
    // The user judges the top unjudged results of the current ranking.
    logdb::LogSession session;
    session.query_image_id = query_id;
    for (int id : current) {
      if (static_cast<int>(session.entries.size()) >=
          options.judgments_per_round) {
        break;
      }
      if (!judged.insert(id).second) continue;
      const int8_t judgment = user.Judge(id, query_category, &rng);
      session.entries.push_back(logdb::LogEntry{id, judgment});
      ctx.labeled_ids.push_back(id);
      ctx.labels.push_back(judgment);
    }
    result.total_judgments += static_cast<int>(session.entries.size());
    result.recorded_sessions.push_back(std::move(session));

    CBIR_ASSIGN_OR_RETURN(current, scheme.Rank(ctx));
    result.precision.push_back(retrieval::PrecisionAtScopes(
        current, db.categories(), query_category, options.scopes));
  }
  return result;
}

}  // namespace cbir::core

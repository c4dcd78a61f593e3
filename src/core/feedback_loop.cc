#include "core/feedback_loop.h"

#include <algorithm>
#include <utility>

#include "logdb/simulated_user.h"
#include "retrieval/evaluator.h"
#include "util/rng.h"

namespace cbir::core {

int FirstRoundDepth(const retrieval::ImageDatabase& db, int candidate_depth) {
  return db.index() != nullptr && candidate_depth > 0 ? candidate_depth : -1;
}

FeedbackSession::FeedbackSession(FeedbackContext ctx)
    : ctx_(std::move(ctx)), judged_{ctx_.query_id} {
  // Round t+1's QPs differ from round t's only by the newly judged images;
  // the session state lets SVM-based schemes warm-start from round t's duals.
  ctx_.session_state = &warm_start_;
}

void FeedbackSession::SetFirstRound(
    std::vector<int> ranking, std::optional<std::vector<int>> candidates) {
  std::erase(ranking, ctx_.query_id);
  ranking_ = std::move(ranking);
  has_ranking_ = true;
  first_candidates_ = std::move(candidates);
}

Status FeedbackSession::ApplyRound(const FeedbackScheme& scheme,
                                   const std::vector<logdb::LogEntry>& round) {
  if (!prepared_) {
    // One candidate scan narrows every round's scoring loops; deferred to
    // the first round so a session that only queries never pays it, and
    // skipped when the first page's scan already produced the set.
    CBIR_RETURN_NOT_OK(ctx_.Prepare(
        first_candidates_ ? &*first_candidates_ : nullptr));
    prepared_ = true;
    first_candidates_.reset();
  }
  logdb::LogSession record;
  record.query_image_id = ctx_.query_id;
  const size_t labeled_before = ctx_.labeled_ids.size();
  for (const logdb::LogEntry& e : round) {
    if (!judged_.insert(e.image_id).second) continue;  // duplicate or query
    ctx_.labeled_ids.push_back(e.image_id);
    ctx_.labels.push_back(static_cast<double>(e.judgment));
    record.entries.push_back(e);
  }
  Result<std::vector<int>> ranked = scheme.Rank(ctx_);
  // A candidate pool's kernel columns carry into the next round, where
  // only the newly labeled images' columns are computed; a corpus-wide
  // scan's (scan size x 8 B each) do not outlive the round.
  if (ctx_.scan_ids.empty()) ctx_.ReleaseKernelColumns();
  if (!ranked.ok()) {
    // Roll the round back: its judgments never steered a ranking, and a
    // retry must find them unjudged to apply and record them.
    ctx_.labeled_ids.resize(labeled_before);
    ctx_.labels.resize(labeled_before);
    for (const logdb::LogEntry& e : record.entries) judged_.erase(e.image_id);
    return ranked.status();
  }
  ranking_ = std::move(ranked).value();
  has_ranking_ = true;
  // Recorded only after the round actually ranked: a failed round must not
  // end up in the persisted feedback log.
  if (!record.entries.empty()) recorded_.push_back(std::move(record));
  return Status::OK();
}

std::vector<logdb::LogSession> FeedbackSession::End() {
  warm_start_.alphas.clear();
  ctx_.ReleaseKernelColumns();
  return std::exchange(recorded_, {});
}

Result<FeedbackLoopResult> RunFeedbackSession(
    const retrieval::ImageDatabase& db, const la::SparseRows* log_rows,
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

  FeedbackContext ctx;
  ctx.db = &db;
  ctx.log_rows = log_rows;
  ctx.query_id = query_id;
  // Depth the session consumes from an approximate index: the deepest scope
  // read each round plus every judgment the session will request.
  ctx.candidate_depth =
      options.candidate_depth > 0
          ? options.candidate_depth
          : *std::max_element(options.scopes.begin(), options.scopes.end()) +
                options.rounds * options.judgments_per_round + 1;
  const int first_depth = FirstRoundDepth(db, ctx.candidate_depth);
  FeedbackSession session(std::move(ctx));
  std::vector<int> candidates;
  std::vector<int> first_page =
      db.TopK(db.feature(query_id), first_depth, &candidates);
  session.SetFirstRound(std::move(first_page), std::move(candidates));

  const int query_category = db.category(query_id);
  const logdb::SimulatedUser user(db.categories(),
                                  logdb::UserModel{options.judgment_noise});
  Rng rng(options.seed);
  std::unordered_set<int> judged{query_id};
  FeedbackLoopResult result;
  const auto score = [&] {
    result.precision.push_back(retrieval::PrecisionAtScopes(
        session.ranking(), db.categories(), query_category, options.scopes));
  };
  score();
  for (int round = 1; round <= options.rounds; ++round) {
    // The user judges the top unjudged results of the current ranking.
    const std::vector<logdb::LogEntry> judgments =
        user.JudgeRound(session.ranking(), query_category,
                        options.judgments_per_round, &judged, &rng);
    result.total_judgments += static_cast<int>(judgments.size());
    CBIR_RETURN_NOT_OK(session.ApplyRound(scheme, judgments));
    score();
  }
  result.recorded_sessions = session.End();
  return result;
}

}  // namespace cbir::core

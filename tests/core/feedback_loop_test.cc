#include "core/feedback_loop.h"

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/euclidean_scheme.h"
#include "core/scheme_factory.h"
#include "logdb/log_store.h"

namespace cbir::core {
namespace {

class FeedbackLoopTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    retrieval::DatabaseOptions options;
    options.corpus.num_categories = 4;
    options.corpus.images_per_category = 20;
    options.corpus.width = 48;
    options.corpus.height = 48;
    options.corpus.seed = 9;
    db_ = new retrieval::ImageDatabase(
        retrieval::ImageDatabase::Build(options));
    scheme_options_ = new SchemeOptions(
        MakeDefaultSchemeOptions(*db_, nullptr));
  }
  static void TearDownTestSuite() {
    delete scheme_options_;
    delete db_;
  }

  static retrieval::ImageDatabase* db_;
  static SchemeOptions* scheme_options_;
};

retrieval::ImageDatabase* FeedbackLoopTest::db_ = nullptr;
SchemeOptions* FeedbackLoopTest::scheme_options_ = nullptr;

TEST_F(FeedbackLoopTest, ResultShape) {
  const auto scheme = MakeScheme("RF-SVM", *scheme_options_).value();
  FeedbackLoopOptions options;
  options.rounds = 3;
  options.judgments_per_round = 10;
  options.scopes = {10, 20};
  auto result = RunFeedbackSession(*db_, nullptr, *scheme, 5, options);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->precision.size(), 4u);  // round 0 + 3 feedback rounds
  for (const auto& row : result->precision) {
    ASSERT_EQ(row.size(), 2u);
    for (double p : row) {
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
  }
  EXPECT_EQ(result->total_judgments, 30);
  EXPECT_EQ(result->recorded_sessions.size(), 3u);
}

TEST_F(FeedbackLoopTest, JudgmentsNeverRepeatAcrossRounds) {
  const auto scheme = MakeScheme("RF-SVM", *scheme_options_).value();
  FeedbackLoopOptions options;
  options.rounds = 4;
  options.judgments_per_round = 8;
  auto result = RunFeedbackSession(*db_, nullptr, *scheme, 12, options);
  ASSERT_TRUE(result.ok());
  std::set<int> seen;
  for (const auto& session : result->recorded_sessions) {
    EXPECT_EQ(session.query_image_id, 12);
    for (const auto& entry : session.entries) {
      EXPECT_NE(entry.image_id, 12);  // the query is never judged
      EXPECT_TRUE(seen.insert(entry.image_id).second)
          << "image " << entry.image_id << " judged twice";
    }
  }
}

TEST_F(FeedbackLoopTest, FeedbackImprovesOverInitialRetrieval) {
  const auto scheme = MakeScheme("RF-SVM", *scheme_options_).value();
  FeedbackLoopOptions options;
  options.rounds = 3;
  options.judgments_per_round = 15;
  // Average over several queries: feedback must beat round 0 on average.
  double initial_sum = 0.0, final_sum = 0.0;
  int count = 0;
  for (int query = 0; query < 79; query += 13) {
    auto result = RunFeedbackSession(*db_, nullptr, *scheme, query, options);
    ASSERT_TRUE(result.ok());
    initial_sum += result->precision.front()[0];
    final_sum += result->precision.back()[0];
    ++count;
  }
  EXPECT_GT(final_sum / count, initial_sum / count);
}

TEST_F(FeedbackLoopTest, RecordedSessionsFeedTheLogStore) {
  // A session's recorded judgments are exactly the long-term log unit the
  // paper's schemes consume: appending them must build a valid matrix.
  const auto scheme = MakeScheme("RF-SVM", *scheme_options_).value();
  FeedbackLoopOptions options;
  options.rounds = 2;
  options.judgments_per_round = 10;
  auto result = RunFeedbackSession(*db_, nullptr, *scheme, 30, options);
  ASSERT_TRUE(result.ok());

  logdb::LogStore store;
  for (const auto& session : result->recorded_sessions) {
    store.Append(session);
  }
  EXPECT_EQ(store.num_sessions(), 2);
  const logdb::RelevanceMatrix matrix = store.BuildMatrix(db_->num_images());
  EXPECT_EQ(matrix.PositiveCount() + matrix.NegativeCount(),
            result->total_judgments);
}

TEST_F(FeedbackLoopTest, DeterministicInSeed) {
  const auto scheme = MakeScheme("RF-SVM", *scheme_options_).value();
  FeedbackLoopOptions options;
  options.rounds = 2;
  options.judgment_noise = 0.3;  // exercises the RNG path
  auto a = RunFeedbackSession(*db_, nullptr, *scheme, 7, options);
  auto b = RunFeedbackSession(*db_, nullptr, *scheme, 7, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->precision, b->precision);
}

TEST_F(FeedbackLoopTest, ZeroRoundsIsInitialRetrievalOnly) {
  EuclideanScheme scheme;
  FeedbackLoopOptions options;
  options.rounds = 0;
  auto result = RunFeedbackSession(*db_, nullptr, scheme, 3, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->precision.size(), 1u);
  EXPECT_EQ(result->total_judgments, 0);
}

TEST_F(FeedbackLoopTest, RoundsThatJudgeNothingAreNotRecorded) {
  // 79 judgeable images: four rounds of 20 exhaust them, the fifth judges
  // nothing and is left out of the log.
  EuclideanScheme scheme;
  FeedbackLoopOptions options;
  options.rounds = 5;
  options.judgments_per_round = 20;
  auto result = RunFeedbackSession(*db_, nullptr, scheme, 3, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->precision.size(), 6u);
  EXPECT_EQ(result->total_judgments, db_->num_images() - 1);
  EXPECT_EQ(result->recorded_sessions.size(), 4u);
}

/// Fails every Rank call: a round that does not rank.
class FailingScheme : public FeedbackScheme {
 public:
  std::string name() const override { return "Failing"; }
  Result<std::vector<int>> Rank(const FeedbackContext&) const override {
    return Status::Internal("rank failed");
  }
};

TEST_F(FeedbackLoopTest, SessionAppliesRoundsOnce) {
  retrieval::ImageDatabase db(*db_);  // copy: private index
  retrieval::IndexOptions index_options;
  index_options.mode = retrieval::IndexMode::kSignature;
  db.BuildIndex(index_options);
  FeedbackContext ctx;
  ctx.db = &db;
  ctx.query_id = 5;
  ctx.candidate_depth = 30;
  FeedbackSession session(std::move(ctx));
  EXPECT_FALSE(session.has_ranking());
  session.SetFirstRound({7, 5, 6});
  EXPECT_TRUE(session.has_ranking());
  EXPECT_EQ(session.ranking(), (std::vector<int>{7, 6}));  // query dropped

  const auto scheme = MakeScheme("RF-SVM", *scheme_options_).value();
  // The query and repeats are dropped; the rest become labels and one
  // recorded round.
  ASSERT_TRUE(session
                  .ApplyRound(*scheme, {{5, 1}, {7, 1}, {7, -1}, {40, -1}})
                  .ok());
  EXPECT_EQ(session.context().labeled_ids, (std::vector<int>{7, 40}));
  EXPECT_EQ(session.context().labels, (std::vector<double>{1.0, -1.0}));
  EXPECT_FALSE(session.ranking().empty());
  EXPECT_GT(session.kernel_bytes(), 0u);  // the pool's columns carry
  // Nothing new: the round ranks but is not recorded.
  ASSERT_TRUE(session.ApplyRound(*scheme, {{40, -1}}).ok());
  // A round that fails to rank keeps the last ranking and is not recorded.
  const std::vector<int> before = session.ranking();
  EXPECT_FALSE(session.ApplyRound(FailingScheme(), {{8, 1}}).ok());
  EXPECT_EQ(session.ranking(), before);
  // The context was prepared once: one candidate scan for three rounds.
  EXPECT_EQ(db.index()->stats().queries, 1u);

  const std::vector<logdb::LogSession> recorded = session.End();
  ASSERT_EQ(recorded.size(), 1u);
  EXPECT_EQ(recorded[0].query_image_id, 5);
  ASSERT_EQ(recorded[0].entries.size(), 2u);
  EXPECT_EQ(recorded[0].entries[0].image_id, 7);
  EXPECT_EQ(recorded[0].entries[1].image_id, 40);
  EXPECT_EQ(session.kernel_bytes(), 0u);  // and are released
  EXPECT_TRUE(session.End().empty());
}

/// Fails its first Rank call, then forwards to `inner`.
class FailOnceScheme : public FeedbackScheme {
 public:
  explicit FailOnceScheme(std::shared_ptr<FeedbackScheme> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  Result<std::vector<int>> Rank(const FeedbackContext& ctx) const override {
    if (!failed_) {
      failed_ = true;
      return Status::Internal("rank failed");
    }
    return inner_->Rank(ctx);
  }

 private:
  std::shared_ptr<FeedbackScheme> inner_;
  mutable bool failed_ = false;
};

TEST_F(FeedbackLoopTest, FailedRoundIsRolledBackAndRetried) {
  FeedbackContext ctx;
  ctx.db = db_;
  ctx.query_id = 5;
  FeedbackSession session(std::move(ctx));
  session.SetFirstRound(db_->TopK(db_->feature(5)));
  const FailOnceScheme scheme(MakeScheme("RF-SVM", *scheme_options_).value());
  const std::vector<logdb::LogEntry> round = {{7, 1}, {40, -1}, {9, 1}};
  // The failed round leaves no labels behind...
  EXPECT_FALSE(session.ApplyRound(scheme, round).ok());
  EXPECT_TRUE(session.context().labeled_ids.empty());
  EXPECT_TRUE(session.context().labels.empty());
  // ...so its retry is applied in full, ranked and recorded.
  ASSERT_TRUE(session.ApplyRound(scheme, round).ok());
  EXPECT_EQ(session.context().labeled_ids, (std::vector<int>{7, 40, 9}));
  EXPECT_EQ(session.context().labels,
            (std::vector<double>{1.0, -1.0, 1.0}));
  EXPECT_EQ(session.ranking().size(),
            static_cast<size_t>(db_->num_images() - 1));
  const std::vector<logdb::LogSession> recorded = session.End();
  ASSERT_EQ(recorded.size(), 1u);
  ASSERT_EQ(recorded[0].entries.size(), 3u);
  EXPECT_EQ(recorded[0].entries[2].image_id, 9);
}

TEST_F(FeedbackLoopTest, FirstPageCandidatesSpareTheSecondScan) {
  retrieval::ImageDatabase db(*db_);  // copy: private index
  retrieval::IndexOptions index_options;
  index_options.mode = retrieval::IndexMode::kSignature;
  db.BuildIndex(index_options);
  const auto scheme = MakeScheme("RF-SVM", *scheme_options_).value();
  const std::vector<logdb::LogEntry> round = {{7, 1}, {40, -1}, {2, 1}};
  const auto run = [&](bool hand_over) {
    FeedbackContext ctx;
    ctx.db = &db;
    ctx.query_id = 5;
    ctx.candidate_depth = 10;
    FeedbackSession session(std::move(ctx));
    std::vector<int> candidates;
    std::vector<int> page = db.TopK(db.feature(5), 10, &candidates);
    EXPECT_EQ(candidates, db.index()->Candidates(db.feature(5), 10));
    if (hand_over) {
      session.SetFirstRound(std::move(page), std::move(candidates));
    } else {
      session.SetFirstRound(std::move(page));
    }
    const uint64_t scanned = db.index()->stats().signatures_scanned;
    EXPECT_TRUE(session.ApplyRound(*scheme, round).ok());
    EXPECT_FALSE(session.context().scan_ids.empty());
    return std::make_pair(session.ranking(),
                          db.index()->stats().signatures_scanned - scanned);
  };
  // The first round's Prepare scans the signatures again unless it is
  // handed the first page's candidates; the rankings are the same.
  const auto [scanned_ranking, rescanned] = run(false);
  const auto [handed_ranking, not_rescanned] = run(true);
  EXPECT_EQ(handed_ranking, scanned_ranking);
  EXPECT_EQ(rescanned, static_cast<uint64_t>(db.num_images()));
  EXPECT_EQ(not_rescanned, 0u);
}

TEST_F(FeedbackLoopTest, FirstRoundDepthNeedsAnIndexAndADepth) {
  EXPECT_EQ(FirstRoundDepth(*db_, 30), -1);  // no index: full ranking
  retrieval::ImageDatabase db(*db_);
  db.BuildIndex(retrieval::IndexOptions{});
  EXPECT_EQ(FirstRoundDepth(db, 30), 30);
  EXPECT_EQ(FirstRoundDepth(db, 0), -1);
}

TEST_F(FeedbackLoopTest, InputValidation) {
  EuclideanScheme scheme;
  FeedbackLoopOptions options;
  EXPECT_FALSE(RunFeedbackSession(*db_, nullptr, scheme, -1, options).ok());
  EXPECT_FALSE(
      RunFeedbackSession(*db_, nullptr, scheme, 9999, options).ok());
  options.judgments_per_round = 0;
  EXPECT_FALSE(RunFeedbackSession(*db_, nullptr, scheme, 0, options).ok());
  options.judgments_per_round = 10;
  options.scopes.clear();
  EXPECT_FALSE(RunFeedbackSession(*db_, nullptr, scheme, 0, options).ok());
}

}  // namespace
}  // namespace cbir::core

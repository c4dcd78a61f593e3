#include "core/feedback_scheme.h"

#include <algorithm>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "core/euclidean_scheme.h"
#include "index/index_factory.h"
#include "retrieval/ranker.h"
#include "util/rng.h"

namespace cbir::core {
namespace {

retrieval::ImageDatabase SmallDb() {
  retrieval::DatabaseOptions options;
  options.corpus.num_categories = 2;
  options.corpus.images_per_category = 6;
  options.corpus.width = 32;
  options.corpus.height = 32;
  options.corpus.seed = 5;
  return retrieval::ImageDatabase::Build(options);
}

TEST(FeedbackContextTest, PrepareFillsDerivedFields) {
  const retrieval::ImageDatabase db = SmallDb();
  FeedbackContext ctx;
  ctx.db = &db;
  ctx.query_id = 3;
  ASSERT_TRUE(ctx.Prepare().ok());
  EXPECT_EQ(ctx.query_feature, db.feature(3));
  ASSERT_EQ(ctx.query_distances.size(), static_cast<size_t>(db.num_images()));
  EXPECT_DOUBLE_EQ(ctx.query_distances[3], 0.0);  // self-distance
  for (double d : ctx.query_distances) EXPECT_GE(d, 0.0);
}

// Regression (issue 4, satellite 1): malformed input used to CBIR_CHECK-
// abort the process; it must surface as InvalidArgument so a bad request
// can never kill a serving process.
TEST(FeedbackContextTest, PrepareReturnsTypedErrorsInsteadOfAborting) {
  const retrieval::ImageDatabase db = SmallDb();
  {
    FeedbackContext ctx;  // no db
    ctx.query_id = 0;
    EXPECT_EQ(ctx.Prepare().code(), StatusCode::kInvalidArgument);
  }
  {
    FeedbackContext ctx;
    ctx.db = &db;
    ctx.query_id = 99;  // out of range
    const Status s = ctx.Prepare();
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(s.message().find("out of range"), std::string::npos);
  }
  {
    FeedbackContext ctx;
    ctx.db = &db;
    ctx.query_id = 0;
    ctx.labeled_ids = {1, 2};
    ctx.labels = {1.0};  // arity mismatch
    EXPECT_EQ(ctx.Prepare().code(), StatusCode::kInvalidArgument);
  }
  {
    FeedbackContext ctx;  // external query without a feature
    ctx.db = &db;
    ctx.query_id = -1;
    EXPECT_EQ(ctx.Prepare().code(), StatusCode::kInvalidArgument);
  }
  {
    FeedbackContext ctx;  // external query with wrong dimensionality
    ctx.db = &db;
    ctx.query_id = -1;
    ctx.query_feature = {1.0, 2.0};
    EXPECT_EQ(ctx.Prepare().code(), StatusCode::kInvalidArgument);
  }
}

TEST(FeedbackContextTest, PrepareRefusesANegativeRankDepth) {
  const retrieval::ImageDatabase db = SmallDb();
  FeedbackContext ctx;
  ctx.db = &db;
  ctx.query_id = 0;
  ctx.rank_depth = -1;
  const Status s = ctx.Prepare();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("rank depth"), std::string::npos) << s;
  ctx.rank_depth = 0;
  EXPECT_TRUE(ctx.Prepare().ok());
}

TEST(FeedbackContextTest, PrepareRejectsNonFiniteExternalFeatures) {
  const retrieval::ImageDatabase db = SmallDb();
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    FeedbackContext ctx;
    ctx.db = &db;
    ctx.query_id = -1;
    ctx.query_feature = db.feature(3);
    ctx.query_feature[1] = bad;
    const Status s = ctx.Prepare();
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(s.message().find("non-finite"), std::string::npos) << s;
  }
}

TEST(FeedbackContextTest, PrepareConvertsTheDenseLogAndChecksItsRows) {
  const retrieval::ImageDatabase db = SmallDb();
  la::Matrix dense(static_cast<size_t>(db.num_images()), 4, 0.0);
  dense.At(2, 1) = 1.0;
  dense.At(5, 3) = -0.25;
  FeedbackContext ctx;
  ctx.db = &db;
  ctx.query_id = 0;
  ctx.log_features = &dense;
  EXPECT_EQ(ctx.LogRows(), nullptr);  // converted by Prepare()
  ASSERT_TRUE(ctx.Prepare().ok());
  ASSERT_NE(ctx.LogRows(), nullptr);
  EXPECT_EQ(ctx.LogRows()->nnz(), 2u);
  EXPECT_EQ(ctx.LogRows()->GatherDense({2, 5}).data(),
            (std::vector<double>{0, 1, 0, 0, 0, 0, 0, -0.25}));
  EXPECT_EQ(ctx.ScanLogRows(), ctx.LogRows());  // exhaustive scan

  // Sparse rows given directly win over the dense adapter.
  const la::SparseRows sparse = la::SparseRows::FromDense(dense);
  ctx.log_rows = &sparse;
  ASSERT_TRUE(ctx.Prepare().ok());
  EXPECT_EQ(ctx.LogRows(), &sparse);

  // An empty log is no log.
  const la::Matrix no_sessions(static_cast<size_t>(db.num_images()), 0);
  ctx.log_rows = nullptr;
  ctx.log_features = &no_sessions;
  ASSERT_TRUE(ctx.Prepare().ok());
  EXPECT_EQ(ctx.LogRows(), nullptr);
  EXPECT_EQ(ctx.ScanLogRows(), nullptr);

  // A log without one row per image is a typed error, not a wild read.
  const la::Matrix short_log(3, 4, 1.0);
  ctx.log_features = &short_log;
  EXPECT_EQ(ctx.Prepare().code(), StatusCode::kInvalidArgument);
}

TEST(FeedbackContextTest, ExternalQueryFeaturePreparesLikeInCorpusQuery) {
  const retrieval::ImageDatabase db = SmallDb();
  FeedbackContext by_id;
  by_id.db = &db;
  by_id.query_id = 4;
  ASSERT_TRUE(by_id.Prepare().ok());

  FeedbackContext external;
  external.db = &db;
  external.query_id = -1;
  external.query_feature = db.feature(4);
  ASSERT_TRUE(external.Prepare().ok());

  EXPECT_EQ(external.query_feature, by_id.query_feature);
  EXPECT_EQ(external.query_distances, by_id.query_distances);
  EXPECT_EQ(external.scan_size(), by_id.scan_size());

  // The external session never excludes a corpus row: the identical-feature
  // image stays in the ranking (by-id drops it).
  EuclideanScheme scheme;
  auto external_ranked = scheme.Rank(external);
  auto by_id_ranked = scheme.Rank(by_id);
  ASSERT_TRUE(external_ranked.ok());
  ASSERT_TRUE(by_id_ranked.ok());
  ASSERT_EQ(external_ranked->size(), by_id_ranked->size() + 1);
  EXPECT_EQ(external_ranked->front(), 4);  // distance zero ranks first
  std::vector<int> stripped = external_ranked.value();
  stripped.erase(std::remove(stripped.begin(), stripped.end(), 4),
                 stripped.end());
  EXPECT_EQ(stripped, by_id_ranked.value());
}

TEST(FinalizeRankingTest, ExcludesQueryAndKeepsEveryoneElse) {
  const retrieval::ImageDatabase db = SmallDb();
  FeedbackContext ctx;
  ctx.db = &db;
  ctx.query_id = 7;
  ASSERT_TRUE(ctx.Prepare().ok());
  EuclideanScheme scheme;
  auto ranked = scheme.Rank(ctx);
  ASSERT_TRUE(ranked.ok());
  EXPECT_EQ(ranked->size(), static_cast<size_t>(db.num_images() - 1));
  for (int id : ranked.value()) EXPECT_NE(id, 7);
}

TEST(FinalizeRankingTest, EuclideanRanksNearestFirst) {
  const retrieval::ImageDatabase db = SmallDb();
  FeedbackContext ctx;
  ctx.db = &db;
  ctx.query_id = 0;
  ASSERT_TRUE(ctx.Prepare().ok());
  EuclideanScheme scheme;
  auto ranked = scheme.Rank(ctx);
  ASSERT_TRUE(ranked.ok());
  // Distances along the returned order must be non-decreasing.
  for (size_t i = 0; i + 1 < ranked->size(); ++i) {
    EXPECT_LE(ctx.query_distances[static_cast<size_t>((*ranked)[i])],
              ctx.query_distances[static_cast<size_t>((*ranked)[i + 1])] +
                  1e-12);
  }
}

// Ranks by fixed scores, parallel to the scan space, through
// FinalizeRanking.
class FixedScoreScheme : public FeedbackScheme {
 public:
  explicit FixedScoreScheme(std::vector<double> scores)
      : scores_(std::move(scores)) {}
  std::string name() const override { return "fixed"; }
  Result<std::vector<int>> Rank(const FeedbackContext& ctx) const override {
    return FinalizeRanking(ctx, scores_);
  }

 private:
  std::vector<double> scores_;
};

TEST(FinalizeRankingTest, DepthKeepsThePrefixOfTheFullRanking) {
  // 40 rows, so a narrowed scan has rows to leave out.
  constexpr int kRows = 40;
  la::Matrix features(kRows, 3);
  Rng feature_rng(11);
  for (double& v : features.data()) v = feature_rng.Uniform();
  retrieval::ImageDatabase db = retrieval::ImageDatabase::FromFeatures(
      std::move(features), std::vector<int>(kRows, 0), 1);
  retrieval::IndexOptions index_options;
  index_options.mode = retrieval::IndexMode::kSignature;
  db.BuildIndex(index_options);

  constexpr int kQuery = 13;
  // Exhaustive; narrowed with the query; narrowed without it.
  std::vector<int> with_query;
  std::vector<int> without_query;
  for (int id = 0; id < kRows; ++id) {
    if (id % 3 == 1) with_query.push_back(id);  // 13 % 3 == 1
    if (id % 3 == 2) without_query.push_back(id);
  }
  const std::vector<const std::vector<int>*> scans{nullptr, &with_query,
                                                   &without_query};
  // Eight scores with both zeros, so nearly every score ties; the
  // tie-breaking distances take three values, so they tie too.
  const double grid[] = {-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0};
  const double distances[] = {0.0, 1.0, 4.0};
  Rng rng(29);
  for (const std::vector<int>* candidates : scans) {
    // The query scored best (inside every selected top) or worst (outside).
    for (const double query_score : {3.0, -3.0}) {
      FeedbackContext ctx;
      ctx.db = &db;
      ctx.query_id = kQuery;
      ctx.candidate_depth = candidates == nullptr ? 0 : 1;
      ASSERT_TRUE(ctx.Prepare(candidates).ok());
      const size_t scan = ctx.scan_size();
      ASSERT_EQ(scan, candidates == nullptr ? kRows : candidates->size());
      std::vector<double> scores(scan);
      for (size_t pos = 0; pos < scan; ++pos) {
        scores[pos] = grid[rng.UniformInt(8)];
        ctx.query_distances[pos] = distances[rng.UniformInt(3)];
        if (ctx.ScanId(pos) == kQuery) scores[pos] = query_score;
      }
      const FixedScoreScheme scheme(scores);
      const std::vector<int> full = scheme.Rank(ctx).value();
      ASSERT_EQ(full.size(), candidates == &without_query ? scan : scan - 1);
      for (const size_t depth : {size_t{1}, size_t{2}, size_t{7}, scan - 1,
                                 scan, scan + 5}) {
        ctx.rank_depth = static_cast<int>(depth);
        const std::vector<int> top = scheme.Rank(ctx).value();
        const std::vector<int> prefix(
            full.begin(), full.begin() + static_cast<std::ptrdiff_t>(
                                             std::min(depth, full.size())));
        EXPECT_EQ(top, prefix) << "scan " << scan << ", query score "
                               << query_score << ", depth " << depth;
      }
    }
  }
}

}  // namespace
}  // namespace cbir::core

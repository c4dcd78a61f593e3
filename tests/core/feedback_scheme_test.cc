#include "core/feedback_scheme.h"

#include <algorithm>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "core/euclidean_scheme.h"
#include "retrieval/ranker.h"

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

}  // namespace
}  // namespace cbir::core

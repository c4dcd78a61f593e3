#include <algorithm>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "core/euclidean_scheme.h"
#include "core/lrf_2svm_scheme.h"
#include "core/lrf_csvm_scheme.h"
#include "core/rf_svm_scheme.h"
#include "core/scheme_factory.h"
#include "logdb/simulated_user.h"
#include "retrieval/ranker.h"

namespace cbir::core {
namespace {

// Shared tiny corpus fixture: built once because feature extraction over a
// corpus is the expensive part of these tests.
class SchemesTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    retrieval::DatabaseOptions options;
    options.corpus.num_categories = 3;
    options.corpus.images_per_category = 12;
    options.corpus.width = 64;
    options.corpus.height = 64;
    options.corpus.seed = 77;
    db_ = new retrieval::ImageDatabase(
        retrieval::ImageDatabase::Build(options));

    logdb::LogCollectionOptions log_options;
    log_options.num_sessions = 30;
    log_options.session_size = 10;
    log_options.user.noise_rate = 0.05;
    log_options.seed = 5;
    const logdb::LogStore store =
        logdb::CollectLogs(db_->features(), db_->categories(), log_options);
    log_features_ = new la::Matrix(
        store.BuildMatrix(db_->num_images()).ToDenseMatrix());

    scheme_options_ = new SchemeOptions(
        MakeDefaultSchemeOptions(*db_, log_features_));
  }

  static void TearDownTestSuite() {
    delete scheme_options_;
    delete log_features_;
    delete db_;
  }

  FeedbackContext MakeContext(int query_id, bool with_log = true) const {
    FeedbackContext ctx;
    ctx.db = db_;
    ctx.log_features = with_log ? log_features_ : nullptr;
    ctx.query_id = query_id;
    EXPECT_TRUE(ctx.Prepare().ok());  // non-void helper: EXPECT, not ASSERT
    const auto initial = retrieval::RankByEuclidean(
        db_->features(), ctx.query_feature, 11);
    const int qcat = db_->category(query_id);
    for (int id : initial) {
      if (id == query_id) continue;
      if (ctx.labeled_ids.size() >= 10) break;
      ctx.labeled_ids.push_back(id);
      ctx.labels.push_back(db_->category(id) == qcat ? 1.0 : -1.0);
    }
    return ctx;
  }

  void ExpectValidRanking(const std::vector<int>& ranked, int query_id) {
    EXPECT_EQ(ranked.size(), static_cast<size_t>(db_->num_images() - 1));
    const std::set<int> unique(ranked.begin(), ranked.end());
    EXPECT_EQ(unique.size(), ranked.size()) << "duplicate ids in ranking";
    EXPECT_EQ(unique.count(query_id), 0u) << "query id leaked into ranking";
  }

  static retrieval::ImageDatabase* db_;
  static la::Matrix* log_features_;
  static SchemeOptions* scheme_options_;
};

retrieval::ImageDatabase* SchemesTest::db_ = nullptr;
la::Matrix* SchemesTest::log_features_ = nullptr;
SchemeOptions* SchemesTest::scheme_options_ = nullptr;

TEST_F(SchemesTest, EuclideanMatchesRanker) {
  EuclideanScheme scheme;
  const FeedbackContext ctx = MakeContext(4);
  auto ranked = scheme.Rank(ctx);
  ASSERT_TRUE(ranked.ok());
  ExpectValidRanking(ranked.value(), 4);

  auto expected = retrieval::RankByEuclidean(db_->features(),
                                             ctx.query_feature);
  expected.erase(std::remove(expected.begin(), expected.end(), 4),
                 expected.end());
  EXPECT_EQ(ranked.value(), expected);
}

TEST_F(SchemesTest, RfSvmRanksLabeledPositivesHighly) {
  RfSvmScheme scheme(*scheme_options_);
  const FeedbackContext ctx = MakeContext(2);
  auto ranked = scheme.Rank(ctx);
  ASSERT_TRUE(ranked.ok()) << ranked.status();
  ExpectValidRanking(ranked.value(), 2);

  // Labeled positives should appear in the top half of the ranking.
  const size_t half = ranked->size() / 2;
  for (size_t i = 0; i < ctx.labeled_ids.size(); ++i) {
    if (ctx.labels[i] < 0) continue;
    const auto pos = std::find(ranked->begin(), ranked->end(),
                               ctx.labeled_ids[i]);
    ASSERT_NE(pos, ranked->end());
    EXPECT_LT(static_cast<size_t>(pos - ranked->begin()), half)
        << "positive labeled id " << ctx.labeled_ids[i] << " ranked too low";
  }
}

TEST_F(SchemesTest, RfSvmRequiresLabels) {
  RfSvmScheme scheme(*scheme_options_);
  FeedbackContext ctx;
  ctx.db = db_;
  ctx.query_id = 0;
  ASSERT_TRUE(ctx.Prepare().ok());
  EXPECT_FALSE(scheme.Rank(ctx).ok());
}

TEST_F(SchemesTest, Lrf2SvmProducesValidRanking) {
  Lrf2SvmScheme scheme(*scheme_options_);
  const FeedbackContext ctx = MakeContext(13);
  auto ranked = scheme.Rank(ctx);
  ASSERT_TRUE(ranked.ok()) << ranked.status();
  ExpectValidRanking(ranked.value(), 13);
}

TEST_F(SchemesTest, Lrf2SvmRequiresLog) {
  Lrf2SvmScheme scheme(*scheme_options_);
  const FeedbackContext ctx = MakeContext(13, /*with_log=*/false);
  auto ranked = scheme.Rank(ctx);
  ASSERT_FALSE(ranked.ok());
  EXPECT_EQ(ranked.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(SchemesTest, LrfCsvmProducesValidRanking) {
  LrfCsvmOptions csvm_options;
  csvm_options.n_prime = 10;
  LrfCsvmScheme scheme(*scheme_options_, csvm_options);
  const FeedbackContext ctx = MakeContext(25);
  auto ranked = scheme.Rank(ctx);
  ASSERT_TRUE(ranked.ok()) << ranked.status();
  ExpectValidRanking(ranked.value(), 25);
}

TEST_F(SchemesTest, LrfCsvmTrainExposesDiagnostics) {
  LrfCsvmOptions csvm_options;
  csvm_options.n_prime = 8;
  LrfCsvmScheme scheme(*scheme_options_, csvm_options);
  const FeedbackContext ctx = MakeContext(7);
  auto model = scheme.TrainForContext(ctx);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_EQ(model->unlabeled_labels.size(), 8u);
  EXPECT_GE(model->diagnostics.outer_iterations, 1);
  for (double y : model->unlabeled_labels) {
    EXPECT_TRUE(y == 1.0 || y == -1.0);
  }
}

TEST_F(SchemesTest, LrfCsvmDeterministicAcrossCalls) {
  LrfCsvmOptions csvm_options;
  csvm_options.n_prime = 10;
  LrfCsvmScheme scheme(*scheme_options_, csvm_options);
  const FeedbackContext ctx = MakeContext(19);
  auto a = scheme.Rank(ctx);
  auto b = scheme.Rank(ctx);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value(), b.value());
}

TEST_F(SchemesTest, LrfCsvmAllSelectionStrategiesProduceValidRankings) {
  // Exercises every selection path end-to-end, including Fig. 1's literal
  // max/min-decision rule which trains the two step-1 SVMs.
  for (SelectionStrategy strategy :
       {SelectionStrategy::kMostSimilar, SelectionStrategy::kMaxMin,
        SelectionStrategy::kBoundaryClosest, SelectionStrategy::kRandom}) {
    LrfCsvmOptions csvm_options;
    csvm_options.n_prime = 8;
    csvm_options.selection = strategy;
    LrfCsvmScheme scheme(*scheme_options_, csvm_options);
    const FeedbackContext ctx = MakeContext(11);
    auto ranked = scheme.Rank(ctx);
    ASSERT_TRUE(ranked.ok())
        << SelectionStrategyToString(strategy) << ": " << ranked.status();
    ExpectValidRanking(ranked.value(), 11);
  }
}

TEST_F(SchemesTest, LrfCsvmSelectionStrategiesDiffer) {
  const FeedbackContext ctx = MakeContext(22);
  LrfCsvmOptions most_similar;
  most_similar.selection = SelectionStrategy::kMostSimilar;
  LrfCsvmOptions max_min;
  max_min.selection = SelectionStrategy::kMaxMin;
  auto a = LrfCsvmScheme(*scheme_options_, most_similar).TrainForContext(ctx);
  auto b = LrfCsvmScheme(*scheme_options_, max_min).TrainForContext(ctx);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Different selections almost surely yield different support-vector sets.
  EXPECT_NE(
      a->models[0].num_support_vectors() + a->models[1].num_support_vectors(),
      b->models[0].num_support_vectors() + b->models[1].num_support_vectors());
}

TEST_F(SchemesTest, LrfCsvmZeroNPrimeStillWorks) {
  LrfCsvmOptions csvm_options;
  csvm_options.n_prime = 0;  // degenerates to LRF-2SVMs-like training
  LrfCsvmScheme scheme(*scheme_options_, csvm_options);
  const FeedbackContext ctx = MakeContext(31);
  auto ranked = scheme.Rank(ctx);
  ASSERT_TRUE(ranked.ok()) << ranked.status();
  ExpectValidRanking(ranked.value(), 31);
}

TEST_F(SchemesTest, FactoryCreatesAllPaperSchemes) {
  for (const char* name : {"Euclidean", "RF-SVM", "LRF-2SVMs", "LRF-CSVM"}) {
    auto scheme = MakeScheme(name, *scheme_options_);
    ASSERT_TRUE(scheme.ok()) << name;
    EXPECT_EQ((*scheme)->name(), name);
  }
  const auto all = MakePaperSchemes(*scheme_options_);
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0]->name(), "Euclidean");
  EXPECT_EQ(all[3]->name(), "LRF-CSVM");
}

TEST_F(SchemesTest, FactoryRejectsUnknownName) {
  auto scheme = MakeScheme("PageRank", *scheme_options_);
  ASSERT_FALSE(scheme.ok());
  EXPECT_EQ(scheme.status().code(), StatusCode::kNotFound);
}

TEST_F(SchemesTest, DefaultSchemeOptionsDeriveKernelsFromData) {
  const SchemeOptions options = MakeDefaultSchemeOptions(*db_, log_features_);
  EXPECT_EQ(options.visual_kernel.type, svm::KernelType::kRbf);
  EXPECT_GT(options.visual_kernel.gamma, 0.0);
  // The log side defaults to the linear session-weighting kernel of the
  // paper's Section 4 formulation, with a data-derived gamma kept on hand
  // for callers that switch to RBF.
  EXPECT_EQ(options.log_kernel.type, svm::KernelType::kLinear);
  EXPECT_GT(options.log_kernel.gamma, 0.0);
  EXPECT_NE(options.visual_kernel.gamma, options.log_kernel.gamma);
  EXPECT_DOUBLE_EQ(options.c_log, 1.0);
}

}  // namespace
}  // namespace cbir::core

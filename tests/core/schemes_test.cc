#include <algorithm>
#include <memory>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "core/euclidean_scheme.h"
#include "core/feedback_loop.h"
#include "core/scheme_factory.h"
#include "index/index_factory.h"
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
    log_rows_ = new la::SparseRows(la::SparseRows::FromDense(*log_features_));

    scheme_options_ = new SchemeOptions(
        MakeDefaultSchemeOptions(*db_, log_features_));
  }

  static void TearDownTestSuite() {
    delete scheme_options_;
    delete log_rows_;
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

  /// MakeScheme builds every SVM scheme as a CoupledSvmScheme; tests that
  /// inspect the trained model reach TrainForContext through it.
  static const CoupledSvmScheme& AsCoupled(const FeedbackScheme& scheme) {
    return dynamic_cast<const CoupledSvmScheme&>(scheme);
  }

  static retrieval::ImageDatabase* db_;
  static la::Matrix* log_features_;
  static la::SparseRows* log_rows_;  ///< log_features_, converted once
  static SchemeOptions* scheme_options_;
};

retrieval::ImageDatabase* SchemesTest::db_ = nullptr;
la::Matrix* SchemesTest::log_features_ = nullptr;
la::SparseRows* SchemesTest::log_rows_ = nullptr;
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
  const auto scheme = MakeScheme("RF-SVM", *scheme_options_).value();
  const FeedbackContext ctx = MakeContext(2);
  auto ranked = scheme->Rank(ctx);
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
  const auto scheme = MakeScheme("RF-SVM", *scheme_options_).value();
  FeedbackContext ctx;
  ctx.db = db_;
  ctx.query_id = 0;
  ASSERT_TRUE(ctx.Prepare().ok());
  EXPECT_FALSE(scheme->Rank(ctx).ok());
}

TEST_F(SchemesTest, Lrf2SvmProducesValidRanking) {
  const auto scheme = MakeScheme("LRF-2SVMs", *scheme_options_).value();
  const FeedbackContext ctx = MakeContext(13);
  auto ranked = scheme->Rank(ctx);
  ASSERT_TRUE(ranked.ok()) << ranked.status();
  ExpectValidRanking(ranked.value(), 13);
}

TEST_F(SchemesTest, Lrf2SvmRequiresLog) {
  const auto scheme = MakeScheme("LRF-2SVMs", *scheme_options_).value();
  const FeedbackContext ctx = MakeContext(13, /*with_log=*/false);
  auto ranked = scheme->Rank(ctx);
  ASSERT_FALSE(ranked.ok());
  EXPECT_EQ(ranked.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(SchemesTest, LrfCsvmProducesValidRanking) {
  LrfCsvmOptions csvm_options;
  csvm_options.n_prime = 10;
  const auto scheme =
      MakeScheme("LRF-CSVM", *scheme_options_, csvm_options).value();
  const FeedbackContext ctx = MakeContext(25);
  auto ranked = scheme->Rank(ctx);
  ASSERT_TRUE(ranked.ok()) << ranked.status();
  ExpectValidRanking(ranked.value(), 25);
}

TEST_F(SchemesTest, LrfCsvmTrainExposesDiagnostics) {
  LrfCsvmOptions csvm_options;
  csvm_options.n_prime = 8;
  const auto scheme =
      MakeScheme("LRF-CSVM", *scheme_options_, csvm_options).value();
  const FeedbackContext ctx = MakeContext(7);
  auto model = AsCoupled(*scheme).TrainForContext(ctx);
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
  const auto scheme =
      MakeScheme("LRF-CSVM", *scheme_options_, csvm_options).value();
  const FeedbackContext ctx = MakeContext(19);
  auto a = scheme->Rank(ctx);
  auto b = scheme->Rank(ctx);
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
    const auto scheme =
        MakeScheme("LRF-CSVM", *scheme_options_, csvm_options).value();
    const FeedbackContext ctx = MakeContext(11);
    auto ranked = scheme->Rank(ctx);
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
  const auto scheme_a =
      MakeScheme("LRF-CSVM", *scheme_options_, most_similar).value();
  const auto scheme_b =
      MakeScheme("LRF-CSVM", *scheme_options_, max_min).value();
  auto a = AsCoupled(*scheme_a).TrainForContext(ctx);
  auto b = AsCoupled(*scheme_b).TrainForContext(ctx);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Different selections almost surely yield different support-vector sets.
  EXPECT_NE(
      a->models[0].num_support_vectors() + a->models[1].num_support_vectors(),
      b->models[0].num_support_vectors() + b->models[1].num_support_vectors());
}

TEST_F(SchemesTest, LrfCsvmZeroNPrimeStillWorks) {
  LrfCsvmOptions csvm_options;
  csvm_options.n_prime = 0;  // degenerates to LRF-2SVMs training
  const auto scheme =
      MakeScheme("LRF-CSVM", *scheme_options_, csvm_options).value();
  const FeedbackContext ctx = MakeContext(31);
  auto ranked = scheme->Rank(ctx);
  ASSERT_TRUE(ranked.ok()) << ranked.status();
  ExpectValidRanking(ranked.value(), 31);
  auto two_svms = MakeScheme("LRF-2SVMs", *scheme_options_).value()->Rank(ctx);
  ASSERT_TRUE(two_svms.ok()) << two_svms.status();
  EXPECT_EQ(ranked.value(), two_svms.value());
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

TEST_F(SchemesTest, FactoryRejectsInvalidCoupledOptions) {
  // Every SVM scheme runs the coupled trainer, so each rejects bad values
  // with InvalidArgument (naming itself) instead of aborting.
  const auto expect_invalid = [&](const LrfCsvmOptions& options) {
    for (const char* name : {"RF-SVM", "LRF-2SVMs", "LRF-CSVM"}) {
      auto scheme = MakeScheme(name, *scheme_options_, options);
      ASSERT_FALSE(scheme.ok()) << name;
      EXPECT_EQ(scheme.status().code(), StatusCode::kInvalidArgument)
          << name << ": " << scheme.status();
      EXPECT_NE(scheme.status().message().find(name), std::string::npos)
          << scheme.status();
    }
  };
  LrfCsvmOptions options;
  options.csvm.rho = 5e-5;  // below rho_init = 1e-4: valid, anneals from rho
  EXPECT_TRUE(MakeScheme("LRF-CSVM", *scheme_options_, options).ok());
  options.csvm.rho = 0.0;
  expect_invalid(options);
  options = LrfCsvmOptions();
  options.csvm.delta = -1.0;
  expect_invalid(options);
  options = LrfCsvmOptions();
  options.csvm.rho_init = 0.0;
  expect_invalid(options);
  options = LrfCsvmOptions();
  options.n_prime = -2;
  expect_invalid(options);
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

// Callers holding only the dense log (the adapter Prepare() converts) and
// callers handing in sparse rows must get the same rankings from every
// scheme and selection rule, over the whole corpus and over a narrowed
// candidate pool (where Prepare gathers the pool's log rows).
TEST_F(SchemesTest, DenseLogAdapterRanksLikeSparseRows) {
  const la::SparseRows sparse = la::SparseRows::FromDense(*log_features_);
  retrieval::ImageDatabase indexed = *db_;
  retrieval::IndexOptions index_options;
  index_options.mode = retrieval::IndexMode::kSignature;
  index_options.signature.candidate_factor = 2;
  indexed.BuildIndex(index_options);

  LrfCsvmOptions max_min;
  max_min.selection = SelectionStrategy::kMaxMin;
  struct Case {
    const char* name;
    LrfCsvmOptions options;
  };
  const Case cases[] = {{"Euclidean", {}},
                        {"RF-SVM", {}},
                        {"LRF-2SVMs", {}},
                        {"LRF-CSVM", {}},
                        {"LRF-CSVM", max_min}};
  for (const retrieval::ImageDatabase* db : {db_, &indexed}) {
    for (const Case& c : cases) {
      auto scheme = MakeScheme(c.name, *scheme_options_, c.options);
      ASSERT_TRUE(scheme.ok()) << scheme.status();
      for (int query : {3, 16, 29}) {
        SCOPED_TRACE(std::string(c.name) + " query " + std::to_string(query) +
                     (db == db_ ? " exhaustive" : " narrowed"));
        FeedbackContext dense_ctx = MakeContext(query);
        dense_ctx.db = db;
        dense_ctx.candidate_depth = 12;
        ASSERT_TRUE(dense_ctx.Prepare().ok());
        FeedbackContext sparse_ctx = dense_ctx;
        sparse_ctx.log_features = nullptr;
        sparse_ctx.log_rows = &sparse;
        ASSERT_TRUE(sparse_ctx.Prepare().ok());
        EXPECT_EQ(sparse_ctx.scan_ids, dense_ctx.scan_ids);
        if (db != db_) EXPECT_FALSE(sparse_ctx.scan_ids.empty());

        auto from_dense = (*scheme)->Rank(dense_ctx);
        auto from_sparse = (*scheme)->Rank(sparse_ctx);
        ASSERT_TRUE(from_dense.ok()) << from_dense.status();
        ASSERT_TRUE(from_sparse.ok()) << from_sparse.status();
        EXPECT_EQ(from_dense.value(), from_sparse.value());
      }
    }
  }
}

// Pins each SVM scheme's exact output on the fixture corpus: the round-one
// ranking of MakeContext(query) without session state, and the per-round
// hit counts of a 3-round RunFeedbackSession (which carries session state).
// Any change to training, selection, warm starts or kernel caching that
// moves a single rank or judgment shows up here.
TEST_F(SchemesTest, SvmSchemesMatchGoldenRankings) {
  struct Golden {
    const char* scheme;
    int query;
    std::vector<int> ranking;
    /// hits[round][s]: relevant images in the top kScopes[s] after `round`.
    std::vector<std::vector<int>> hits;
  };
  static const std::vector<int> kScopes = {5, 10, 15};
  static const Golden kGolden[] = {
    {"RF-SVM", 3,
     {4, 1, 5, 7, 10, 8, 2, 11, 9, 6, 0, 21,
      20, 16, 28, 12, 17, 26, 35, 29, 23, 19, 30, 18,
      34, 13, 15, 14, 33, 25, 32, 22, 24, 27, 31},
     {{4, 8, 11}, {5, 7, 8}, {5, 7, 8}, {5, 10, 11}}},
    {"RF-SVM", 16,
     {19, 12, 17, 21, 20, 22, 14, 18, 15, 13, 30, 23,
      32, 35, 26, 25, 24, 34, 29, 33, 31, 3, 6, 27,
      11, 1, 5, 7, 8, 10, 9, 4, 0, 28, 2},
     {{3, 5, 6}, {5, 9, 11}, {5, 9, 11}, {5, 10, 11}}},
    {"RF-SVM", 29,
     {31, 24, 25, 33, 14, 34, 22, 3, 32, 30, 27, 13,
      18, 15, 35, 28, 26, 12, 23, 1, 17, 11, 0, 20,
      6, 10, 8, 19, 16, 9, 7, 5, 21, 2, 4},
     {{1, 1, 1}, {1, 1, 1}, {3, 6, 8}, {4, 9, 11}}},
    {"LRF-2SVMs", 3,
     {7, 8, 9, 5, 1, 10, 2, 11, 4, 0, 6, 21,
      20, 16, 28, 12, 26, 17, 19, 29, 23, 30, 18, 15,
      34, 13, 14, 35, 24, 22, 33, 25, 32, 31, 27},
     {{4, 8, 11}, {5, 10, 11}, {5, 10, 11}, {5, 10, 11}}},
    {"LRF-2SVMs", 16,
     {21, 19, 12, 17, 20, 22, 18, 14, 15, 13, 30, 23,
      32, 26, 25, 24, 34, 29, 33, 35, 3, 31, 27, 6,
      11, 1, 5, 7, 8, 10, 4, 28, 0, 9, 2},
     {{3, 5, 6}, {5, 9, 11}, {5, 10, 11}, {5, 10, 11}}},
    {"LRF-2SVMs", 29,
     {31, 27, 32, 35, 25, 33, 24, 34, 3, 30, 28, 13,
      26, 14, 23, 15, 22, 11, 1, 17, 20, 18, 12, 0,
      10, 6, 5, 16, 19, 21, 4, 9, 8, 2, 7},
     {{1, 1, 1}, {1, 1, 1}, {5, 8, 9}, {5, 9, 10}}},
    {"LRF-CSVM", 3,
     {7, 9, 8, 2, 4, 10, 5, 1, 11, 0, 6, 28,
      35, 26, 30, 34, 23, 24, 17, 29, 15, 13, 33, 19,
      25, 21, 12, 16, 14, 20, 32, 18, 31, 22, 27},
     {{4, 8, 11}, {5, 10, 11}, {5, 10, 11}, {5, 10, 11}}},
    {"LRF-CSVM", 16,
     {21, 19, 22, 18, 12, 17, 20, 14, 15, 13, 30, 23,
      34, 29, 24, 26, 33, 32, 27, 31, 25, 35, 3, 11,
      6, 28, 1, 5, 10, 8, 4, 7, 0, 9, 2},
     {{3, 5, 6}, {5, 9, 11}, {5, 10, 11}, {5, 9, 11}}},
    {"LRF-CSVM", 29,
     {31, 32, 27, 25, 33, 35, 24, 26, 30, 13, 34, 3,
      23, 28, 22, 15, 11, 14, 17, 1, 18, 20, 5, 19,
      10, 16, 6, 12, 0, 9, 21, 2, 4, 8, 7},
     {{1, 1, 1}, {0, 0, 1}, {0, 0, 0}, {0, 0, 3}}},
  };

  FeedbackLoopOptions loop;
  loop.rounds = 3;
  loop.judgments_per_round = 3;
  loop.scopes = kScopes;
  for (const Golden& golden : kGolden) {
    SCOPED_TRACE(std::string(golden.scheme) + " query " +
                 std::to_string(golden.query));
    auto scheme = MakeScheme(golden.scheme, *scheme_options_);
    ASSERT_TRUE(scheme.ok()) << scheme.status();
    auto ranked = (*scheme)->Rank(MakeContext(golden.query));
    ASSERT_TRUE(ranked.ok()) << ranked.status();
    EXPECT_EQ(ranked.value(), golden.ranking);

    auto session = RunFeedbackSession(*db_, log_rows_, **scheme,
                                      golden.query, loop);
    ASSERT_TRUE(session.ok()) << session.status();
    ASSERT_EQ(session->precision.size(), golden.hits.size());
    for (size_t round = 0; round < golden.hits.size(); ++round) {
      ASSERT_EQ(session->precision[round].size(), kScopes.size());
      for (size_t s = 0; s < kScopes.size(); ++s) {
        EXPECT_DOUBLE_EQ(session->precision[round][s],
                         static_cast<double>(golden.hits[round][s]) /
                             kScopes[s])
            << "round " << round << " scope " << kScopes[s];
      }
    }
  }
}

}  // namespace
}  // namespace cbir::core

// Gates for the kernel values a coupled SVM shares: one Gram per modality
// serves every QP of a MultiCoupledSvm chain, and a feedback session's
// carried kernel columns rank exactly like columns computed afresh each
// round (the carried duals differ in neither case).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/feedback_loop.h"
#include "core/multi_coupled_svm.h"
#include "core/scheme_factory.h"
#include "logdb/log_store.h"
#include "logdb/simulated_user.h"
#include "obs/metrics.h"
#include "svm/gram.h"
#include "svm/model.h"
#include "svm/smo_solver.h"
#include "two_modality_problem.h"

namespace cbir::core {
namespace {

using testutil::TestOptions;
using testutil::TwoModalityData;
using testutil::TwoModalityProblem;
using testutil::Views;

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Default().GetCounter(name)->value();
}

// Trains `views` and checks that the chain computed one Gram per modality
// however many QPs it solved: per-solve Grams would compute n (n + 1) / 2
// entries per solve, the chain computes them once per modality. A second
// training reproduces the first exactly.
void ExpectChainSharingMatchesPerSolve(const TwoModalityData& data,
                                       const std::vector<ModalityView>& views) {
  const MultiCoupledSvm csvm(TestOptions());
  const uint64_t misses = CounterValue("cbir_svm_kernel_cache_misses_total");
  const uint64_t solves = CounterValue("cbir_svm_solves_total");
  auto first = csvm.TrainViews(views, data.labels,
                               data.initial_unlabeled_labels);
  ASSERT_TRUE(first.ok()) << first.status();

  const size_t n = data.visual.rows();
  const CsvmDiagnostics& diag = first->diagnostics;
  const uint64_t chain_solves = CounterValue("cbir_svm_solves_total") - solves;
  EXPECT_EQ(chain_solves,
            views.size() * static_cast<size_t>(diag.outer_iterations +
                                               diag.inner_iterations));
  EXPECT_GT(chain_solves, views.size());
  EXPECT_EQ(CounterValue("cbir_svm_kernel_cache_misses_total") - misses,
            views.size() * n * (n + 1) / 2);

  auto second = csvm.TrainViews(views, data.labels,
                                data.initial_unlabeled_labels);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->unlabeled_labels, first->unlabeled_labels);
  EXPECT_EQ(second->alphas, first->alphas);
  for (size_t i = 0; i < n; ++i) {
    std::vector<la::Vec> sample;
    for (const ModalityView& view : views) {
      sample.push_back(view.data->Row(i));
    }
    EXPECT_EQ(second->Decision(sample), first->Decision(sample));
  }
}

TEST(SmoSharedCacheTest, SharedCacheSolveMatchesInternalExactly) {
  // RF-SVM's chain, K = 1 with no unlabeled rows, is one solve on the Gram
  // the chain builds for itself. A Gram the caller builds and hands to
  // SmoSolver serves exactly the same values, so the solve, and the model
  // BuildModel makes from it, are the chain's bit for bit.
  const TwoModalityData data = TwoModalityProblem(10, 0, 1.0, 0.8, 41);
  const ModalityView view = Views(data)[0];
  auto chain =
      MultiCoupledSvm(TestOptions()).TrainViews({view}, data.labels, {});
  ASSERT_TRUE(chain.ok()) << chain.status();

  const svm::Gram gram = svm::Gram::Of(data.visual, view.kernel).value();
  auto direct =
      svm::SmoSolver(gram, data.labels,
                     std::vector<double>(data.labels.size(), view.c))
          .Solve();
  ASSERT_TRUE(direct.ok()) << direct.status();
  EXPECT_EQ(chain->alphas[0], direct->alpha);
  EXPECT_EQ(chain->diagnostics.total_smo_iterations, direct->iterations);
  EXPECT_EQ(chain->diagnostics.visual_objective, direct->objective);

  const svm::SvmModel built = svm::BuildModel(
      view.kernel, data.visual, data.labels, direct->alpha, direct->bias);
  const svm::SvmModel& trained = chain->models[0];
  EXPECT_GT(trained.num_support_vectors(), 0u);
  EXPECT_EQ(trained.bias(), direct->bias);
  EXPECT_EQ(trained.coefficients(), built.coefficients());
  EXPECT_EQ(trained.support_rows(), built.support_rows());
  EXPECT_EQ(trained.support_vectors().data(), built.support_vectors().data());
}

TEST(CsvmSharedCacheTest, ChainSharingReproducesPerSolveCaches) {
  // Overlapping classes force label-correction flips, so the chain re-solves
  // with changed labels over the shared rows.
  const TwoModalityData data = TwoModalityProblem(8, 10, 1.0, 0.8, 31);
  ExpectChainSharingMatchesPerSolve(data, Views(data));
}

TEST(MultiCsvmSharedCacheTest, ThreeModalitySharingMatchesPerSolve) {
  // K = 3: the visual matrix serves again as a "shape" modality with its own
  // kernel.
  const TwoModalityData data = TwoModalityProblem(6, 8, 1.2, 0.8, 35);
  std::vector<ModalityView> views = Views(data);
  views.push_back(views[0]);
  views[2].kernel = svm::KernelParams::Rbf(0.25);
  ExpectChainSharingMatchesPerSolve(data, views);
}

// ---- Feedback-loop level: sessions with and without carried columns. -----

class SessionCacheFeedbackTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    retrieval::DatabaseOptions options;
    options.corpus.num_categories = 4;
    options.corpus.images_per_category = 20;
    options.corpus.width = 48;
    options.corpus.height = 48;
    options.corpus.seed = 19;
    db_ = new retrieval::ImageDatabase(
        retrieval::ImageDatabase::Build(options));
    // Sessions scan a candidate pool, whose kernel columns carry between
    // rounds (a corpus-wide scan's are released after every round).
    retrieval::IndexOptions index_options;
    index_options.mode = retrieval::IndexMode::kSignature;
    db_->BuildIndex(index_options);
    logdb::LogCollectionOptions log_options;
    log_options.num_sessions = 30;
    log_options.session_size = 10;
    log_options.seed = 3;
    logdb::LogStore store =
        logdb::CollectLogs(db_->features(), db_->categories(), log_options);
    log_features_ =
        new la::Matrix(store.BuildMatrix(db_->num_images()).ToDenseMatrix());
    log_rows_ = new la::SparseRows(la::SparseRows::FromDense(*log_features_));
  }
  static void TearDownTestSuite() {
    delete log_rows_;
    log_rows_ = nullptr;
    delete log_features_;
    log_features_ = nullptr;
    delete db_;
    db_ = nullptr;
  }

  static SchemeOptions SchemeOpts() {
    return MakeDefaultSchemeOptions(*db_, log_features_);
  }

  static retrieval::ImageDatabase* db_;
  static la::Matrix* log_features_;
  static la::SparseRows* log_rows_;  ///< log_features_, converted once
};

retrieval::ImageDatabase* SessionCacheFeedbackTest::db_ = nullptr;
la::Matrix* SessionCacheFeedbackTest::log_features_ = nullptr;
la::SparseRows* SessionCacheFeedbackTest::log_rows_ = nullptr;

/// The reference for the carried kernel columns: forwards to `inner` but
/// drops the context's columns before every round, keeping the warm-start
/// duals, so each round computes its kernel values afresh.
class FreshKernelRowsScheme : public FeedbackScheme {
 public:
  explicit FreshKernelRowsScheme(std::shared_ptr<FeedbackScheme> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }

  Result<std::vector<int>> Rank(const FeedbackContext& ctx) const override {
    for (size_t k = 0; k < 2; ++k) ctx.KernelColumns(k) = KernelColumnStore();
    return inner_->Rank(ctx);
  }

 private:
  std::shared_ptr<FeedbackScheme> inner_;
};

TEST_F(SessionCacheFeedbackTest, LrfCsvmSessionMatchesWithoutCaches) {
  FeedbackLoopOptions loop;
  loop.rounds = 3;
  loop.judgments_per_round = 10;
  loop.scopes = {10, 20};

  LrfCsvmOptions csvm;
  csvm.n_prime = 10;

  for (int query : {4, 31, 57}) {
    const auto cached = MakeScheme("LRF-CSVM", SchemeOpts(), csvm).value();
    const FreshKernelRowsScheme uncached(
        MakeScheme("LRF-CSVM", SchemeOpts(), csvm).value());
    auto a = RunFeedbackSession(*db_, log_rows_, *cached, query, loop);
    auto b = RunFeedbackSession(*db_, log_rows_, uncached, query, loop);
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok()) << b.status();
    EXPECT_EQ(a->precision, b->precision) << "query " << query;
  }
}

TEST_F(SessionCacheFeedbackTest, RfSvmSessionMatchesWithoutCaches) {
  FeedbackLoopOptions loop;
  loop.rounds = 3;
  loop.judgments_per_round = 12;
  loop.scopes = {10, 20};

  // RF-SVM runs visual-only; LRF-2SVMs carries both modalities' columns.
  for (const char* name : {"RF-SVM", "LRF-2SVMs"}) {
    const la::SparseRows* log =
        std::string(name) == "RF-SVM" ? nullptr : log_rows_;
    for (int query : {2, 43}) {
      const auto cached = MakeScheme(name, SchemeOpts()).value();
      const FreshKernelRowsScheme uncached(
          MakeScheme(name, SchemeOpts()).value());
      auto a = RunFeedbackSession(*db_, log, *cached, query, loop);
      auto b = RunFeedbackSession(*db_, log, uncached, query, loop);
      ASSERT_TRUE(a.ok()) << a.status();
      ASSERT_TRUE(b.ok()) << b.status();
      EXPECT_EQ(a->precision, b->precision)
          << name << " query " << query;
    }
  }
}

TEST_F(SessionCacheFeedbackTest, AggregatedDiagnosticsAccumulate) {
  FeedbackLoopOptions loop;
  loop.rounds = 2;
  loop.judgments_per_round = 10;
  loop.scopes = {10};
  LrfCsvmOptions csvm;
  csvm.n_prime = 10;
  const auto made = MakeScheme("LRF-CSVM", SchemeOpts(), csvm).value();
  const auto& scheme = dynamic_cast<const CoupledSvmScheme&>(*made);
  EXPECT_EQ(scheme.AggregatedDiagnostics().total_smo_iterations, 0);

  ASSERT_TRUE(
      RunFeedbackSession(*db_, log_rows_, scheme, 7, loop).ok());
  const CsvmDiagnostics diag = scheme.AggregatedDiagnostics();
  EXPECT_GT(diag.total_smo_iterations, 0);
  // Two rounds, each at least one annealing step.
  EXPECT_GE(diag.outer_iterations, 2);
}

}  // namespace
}  // namespace cbir::core

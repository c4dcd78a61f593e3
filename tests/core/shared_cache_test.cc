// Equivalence gates for kernel-cache sharing across the coupled-SVM solve
// chain and across feedback rounds: shared-cache training must reproduce
// per-solve-cache models and rankings (within solver tolerance) for
// MultiCoupledSvm and RunFeedbackSession — including after label flips,
// labeled-set growth across rounds, and under eviction pressure.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/feedback_loop.h"
#include "core/multi_coupled_svm.h"
#include "core/scheme_factory.h"
#include "core/session_cache.h"
#include "logdb/log_store.h"
#include "logdb/simulated_user.h"
#include "two_modality_problem.h"

namespace cbir::core {
namespace {

using testutil::Decision;
using testutil::TestOptions;
using testutil::Train;
using testutil::TwoModalityData;
using testutil::TwoModalityProblem;
using testutil::Views;

// Trains `views` with a two-row cache per modality, which keeps almost no
// row from one solve of the chain to the next (the minimum budget; see
// svm::KernelCache), and with the default cache per modality shared across
// the solve chain, and checks that sharing changes nothing but the cache
// traffic.
void ExpectChainSharingMatchesPerSolve(const TwoModalityData& data,
                                       const std::vector<ModalityView>& views) {
  MultiCsvmOptions per_solve = TestOptions();
  per_solve.smo.cache_rows = 2;
  auto cold = MultiCoupledSvm(per_solve).TrainViews(
      views, data.labels, data.initial_unlabeled_labels);
  ASSERT_TRUE(cold.ok()) << cold.status();

  MultiCsvmOptions shared = TestOptions();
  auto hot = MultiCoupledSvm(shared).TrainViews(views, data.labels,
                                                data.initial_unlabeled_labels);
  ASSERT_TRUE(hot.ok());

  // Kernel entries are identical whichever fill path produced them, so the
  // chains solve literally the same QPs: labels, duals and decisions match.
  EXPECT_EQ(hot->unlabeled_labels, cold->unlabeled_labels);
  ASSERT_EQ(hot->alphas.size(), views.size());
  EXPECT_EQ(hot->alphas, cold->alphas);
  for (size_t i = 0; i < data.visual.rows(); ++i) {
    std::vector<la::Vec> sample;
    for (const ModalityView& view : views) {
      sample.push_back(view.data->Row(i));
    }
    EXPECT_NEAR(hot->Decision(sample), cold->Decision(sample), 1e-9);
  }
  // The whole point: one cache per modality turns the chain's repeated row
  // computations into hits.
  EXPECT_GT(hot->diagnostics.cache_stats.hit_rate(),
            cold->diagnostics.cache_stats.hit_rate());
  EXPECT_LT(hot->diagnostics.cache_stats.misses,
            cold->diagnostics.cache_stats.misses);
  // The per-modality split is populated and sums to the aggregate.
  ASSERT_EQ(hot->diagnostics.modality_cache_stats.size(), views.size());
  size_t modality_hits = 0;
  for (const svm::CacheStats& stats : hot->diagnostics.modality_cache_stats) {
    modality_hits += stats.hits;
  }
  EXPECT_EQ(modality_hits, hot->diagnostics.cache_stats.hits);
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

TEST(CsvmSharedCacheTest, TinyCacheBudgetStaysCorrect) {
  const TwoModalityData data = TwoModalityProblem(8, 8, 1.0, 0.8, 33);
  MultiCsvmOptions roomy = TestOptions();
  auto reference = Train(MultiCoupledSvm(roomy), data);
  ASSERT_TRUE(reference.ok());

  MultiCsvmOptions squeezed = TestOptions();
  squeezed.smo.cache_rows = 2;  // minimum budget: constant eviction churn
  auto model = Train(MultiCoupledSvm(squeezed), data);
  ASSERT_TRUE(model.ok());
  EXPECT_GT(model->diagnostics.cache_stats.evictions, 0u);
  EXPECT_EQ(model->unlabeled_labels, reference->unlabeled_labels);
  for (size_t i = 0; i < data.visual.rows(); ++i) {
    EXPECT_NEAR(Decision(*model, data, i), Decision(*reference, data, i),
                1e-9);
  }
}

TEST(CsvmSharedCacheTest, InjectedSessionCachesAcrossGrowingRounds) {
  // The cross-round serving pattern, driven directly: round 2 grows the
  // labeled set; the session caches remap by id and the trained model must
  // match a cache-free training of the same round-2 problem.
  const TwoModalityData full = TwoModalityProblem(10, 8, 1.0, 0.8, 37);
  const size_t nl_full = 20;
  const size_t nu = 8;
  const MultiCoupledSvm csvm(TestOptions());

  SessionKernelCache visual_rows, log_rows;
  // Interleave the classes so the round-1 prefix is balanced: labeled slot t
  // maps to image t/2 of the positive (even t) or negative (odd t) class.
  const auto labeled_id = [&](size_t t) {
    return static_cast<int>(t % 2 == 0 ? t / 2 : nl_full / 2 + t / 2);
  };
  auto run_round = [&](size_t nl) -> Result<MultiCoupledModel> {
    std::vector<int> ids;
    la::Matrix visual(nl + nu, full.visual.cols());
    la::Matrix log(nl + nu, full.log.cols());
    std::vector<double> labels;
    for (size_t i = 0; i < nl; ++i) {
      const size_t id = static_cast<size_t>(labeled_id(i));
      ids.push_back(static_cast<int>(id));
      visual.SetRow(i, full.visual.Row(id));
      log.SetRow(i, full.log.Row(id));
      labels.push_back(full.labels[id]);
    }
    for (size_t j = 0; j < nu; ++j) {
      ids.push_back(static_cast<int>(nl_full + j));
      visual.SetRow(nl + j, full.visual.Row(nl_full + j));
      log.SetRow(nl + j, full.log.Row(nl_full + j));
    }
    std::vector<ModalityView> views = Views(full);
    views[0].shared_cache =
        visual_rows.Bind(ids, std::move(visual), views[0].kernel, 0);
    views[1].shared_cache =
        log_rows.Bind(std::move(ids), std::move(log), views[1].kernel, 0);
    views[0].data = &visual_rows.data();
    views[1].data = &log_rows.data();
    return csvm.TrainViews(views, labels, full.initial_unlabeled_labels);
  };

  ASSERT_TRUE(run_round(10).ok());
  auto carried = run_round(nl_full);
  ASSERT_TRUE(carried.ok());

  // Reference: the identical round-2 problem (same interleaved row order),
  // trained without any carried caches.
  TwoModalityData round2;
  round2.visual = la::Matrix(nl_full + nu, full.visual.cols());
  round2.log = la::Matrix(nl_full + nu, full.log.cols());
  round2.initial_unlabeled_labels = full.initial_unlabeled_labels;
  for (size_t i = 0; i < nl_full; ++i) {
    const size_t id = static_cast<size_t>(labeled_id(i));
    round2.visual.SetRow(i, full.visual.Row(id));
    round2.log.SetRow(i, full.log.Row(id));
    round2.labels.push_back(full.labels[id]);
  }
  for (size_t j = 0; j < nu; ++j) {
    round2.visual.SetRow(nl_full + j, full.visual.Row(nl_full + j));
    round2.log.SetRow(nl_full + j, full.log.Row(nl_full + j));
  }
  auto reference = Train(csvm, round2);
  ASSERT_TRUE(reference.ok());

  EXPECT_EQ(carried->unlabeled_labels, reference->unlabeled_labels);
  EXPECT_EQ(carried->alphas, reference->alphas);
  // Round 2 recomputed kernel rows only against the 10 new labeled images:
  // strictly fewer misses than the cache-free training.
  EXPECT_LT(carried->diagnostics.cache_stats.misses,
            reference->diagnostics.cache_stats.misses);
}

// ---- Feedback-loop level: full sessions with and without the caches. ------

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

/// The reference for the cross-round kernel caches: forwards to `inner` but
/// drops the session's carried kernel rows before every round, keeping the
/// warm-start duals, so each round computes its kernel rows afresh.
class FreshKernelRowsScheme : public FeedbackScheme {
 public:
  explicit FreshKernelRowsScheme(std::shared_ptr<FeedbackScheme> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }

  Result<std::vector<int>> Rank(const FeedbackContext& ctx) const override {
    if (ctx.session_state != nullptr) {
      for (SessionState::Modality& modality : ctx.session_state->modalities) {
        modality.rows.Clear();
      }
    }
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

TEST_F(SessionCacheFeedbackTest, LrfCsvmSessionUnderEvictionPressure) {
  FeedbackLoopOptions loop;
  loop.rounds = 2;
  loop.judgments_per_round = 10;
  loop.scopes = {10};

  SchemeOptions base = SchemeOpts();
  LrfCsvmOptions csvm;
  csvm.n_prime = 10;
  const auto reference = MakeScheme("LRF-CSVM", base, csvm).value();

  SchemeOptions tiny = base;
  tiny.smo.cache_rows = 2;  // eviction churn in every solve, every round
  const auto squeezed = MakeScheme("LRF-CSVM", tiny, csvm).value();

  auto a = RunFeedbackSession(*db_, log_rows_, *reference, 11, loop);
  auto b = RunFeedbackSession(*db_, log_rows_, *squeezed, 11, loop);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(a->precision, b->precision);
}

TEST_F(SessionCacheFeedbackTest, RfSvmSessionMatchesWithoutCaches) {
  FeedbackLoopOptions loop;
  loop.rounds = 3;
  loop.judgments_per_round = 12;
  loop.scopes = {10, 20};

  // RF-SVM runs visual-only; LRF-2SVMs carries both modalities' rows.
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
  EXPECT_GT(diag.cache_stats.hits + diag.cache_stats.misses, 0u);
  ASSERT_EQ(diag.modality_cache_stats.size(), 2u);
  EXPECT_EQ(diag.modality_cache_stats[0].hits +
                diag.modality_cache_stats[1].hits,
            diag.cache_stats.hits);
}

}  // namespace
}  // namespace cbir::core

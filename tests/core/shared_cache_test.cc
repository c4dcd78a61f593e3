// Equivalence gates for the Gram shared by the coupled-SVM solve chain and
// carried across feedback rounds: training on a carried Gram must reproduce
// training on a fresh one exactly for MultiCoupledSvm (including label
// flips and labeled-set growth across rounds), and rankings within solver
// tolerance for RunFeedbackSession, where the carried duals also differ.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/feedback_loop.h"
#include "core/multi_coupled_svm.h"
#include "core/scheme_factory.h"
#include "logdb/log_store.h"
#include "logdb/simulated_user.h"
#include "two_modality_problem.h"

namespace cbir::core {
namespace {

using testutil::TestOptions;
using testutil::Train;
using testutil::TwoModalityData;
using testutil::TwoModalityProblem;
using testutil::Views;

// Trains `views` once on the Gram the chain builds per modality and once on
// caller Grams carried from an earlier bind of the first half of the rows,
// and checks that carrying changes nothing but the kernel work.
void ExpectChainSharingMatchesPerSolve(const TwoModalityData& data,
                                       const std::vector<ModalityView>& views) {
  const MultiCoupledSvm csvm(TestOptions());
  auto built = csvm.TrainViews(views, data.labels,
                               data.initial_unlabeled_labels);
  ASSERT_TRUE(built.ok()) << built.status();

  const size_t n = data.visual.rows();
  const size_t half = n / 2;
  std::vector<int> ids(n);
  std::iota(ids.begin(), ids.end(), 0);
  std::vector<svm::Gram> grams(views.size());
  std::vector<ModalityView> carried_views = views;
  for (size_t k = 0; k < views.size(); ++k) {
    la::Matrix first(half, views[k].data->cols());
    for (size_t i = 0; i < half; ++i) first.SetRow(i, views[k].data->Row(i));
    ASSERT_TRUE(grams[k]
                    .Bind(std::vector<int>(ids.begin(), ids.begin() + half),
                          first, views[k].kernel)
                    .ok());
    ASSERT_TRUE(grams[k].Bind(ids, *views[k].data, views[k].kernel).ok());
    carried_views[k].gram = &grams[k];
  }
  auto carried = csvm.TrainViews(carried_views, data.labels,
                                 data.initial_unlabeled_labels);
  ASSERT_TRUE(carried.ok()) << carried.status();

  // Carried kernel entries are bit-identical to computed ones, so the
  // chains solve literally the same QPs: labels, duals and decisions match.
  EXPECT_EQ(carried->unlabeled_labels, built->unlabeled_labels);
  ASSERT_EQ(carried->alphas.size(), views.size());
  EXPECT_EQ(carried->alphas, built->alphas);
  for (size_t i = 0; i < n; ++i) {
    std::vector<la::Vec> sample;
    for (const ModalityView& view : views) {
      sample.push_back(view.data->Row(i));
    }
    EXPECT_EQ(carried->Decision(sample), built->Decision(sample));
  }
  // The kernel work per modality: the chain's own Gram computes the upper
  // triangle once; the carried one only the pairs with the second half.
  const size_t entries = n * (n + 1) / 2;
  const size_t half_entries = half * (half + 1) / 2;
  ASSERT_EQ(built->diagnostics.gram_entries.size(), views.size());
  ASSERT_EQ(carried->diagnostics.gram_entries.size(), views.size());
  for (size_t k = 0; k < views.size(); ++k) {
    EXPECT_EQ(built->diagnostics.gram_entries[k].computed, entries);
    EXPECT_EQ(built->diagnostics.gram_entries[k].carried, 0u);
    EXPECT_EQ(carried->diagnostics.gram_entries[k].computed,
              entries - half_entries);
    EXPECT_EQ(carried->diagnostics.gram_entries[k].carried, half_entries);
  }
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

TEST(CsvmSharedCacheTest, InjectedSessionCachesAcrossGrowingRounds) {
  // The cross-round serving pattern, driven directly: round 2 grows the
  // labeled set; the session Grams carry by id and the trained model must
  // match a training of the same round-2 problem on fresh Grams.
  const TwoModalityData full = TwoModalityProblem(10, 8, 1.0, 0.8, 37);
  const size_t nl_full = 20;
  const size_t nu = 8;
  const MultiCoupledSvm csvm(TestOptions());

  svm::Gram visual_gram, log_gram;
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
    CBIR_RETURN_NOT_OK(visual_gram.Bind(ids, visual, views[0].kernel));
    CBIR_RETURN_NOT_OK(log_gram.Bind(std::move(ids), log, views[1].kernel));
    views[0].data = &visual;
    views[1].data = &log;
    views[0].gram = &visual_gram;
    views[1].gram = &log_gram;
    return csvm.TrainViews(views, labels, full.initial_unlabeled_labels);
  };

  ASSERT_TRUE(run_round(10).ok());
  auto carried = run_round(nl_full);
  ASSERT_TRUE(carried.ok());

  // Reference: the identical round-2 problem (same interleaved row order),
  // trained on fresh Grams.
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
  // Round 2 holds all 18 images of round 1 (171 pairs, carried) plus the
  // 10 new labeled images, whose pairs alone are computed: 406 - 171.
  ASSERT_EQ(carried->diagnostics.gram_entries.size(), 2u);
  for (const auto& entries : carried->diagnostics.gram_entries) {
    EXPECT_EQ(entries.carried, 171u);
    EXPECT_EQ(entries.computed, 235u);
  }
  EXPECT_EQ(reference->diagnostics.gram_entries[0].computed, 406u);
}

// ---- Feedback-loop level: full sessions with and without carried Grams. ---

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

/// The reference for the cross-round Grams: forwards to `inner` but drops
/// the session's carried Grams before every round, keeping the warm-start
/// duals, so each round computes its kernel entries afresh.
class FreshKernelRowsScheme : public FeedbackScheme {
 public:
  explicit FreshKernelRowsScheme(std::shared_ptr<FeedbackScheme> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }

  Result<std::vector<int>> Rank(const FeedbackContext& ctx) const override {
    if (ctx.session_state != nullptr) {
      for (SessionState::Modality& modality : ctx.session_state->modalities) {
        modality.gram.Clear();
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

TEST_F(SessionCacheFeedbackTest, RfSvmSessionMatchesWithoutCaches) {
  FeedbackLoopOptions loop;
  loop.rounds = 3;
  loop.judgments_per_round = 12;
  loop.scopes = {10, 20};

  // RF-SVM runs visual-only; LRF-2SVMs carries both modalities' Grams.
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
  // Both modalities computed their first round's Gram and carried the
  // images that stayed into the second.
  ASSERT_EQ(diag.gram_entries.size(), 2u);
  for (const auto& entries : diag.gram_entries) {
    EXPECT_GT(entries.computed, 0u);
    EXPECT_GT(entries.carried, 0u);
  }
}

}  // namespace
}  // namespace cbir::core

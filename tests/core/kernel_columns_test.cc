#include "core/kernel_columns.h"

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/feedback_loop.h"
#include "core/scheme_factory.h"
#include "logdb/log_store.h"
#include "logdb/simulated_user.h"
#include "obs/metrics.h"
#include "retrieval/ranker.h"
#include "svm/model.h"
#include "util/rng.h"

namespace cbir::core {
namespace {

class KernelColumnsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    retrieval::DatabaseOptions options;
    options.corpus.num_categories = 4;
    options.corpus.images_per_category = 20;
    options.corpus.width = 48;
    options.corpus.height = 48;
    options.corpus.seed = 23;
    db_ = new retrieval::ImageDatabase(
        retrieval::ImageDatabase::Build(options));
    indexed_db_ = new retrieval::ImageDatabase(*db_);
    retrieval::IndexOptions index_options;
    index_options.mode = retrieval::IndexMode::kSignature;
    indexed_db_->BuildIndex(index_options);

    logdb::LogCollectionOptions log_options;
    log_options.num_sessions = 25;
    log_options.session_size = 8;
    log_options.seed = 4;
    const logdb::LogStore store =
        logdb::CollectLogs(db_->features(), db_->categories(), log_options);
    log_features_ = new la::Matrix(
        store.BuildMatrix(db_->num_images()).ToDenseMatrix());
    log_rows_ = new la::SparseRows(la::SparseRows::FromDense(*log_features_));
  }
  static void TearDownTestSuite() {
    delete log_rows_;
    delete log_features_;
    delete indexed_db_;
    delete db_;
  }

  /// A prepared context for `query` with its 12 nearest images judged;
  /// `narrowed` scans the signature index's candidate pool.
  static FeedbackContext MakeContext(int query, bool narrowed) {
    FeedbackContext ctx;
    ctx.db = narrowed ? indexed_db_ : db_;
    ctx.log_rows = log_rows_;
    ctx.query_id = query;
    ctx.candidate_depth = narrowed ? 6 : 0;
    EXPECT_TRUE(ctx.Prepare().ok());
    const int category = db_->category(query);
    for (int id : retrieval::RankByEuclidean(db_->features(),
                                             db_->feature(query), 13)) {
      if (id == query) continue;
      ctx.labeled_ids.push_back(id);
      ctx.labels.push_back(db_->category(id) == category ? 1.0 : -1.0);
    }
    return ctx;
  }

  /// Modality `modality`'s training rows of images `ids`.
  static la::Matrix Rows(size_t modality, const std::vector<int>& ids) {
    if (modality == 1) return log_rows_->GatherDense(ids);
    la::Matrix out(ids.size(), db_->features().cols());
    for (size_t i = 0; i < ids.size(); ++i) {
      out.SetRow(i, db_->feature(ids[i]));
    }
    return out;
  }

  /// The per-row loop the column store replaces: each scan row's kernel
  /// values against every support vector, dotted with the coefficients.
  static std::vector<double> ReferenceDecisions(const FeedbackContext& ctx,
                                                size_t modality,
                                                const svm::SvmModel& model) {
    const size_t num_sv = model.num_support_vectors();
    const la::SparseRows sparse_svs =
        la::SparseRows::FromDense(model.support_vectors());
    std::vector<double> kernel_row(num_sv);
    std::vector<double> out(ctx.scan_size());
    for (size_t pos = 0; pos < ctx.scan_size(); ++pos) {
      if (modality == 0) {
        svm::EvalKernelRowBatch(model.kernel(), model.support_vectors(),
                                ctx.ScanFeatures().RowPtr(pos),
                                kernel_row.data(), 0, num_sv);
      } else {
        for (size_t s = 0; s < num_sv; ++s) {
          kernel_row[s] = svm::EvalKernel(model.kernel(), sparse_svs.Row(s),
                                          ctx.ScanLogRows()->Row(pos),
                                          log_rows_->cols());
        }
      }
      out[pos] = model.bias() + la::DotN(kernel_row.data(),
                                         model.coefficients().data(), num_sv);
    }
    return out;
  }

  /// A model over the labeled images plus four unlabeled ones, so some
  /// support vectors are held columns and some are streamed.
  static std::pair<svm::SvmModel, std::vector<int>> MakeModel(
      const FeedbackContext& ctx, size_t modality,
      const svm::KernelParams& kernel) {
    std::vector<int> row_ids = ctx.labeled_ids;
    std::vector<double> labels = ctx.labels;
    for (size_t pos = 0; row_ids.size() < ctx.labeled_ids.size() + 4; ++pos) {
      const int id = ctx.ScanId(pos);
      if (id == ctx.query_id ||
          std::find(row_ids.begin(), row_ids.end(), id) != row_ids.end()) {
        continue;
      }
      row_ids.push_back(id);
      labels.push_back(row_ids.size() % 2 == 0 ? 1.0 : -1.0);
    }
    const la::Matrix rows = Rows(modality, row_ids);
    std::vector<double> alpha(row_ids.size());
    for (size_t i = 0; i < alpha.size(); ++i) {
      alpha[i] = i % 5 == 3 ? 0.0 : 0.1 + 0.37 * static_cast<double>(i);
    }
    return {svm::BuildModel(kernel, rows, labels, alpha, 0.125), row_ids};
  }

  static uint64_t ColumnsComputed() {
    return obs::MetricsRegistry::Default()
        .GetCounter("cbir_core_kernel_columns_computed_total")
        ->value();
  }

  /// Requires `store` to hold `ids` exactly as a fresh store bound to the
  /// same context, modality and kernel computes them.
  static void ExpectFreshColumns(const FeedbackContext& ctx, size_t modality,
                                 const svm::KernelParams& kernel,
                                 const KernelColumnStore& store,
                                 const std::vector<int>& ids) {
    KernelColumnStore fresh;
    fresh.Bind(ctx, modality, kernel);
    fresh.Hold(ids);
    for (int id : ids) {
      const svm::KernelColumn& held = store.Column(id);
      const svm::KernelColumn& expected = fresh.Column(id);
      EXPECT_EQ(held.sparse, expected.sparse) << "id " << id;
      EXPECT_EQ(held.fill, expected.fill) << "id " << id;
      EXPECT_EQ(held.rows, expected.rows) << "id " << id;
      EXPECT_EQ(held.values, expected.values) << "id " << id;
    }
  }

  static retrieval::ImageDatabase* db_;
  static retrieval::ImageDatabase* indexed_db_;
  static la::Matrix* log_features_;
  static la::SparseRows* log_rows_;
};

retrieval::ImageDatabase* KernelColumnsTest::db_ = nullptr;
retrieval::ImageDatabase* KernelColumnsTest::indexed_db_ = nullptr;
la::Matrix* KernelColumnsTest::log_features_ = nullptr;
la::SparseRows* KernelColumnsTest::log_rows_ = nullptr;

TEST_F(KernelColumnsTest, DecisionsAreBitIdenticalToTheRowLoop) {
  const svm::KernelParams visual = svm::KernelParams::Rbf(0.05);
  for (bool narrowed : {false, true}) {
    const FeedbackContext ctx = MakeContext(17, narrowed);
    ASSERT_EQ(ctx.scan_ids.empty(), !narrowed);
    for (const svm::KernelParams& log_kernel :
         {svm::KernelParams::Linear(),
          svm::KernelParams::Polynomial(0.5, 1.0, 2),
          svm::KernelParams::Rbf(0.1)}) {
      SCOPED_TRACE(std::string(narrowed ? "narrowed " : "exact ") +
                   log_kernel.ToString());
      for (size_t k = 0; k < 2; ++k) {
        const svm::KernelParams& kernel = k == 0 ? visual : log_kernel;
        const auto [model, row_ids] = MakeModel(ctx, k, kernel);
        KernelColumnStore store;
        store.Bind(ctx, k, kernel);
        store.Hold(ctx.labeled_ids);
        EXPECT_EQ(store.Decisions(model, row_ids),
                  ReferenceDecisions(ctx, k, model));
        // The labeled-only model of Fig. 1 sums in Decision's order.
        const svm::SvmModel labeled_model = svm::BuildModel(
            kernel, Rows(k, ctx.labeled_ids), ctx.labels,
            std::vector<double>(ctx.labeled_ids.size(), 0.3), -0.5);
        const std::vector<double> sequential =
            store.SequentialDecisions(labeled_model, ctx.labeled_ids);
        for (size_t pos = 0; pos < ctx.scan_size(); ++pos) {
          const double expected =
              k == 0 ? labeled_model.Decision(ctx.ScanFeatures().Row(pos))
                     : labeled_model.Decision(log_features_->Row(
                           static_cast<size_t>(ctx.ScanId(pos))));
          ASSERT_EQ(sequential[pos], expected) << "pos " << pos;
        }
      }
    }
  }
}

TEST_F(KernelColumnsTest, UnmarkedLogRowsHoldTheKernelOfEmptyRows) {
  const FeedbackContext ctx = MakeContext(41, /*narrowed=*/false);
  const la::SparseRowView empty(nullptr, nullptr, 0);
  for (const svm::KernelParams& kernel :
       {svm::KernelParams::Linear(),
        svm::KernelParams::Polynomial(0.5, 1.0, 3)}) {
    SCOPED_TRACE(kernel.ToString());
    const double k0 = svm::EvalKernel(kernel, empty, empty, log_rows_->cols());
    KernelColumnStore store;
    store.Bind(ctx, 1, kernel);
    store.Hold(ctx.labeled_ids);
    size_t unmarked = 0;
    for (int id : ctx.labeled_ids) {
      const svm::KernelColumn& column = store.Column(id);
      ASSERT_TRUE(column.sparse);
      EXPECT_EQ(column.fill, k0);
      EXPECT_LT(column.rows.size(), ctx.scan_size());
      for (size_t pos = 0; pos < ctx.scan_size(); ++pos) {
        const double exact =
            svm::EvalKernel(kernel, log_rows_->Row(static_cast<size_t>(id)),
                            log_rows_->Row(pos), log_rows_->cols());
        ASSERT_EQ(column.At(pos), exact) << "id " << id << " pos " << pos;
        if (!std::binary_search(column.rows.begin(), column.rows.end(),
                                static_cast<uint32_t>(pos))) {
          ++unmarked;
          EXPECT_EQ(exact, k0);
        }
      }
    }
    EXPECT_GT(unmarked, 0u);
  }
}

TEST_F(KernelColumnsTest, HoldComputesOnlyNewColumnsAndCounts) {
  const FeedbackContext ctx = MakeContext(5, /*narrowed=*/true);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  obs::Counter* computed =
      registry.GetCounter("cbir_core_kernel_columns_computed_total");
  obs::Counter* reused =
      registry.GetCounter("cbir_core_kernel_columns_reused_total");
  KernelColumnStore store;
  store.Bind(ctx, 0, svm::KernelParams::Rbf(0.05));
  const std::vector<int> first(ctx.labeled_ids.begin(),
                               ctx.labeled_ids.begin() + 6);
  const uint64_t computed_before = computed->value();
  const uint64_t reused_before = reused->value();
  store.Hold(first);
  const size_t bytes = store.AllocatedBytes();
  EXPECT_GE(bytes, first.size() * ctx.scan_size() * sizeof(double));
  store.Hold(ctx.labeled_ids);
  EXPECT_GT(store.AllocatedBytes(), bytes);
  // The first six columns were computed once and then reused.
  EXPECT_EQ(computed->value() - computed_before, ctx.labeled_ids.size());
  EXPECT_EQ(reused->value() - reused_before, first.size());
  // Another kernel invalidates every held column.
  store.Bind(ctx, 0, svm::KernelParams::Rbf(0.5));
  store.Hold(first);
  EXPECT_EQ(computed->value() - computed_before,
            ctx.labeled_ids.size() + first.size());
}

TEST_F(KernelColumnsTest, CarriedColumnsRankLikeAStatelessSession) {
  // A session round ranks from its query, labels, scan space and kernel
  // columns only, so each round equals the plain scheme ranking a freshly
  // prepared copy of the context, whether the columns carried over (a
  // candidate pool) or were released after the last round (a corpus-wide
  // scan, candidate_depth 0).
  LrfCsvmOptions csvm;
  csvm.n_prime = 8;
  for (const svm::KernelParams& log_kernel :
       {svm::KernelParams::Linear(), svm::KernelParams::Rbf(0.1)}) {
    SchemeOptions options = MakeDefaultSchemeOptions(*db_, log_features_);
    options.log_kernel = log_kernel;
    for (const char* name : {"RF-SVM", "LRF-2SVMs", "LRF-CSVM"}) {
      const auto scheme = MakeScheme(name, options, csvm).value();
      for (int depth : {0, 8}) {
        SCOPED_TRACE(log_kernel.ToString() + " " + name + " depth " +
                     std::to_string(depth));
        FeedbackContext ctx;
        ctx.db = indexed_db_;
        ctx.log_rows = log_rows_;
        ctx.query_id = 29;
        ctx.candidate_depth = depth;
        FeedbackSession session(std::move(ctx));
        const logdb::SimulatedUser user(db_->categories(),
                                        logdb::UserModel{});
        std::unordered_set<int> judged{29};
        Rng rng(3);
        session.SetFirstRound(indexed_db_->TopK(
            db_->feature(29), FirstRoundDepth(*indexed_db_, depth)));
        size_t last_bytes = 0;
        for (int round = 0; round < 3; ++round) {
          const std::vector<logdb::LogEntry> judgments = user.JudgeRound(
              session.ranking(), db_->category(29), 4, &judged, &rng);
          ASSERT_TRUE(session.ApplyRound(*scheme, judgments).ok());
          FeedbackContext reference = session.context();
          ASSERT_TRUE(reference.Prepare().ok());
          EXPECT_EQ(session.ranking(), scheme->Rank(reference).value())
              << "round " << round;
          if (depth == 0) {
            // A corpus-wide scan's columns do not outlive the round.
            EXPECT_EQ(session.kernel_bytes(), 0u);
            continue;
          }
          // The carried columns grow with the labeled set.
          const size_t labeled = session.context().labeled_ids.size();
          EXPECT_GE(session.kernel_bytes(),
                    labeled * session.context().scan_size() *
                        sizeof(double));
          EXPECT_GT(session.kernel_bytes(), last_bytes);
          last_bytes = session.kernel_bytes();
        }
        session.End();
        EXPECT_EQ(session.kernel_bytes(), 0u);
      }
    }
  }
}

TEST_F(KernelColumnsTest, PaperSchemesOnOneContextComputeLabeledColumnsOnce) {
  // Table 1's protocol: RF-SVM, LRF-2SVMs and LRF-CSVM rank one prepared
  // context in turn. They share the visual kernel, and the last two the
  // log kernel, so the context's stores serve each labeled image's column
  // once per modality, where three fresh contexts compute the visual
  // columns three times and the log columns twice. Rankings are unchanged.
  const SchemeOptions options = MakeDefaultSchemeOptions(*db_, log_features_);
  LrfCsvmOptions csvm;
  csvm.n_prime = 8;
  const std::vector<std::shared_ptr<FeedbackScheme>> schemes = {
      MakeScheme("RF-SVM", options).value(),
      MakeScheme("LRF-2SVMs", options).value(),
      MakeScheme("LRF-CSVM", options, csvm).value()};
  for (bool narrowed : {false, true}) {
    SCOPED_TRACE(narrowed ? "narrowed" : "exact");
    std::vector<std::vector<int>> fresh_rankings;
    uint64_t before = ColumnsComputed();
    for (const auto& scheme : schemes) {
      const FeedbackContext fresh = MakeContext(11, narrowed);
      fresh_rankings.push_back(scheme->Rank(fresh).value());
    }
    const uint64_t fresh_work = ColumnsComputed() - before;

    const FeedbackContext shared = MakeContext(11, narrowed);
    before = ColumnsComputed();
    for (size_t s = 0; s < schemes.size(); ++s) {
      EXPECT_EQ(schemes[s]->Rank(shared).value(), fresh_rankings[s])
          << schemes[s]->name();
    }
    const uint64_t shared_work = ColumnsComputed() - before;
    // Saved: two visual columns and one log column per labeled image.
    // Streamed support vectors' columns are computed alike on both sides.
    EXPECT_EQ(fresh_work - shared_work, 3 * shared.labeled_ids.size());
  }
}

/// The rebind and eviction cases of the kernel columns a context holds
/// across schemes and rounds.
using KernelCacheRebindTest = KernelColumnsTest;
using KernelCacheTest = KernelColumnsTest;

TEST_F(KernelCacheRebindTest, SlabIsAllocatedLazily) {
  // A prepared context holds no columns until a scheme ranks it; the
  // ranking leaves the labeled images' columns on it, and
  // ReleaseKernelColumns() or the next Prepare() frees them.
  FeedbackContext ctx = MakeContext(9, /*narrowed=*/true);
  EXPECT_EQ(ctx.KernelColumnBytes(), 0u);
  const auto scheme =
      MakeScheme("LRF-2SVMs", MakeDefaultSchemeOptions(*db_, log_features_))
          .value();
  ASSERT_TRUE(scheme->Rank(ctx).ok());
  EXPECT_GE(ctx.KernelColumnBytes(),
            ctx.labeled_ids.size() * ctx.scan_size() * sizeof(double));
  ctx.ReleaseKernelColumns();
  EXPECT_EQ(ctx.KernelColumnBytes(), 0u);
  ASSERT_TRUE(scheme->Rank(ctx).ok());
  EXPECT_GT(ctx.KernelColumnBytes(), 0u);
  ASSERT_TRUE(ctx.Prepare().ok());
  EXPECT_EQ(ctx.KernelColumnBytes(), 0u);
}

TEST_F(KernelCacheRebindTest, RebindInvalidatesRowsAndReusesAllocation) {
  // Prepare() recomputes the scan and drops the columns over the old one:
  // the next ranking computes every labeled column again (RF-SVM's support
  // vectors are all labeled, so it streams none) and holds as much.
  FeedbackContext ctx = MakeContext(9, /*narrowed=*/true);
  const auto scheme =
      MakeScheme("RF-SVM", MakeDefaultSchemeOptions(*db_, log_features_))
          .value();
  const std::vector<int> ranking = scheme->Rank(ctx).value();
  const size_t bytes = ctx.KernelColumnBytes();
  ASSERT_TRUE(ctx.Prepare().ok());
  const uint64_t before = ColumnsComputed();
  EXPECT_EQ(scheme->Rank(ctx).value(), ranking);
  EXPECT_EQ(ColumnsComputed() - before, ctx.labeled_ids.size());
  EXPECT_EQ(ctx.KernelColumnBytes(), bytes);
}

TEST_F(KernelCacheRebindTest, RemappedGrowthCarriesSurvivingRows) {
  // A session's next round: the labeled set grows, its old images permuted
  // and new ones interleaved. Only the new images' columns are computed,
  // and every held column equals a fresh store's bit for bit.
  const FeedbackContext ctx = MakeContext(21, /*narrowed=*/true);
  const std::vector<int>& ids = ctx.labeled_ids;
  const svm::KernelParams kernel = svm::KernelParams::Rbf(0.05);
  KernelColumnStore& store = ctx.KernelColumns(0);
  store.Bind(ctx, 0, kernel);
  store.Hold({ids[0], ids[2], ids[3], ids[5]});
  const std::vector<int> grown = {ids[2], ids[0], ids[4],
                                  ids[3], ids[6], ids[5]};
  const uint64_t before = ColumnsComputed();
  store.Bind(ctx, 0, kernel);
  store.Hold(grown);
  EXPECT_EQ(ColumnsComputed() - before, 2u);
  ExpectFreshColumns(ctx, 0, kernel, store, grown);
}

TEST_F(KernelCacheRebindTest, RemappedShrinkDropsDepartedRows) {
  const FeedbackContext ctx = MakeContext(21, /*narrowed=*/false);
  const std::vector<int>& ids = ctx.labeled_ids;
  const svm::KernelParams kernel = svm::KernelParams::Linear();
  KernelColumnStore& store = ctx.KernelColumns(1);
  store.Bind(ctx, 1, kernel);
  store.Hold(ids);
  const size_t all_bytes = store.AllocatedBytes();
  const std::vector<int> kept = {ids[5], ids[1], ids[3]};
  const uint64_t before = ColumnsComputed();
  store.Hold(kept);
  EXPECT_EQ(ColumnsComputed() - before, 0u);
  EXPECT_LT(store.AllocatedBytes(), all_bytes);
  ExpectFreshColumns(ctx, 1, kernel, store, kept);
}

TEST_F(KernelCacheRebindTest, RemappedWithDifferentParamsInvalidates) {
  // Schemes under different visual kernels rank one context: none may read
  // another's columns. Each computes every labeled column and ranks as it
  // does on a fresh context.
  const SchemeOptions base = MakeDefaultSchemeOptions(*db_, log_features_);
  SchemeOptions wider = base;
  wider.visual_kernel.gamma *= 4.0;
  SchemeOptions polynomial = base;
  polynomial.visual_kernel = svm::KernelParams::Polynomial(0.5, 1.0, 2);
  const FeedbackContext ctx = MakeContext(33, /*narrowed=*/false);
  for (const SchemeOptions& options : {base, wider, polynomial}) {
    SCOPED_TRACE(options.visual_kernel.ToString());
    const auto scheme = MakeScheme("RF-SVM", options).value();
    const uint64_t before = ColumnsComputed();
    const std::vector<int> ranking = scheme->Rank(ctx).value();
    EXPECT_EQ(ColumnsComputed() - before, ctx.labeled_ids.size());
    EXPECT_EQ(ranking, scheme->Rank(MakeContext(33, false)).value());
  }
}

TEST_F(KernelCacheTest, EvictionKeepsResultsCorrect) {
  // The context's stores churn through labeled sets, dropping the images
  // that left at every Hold: every held column equals a fresh store's, bit
  // for bit, in both modalities.
  const FeedbackContext ctx = MakeContext(13, /*narrowed=*/true);
  const std::vector<int>& ids = ctx.labeled_ids;
  const std::vector<std::vector<size_t>> rounds = {
      {0, 1, 2}, {2, 3, 0}, {7, 0, 1, 3}, {1}, {1, 7, 6, 5, 4}, {0, 1, 7}};
  for (size_t k = 0; k < 2; ++k) {
    const svm::KernelParams kernel = k == 0 ? svm::KernelParams::Rbf(0.05)
                                            : svm::KernelParams::Linear();
    KernelColumnStore& store = ctx.KernelColumns(k);
    for (const std::vector<size_t>& round : rounds) {
      std::vector<int> held;
      for (size_t i : round) held.push_back(ids[i]);
      store.Bind(ctx, k, kernel);
      store.Hold(held);
      ExpectFreshColumns(ctx, k, kernel, store, held);
    }
  }
}

TEST_F(KernelCacheTest, LruKeepsRecentRow) {
  // Only the last Hold is kept: image a left in the second Hold, so its
  // column is computed again when it returns in the third.
  const FeedbackContext ctx = MakeContext(13, /*narrowed=*/true);
  const int a = ctx.labeled_ids[0];
  const int b = ctx.labeled_ids[1];
  const int c = ctx.labeled_ids[2];
  KernelColumnStore& store = ctx.KernelColumns(0);
  store.Bind(ctx, 0, svm::KernelParams::Rbf(0.05));
  uint64_t before = ColumnsComputed();
  store.Hold({a, b});
  EXPECT_EQ(ColumnsComputed() - before, 2u);
  before = ColumnsComputed();
  store.Hold({b, c});
  EXPECT_EQ(ColumnsComputed() - before, 1u);  // c
  before = ColumnsComputed();
  store.Hold({a, b, c});
  EXPECT_EQ(ColumnsComputed() - before, 1u);  // a again
}

}  // namespace
}  // namespace cbir::core

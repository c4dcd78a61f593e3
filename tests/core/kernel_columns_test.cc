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
#include "svm/trainer.h"
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

/// Forwards to `inner` after dropping the session's warm-start duals and
/// Grams, so every round solves cold, exactly like a round without a
/// SessionState; only the carried kernel columns survive.
class ColdSolveScheme : public FeedbackScheme {
 public:
  explicit ColdSolveScheme(std::shared_ptr<FeedbackScheme> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  Result<std::vector<int>> Rank(const FeedbackContext& ctx) const override {
    for (SessionState::Modality& modality : ctx.session_state->modalities) {
      modality.alpha.clear();
      modality.gram.Clear();
    }
    return inner_->Rank(ctx);
  }

 private:
  std::shared_ptr<FeedbackScheme> inner_;
};

TEST_F(KernelColumnsTest, CarriedColumnsRankLikeAStatelessSession) {
  LrfCsvmOptions csvm;
  csvm.n_prime = 8;
  for (const svm::KernelParams& log_kernel :
       {svm::KernelParams::Linear(), svm::KernelParams::Rbf(0.1)}) {
    SCOPED_TRACE(log_kernel.ToString());
    SchemeOptions options = MakeDefaultSchemeOptions(*db_, log_features_);
    options.log_kernel = log_kernel;
    const ColdSolveScheme carried(
        MakeScheme("LRF-CSVM", options, csvm).value());
    const auto stateless = MakeScheme("LRF-CSVM", options, csvm).value();

    FeedbackContext ctx;
    ctx.db = indexed_db_;
    ctx.log_rows = log_rows_;
    ctx.query_id = 29;
    ctx.candidate_depth = 8;
    FeedbackSession session(std::move(ctx));
    const logdb::SimulatedUser user(db_->categories(), logdb::UserModel{});
    std::unordered_set<int> judged{29};
    Rng rng(3);
    session.SetFirstRound(indexed_db_->TopK(db_->feature(29), 8));
    size_t last_bytes = 0;
    for (int round = 0; round < 3; ++round) {
      const std::vector<logdb::LogEntry> judgments = user.JudgeRound(
          session.ranking(), db_->category(29), 4, &judged, &rng);
      ASSERT_TRUE(session.ApplyRound(carried, judgments).ok());
      FeedbackContext reference = session.context();
      reference.session_state = nullptr;
      ASSERT_TRUE(reference.Prepare().ok());
      EXPECT_EQ(session.ranking(), stateless->Rank(reference).value())
          << "round " << round;
      // The carried columns grow with the labeled set.
      const size_t labeled = session.context().labeled_ids.size();
      EXPECT_GE(session.kernel_bytes(),
                labeled * session.context().scan_size() * sizeof(double));
      EXPECT_GT(session.kernel_bytes(), last_bytes);
      last_bytes = session.kernel_bytes();
    }
    session.End();
    EXPECT_EQ(session.kernel_bytes(), 0u);
  }
}

}  // namespace
}  // namespace cbir::core

#include "svm/model.h"

#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "svm/decision_lanes.h"
#include "util/rng.h"

namespace cbir::svm {
namespace {

SvmModel ToyModel() {
  la::Matrix sv(2, 2);
  sv.SetRow(0, {1.0, 0.0});
  sv.SetRow(1, {-1.0, 0.0});
  // f(x) = 0.5*K(sv0,x) - 0.5*K(sv1,x) + 0.1
  return SvmModel(KernelParams::Rbf(1.0), std::move(sv), {0.5, -0.5}, 0.1);
}

TEST(SvmModelTest, DecisionClosedForm) {
  const SvmModel m = ToyModel();
  // At the midpoint both kernels are equal: f = bias.
  EXPECT_NEAR(m.Decision({0.0, 0.0}), 0.1, 1e-12);
  // Near sv0 the positive coefficient dominates.
  EXPECT_GT(m.Decision({1.0, 0.0}), 0.1);
  EXPECT_LT(m.Decision({-1.0, 0.0}), 0.1);
}

TEST(SvmModelTest, PredictSign) {
  const SvmModel m = ToyModel();
  EXPECT_EQ(m.Predict({1.0, 0.0}), 1.0);
  EXPECT_EQ(m.Predict({-1.0, 0.0}), -1.0);
}

/// The per-row loop column scoring replaces: each row's kernel values
/// against every support vector, dotted with the coefficients.
std::vector<double> ReferenceScores(const SvmModel& m,
                                    const la::Matrix& batch) {
  const size_t num_sv = m.num_support_vectors();
  std::vector<double> kernel_row(num_sv);
  std::vector<double> out(batch.rows());
  for (size_t r = 0; r < batch.rows(); ++r) {
    EvalKernelRowBatch(m.kernel(), m.support_vectors(), batch.RowPtr(r),
                       kernel_row.data(), 0, num_sv);
    out[r] = m.bias() +
             la::DotN(kernel_row.data(), m.coefficients().data(), num_sv);
  }
  return out;
}

/// Rows [begin, end) of `batch` scored column by column from dense
/// columns.
std::vector<double> ColumnScores(const SvmModel& m, const la::Matrix& batch,
                                 size_t begin, size_t end) {
  DecisionLanes lanes(begin, end, m.num_support_vectors());
  std::vector<double> column(end - begin);
  for (size_t s = 0; s < m.num_support_vectors(); ++s) {
    EvalKernelRowBatch(m.kernel(), batch, m.support_vectors().RowPtr(s),
                       column.data(), begin, end);
    lanes.Add(m.coefficients()[s], column.data());
  }
  std::vector<double> out(end - begin);
  lanes.Finish(m.bias(), out.data());
  return out;
}

TEST(SvmModelTest, DecisionBatchMatchesScalar) {
  const SvmModel m = ToyModel();
  la::Matrix batch(3, 2);
  batch.SetRow(0, {0.5, 0.5});
  batch.SetRow(1, {-2.0, 1.0});
  batch.SetRow(2, {0.0, 0.0});
  const std::vector<double> scores = ColumnScores(m, batch, 0, 3);
  ASSERT_EQ(scores.size(), 3u);
  EXPECT_EQ(scores, ReferenceScores(m, batch));
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(scores[i], m.Decision(batch.Row(i)), 1e-12);
  }
}

TEST(SvmModelTest, EmptyModelIsBiasOnly) {
  SvmModel m;
  EXPECT_TRUE(m.empty());
  EXPECT_DOUBLE_EQ(m.Decision({}), 0.0);
}

// A model over `dims`-column rows with `num_sv` support vectors, plus a
// batch of `rows` samples; `density` of the entries are nonzero, drawn from
// the log's +1 / -0.25 weights.
struct SparseCase {
  SvmModel model;
  la::Matrix batch;
};

SparseCase RandomSparseCase(const KernelParams& kernel, size_t num_sv,
                            size_t rows, size_t dims, double density,
                            uint64_t seed) {
  Rng rng(seed);
  const auto fill = [&](la::Matrix* m) {
    for (double& v : m->data()) {
      if (rng.Uniform() < density) v = rng.Uniform() < 0.6 ? 1.0 : -0.25;
    }
  };
  la::Matrix sv(num_sv, dims, 0.0);
  fill(&sv);
  std::vector<double> coefficients(num_sv);
  for (double& c : coefficients) c = rng.Uniform(-10.0, 10.0);
  la::Matrix batch(rows, dims, 0.0);
  fill(&batch);
  return {SvmModel(kernel, std::move(sv), std::move(coefficients),
                   rng.Uniform(-1.0, 1.0)),
          std::move(batch)};
}

/// Support vector s's column over the sparse rows of `batch`, as the log
/// side keeps it: a dot-product kernel lists only the rows sharing a
/// nonzero column with the support vector and fills the rest with the
/// kernel of two empty rows; RBF keeps every row.
KernelColumn LogColumn(const KernelParams& kernel, const la::SparseRows& svs,
                       size_t s, const la::SparseRows& batch) {
  KernelColumn column;
  const la::SparseRowView sv = svs.Row(s);
  if (kernel.type == KernelType::kRbf) {
    for (size_t r = 0; r < batch.rows(); ++r) {
      column.values.push_back(
          EvalKernel(kernel, sv, batch.Row(r), batch.cols()));
    }
    return column;
  }
  const la::SparseRowView empty(nullptr, nullptr, 0);
  column.sparse = true;
  column.fill = EvalKernel(kernel, empty, empty, batch.cols());
  const la::SparseRows by_column = batch.Transpose();
  for (size_t k = 0; k < sv.nnz; ++k) {
    const la::SparseRowView rows = by_column.Row(sv.index[k]);
    column.rows.insert(column.rows.end(), rows.index, rows.index + rows.nnz);
  }
  std::sort(column.rows.begin(), column.rows.end());
  column.rows.erase(std::unique(column.rows.begin(), column.rows.end()),
                    column.rows.end());
  for (uint32_t r : column.rows) {
    column.values.push_back(
        EvalKernel(kernel, sv, batch.Row(r), batch.cols()));
  }
  return column;
}

TEST(SvmModelTest, SparseDecisionsAreBitIdenticalToDense) {
  for (const KernelParams& kernel :
       {KernelParams::Linear(), KernelParams::Rbf(0.02),
        KernelParams::Polynomial(0.5, 1.0, 2),
        KernelParams::Polynomial(0.5, 0.0, 2)}) {
    SCOPED_TRACE(kernel.ToString());
    // Sparse log rows and nearly dense ones; 39 support vectors put the
    // last three in the lane-0 tail.
    for (const auto& [rows, density] :
         {std::pair<size_t, double>{328, 0.02}, {400, 0.9}}) {
      const SparseCase c =
          RandomSparseCase(kernel, 39, rows, 150, density, rows);
      const la::SparseRows sparse = la::SparseRows::FromDense(c.batch);
      const la::SparseRows svs =
          la::SparseRows::FromDense(c.model.support_vectors());
      std::vector<KernelColumn> columns;
      for (size_t s = 0; s < svs.rows(); ++s) {
        columns.push_back(LogColumn(kernel, svs, s, sparse));
      }
      const std::vector<double> reference = ReferenceScores(c.model, c.batch);
      // The whole batch at once, then in two uneven row ranges.
      for (const auto& [begin, end] :
           {std::pair<size_t, size_t>{0, rows}, {0, 77}, {77, rows}}) {
        DecisionLanes lanes(begin, end, columns.size());
        for (size_t s = 0; s < columns.size(); ++s) {
          lanes.Add(c.model.coefficients()[s], columns[s]);
        }
        std::vector<double> scores(end - begin);
        lanes.Finish(c.model.bias(), scores.data());
        for (size_t r = begin; r < end; ++r) {
          ASSERT_EQ(scores[r - begin], reference[r]) << "row " << r;
        }
      }
      EXPECT_EQ(ColumnScores(c.model, c.batch, 0, rows), reference);
      for (size_t s = 0; s < columns.size(); ++s) {
        for (size_t r = 0; r < rows; r += 37) {
          EXPECT_EQ(columns[s].At(r),
                    EvalKernelRow(kernel, c.model.support_vectors(), s,
                                  c.batch.Row(r)));
        }
      }
    }
  }
}

TEST(SvmModelTest, SparseDecisionsOfEmptyModelAreBias) {
  DecisionLanes lanes(0, 3, 0);
  std::vector<double> scores(3);
  lanes.Finish(-0.25, scores.data());
  EXPECT_EQ(scores, std::vector<double>(3, -0.25));
  DecisionLanes no_rows(5, 5, 0);
  no_rows.Finish(1.0, nullptr);
}

TEST(SvmModelTest, BuildModelRecordsSupportRows) {
  la::Matrix data(4, 1);
  data.SetRow(0, {1.0});
  data.SetRow(1, {2.0});
  data.SetRow(2, {3.0});
  data.SetRow(3, {4.0});
  const SvmModel m = BuildModel(KernelParams::Linear(), data,
                                {1.0, -1.0, 1.0, -1.0},
                                {0.5, 0.0, 1e-13, 0.25}, 0.0);
  EXPECT_EQ(m.support_rows(), (std::vector<size_t>{0, 3}));
  EXPECT_EQ(m.coefficients(), (std::vector<double>{0.5, -0.25}));
  EXPECT_EQ(m.support_vectors().At(1, 0), 4.0);
}

}  // namespace
}  // namespace cbir::svm

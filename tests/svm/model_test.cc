#include "svm/model.h"

#include <sstream>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "svm/trainer.h"
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

TEST(SvmModelTest, DecisionBatchMatchesScalar) {
  const SvmModel m = ToyModel();
  la::Matrix batch(3, 2);
  batch.SetRow(0, {0.5, 0.5});
  batch.SetRow(1, {-2.0, 1.0});
  batch.SetRow(2, {0.0, 0.0});
  const std::vector<double> scores = m.DecisionBatch(batch);
  ASSERT_EQ(scores.size(), 3u);
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

TEST(SvmModelTest, SparseDecisionsAreBitIdenticalToDense) {
  for (const KernelParams& kernel :
       {KernelParams::Linear(), KernelParams::Rbf(0.02),
        KernelParams::Polynomial(0.5, 1.0, 2)}) {
    SCOPED_TRACE(kernel.ToString());
    // A pool-sized batch scored on the calling thread, and a corpus-sized
    // one whose work fans out across threads.
    for (const auto& [rows, density] :
         {std::pair<size_t, double>{328, 0.02}, {400, 0.9}}) {
      const SparseCase c =
          RandomSparseCase(kernel, 40, rows, 150, density, rows);
      const la::SparseRows sparse = la::SparseRows::FromDense(c.batch);
      const std::vector<double> dense_scores = c.model.DecisionBatch(c.batch);
      const std::vector<double> sparse_scores =
          c.model.DecisionBatch(sparse);
      ASSERT_EQ(sparse_scores.size(), rows);
      for (size_t r = 0; r < rows; ++r) {
        EXPECT_EQ(sparse_scores[r], dense_scores[r]) << "row " << r;
        EXPECT_EQ(c.model.Decision(sparse.Row(r)),
                  c.model.Decision(c.batch.Row(r)))
            << "row " << r;
      }
    }
  }
}

TEST(SvmModelTest, SparseDecisionsOfEmptyModelAreBias) {
  const SvmModel empty;
  const la::SparseRows batch =
      la::SparseRows::FromDense(la::Matrix(3, 4, 1.0));
  EXPECT_EQ(empty.DecisionBatch(batch), std::vector<double>(3, 0.0));
  EXPECT_EQ(empty.Decision(batch.Row(0)), 0.0);
  EXPECT_TRUE(ToyModel().DecisionBatch(la::SparseRows(2)).empty());
}

TEST(SvmModelTest, SaveLoadRoundTrip) {
  const SvmModel m = ToyModel();
  std::stringstream ss;
  m.Save(ss);
  auto loaded = SvmModel::Load(ss);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->num_support_vectors(), 2u);
  EXPECT_EQ(loaded->kernel().type, KernelType::kRbf);
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const la::Vec x{rng.Uniform(-3, 3), rng.Uniform(-3, 3)};
    EXPECT_NEAR(loaded->Decision(x), m.Decision(x), 1e-12);
  }
}

TEST(SvmModelTest, TrainedModelRoundTrip) {
  Rng rng(7);
  la::Matrix data(16, 2);
  std::vector<double> y(16);
  for (size_t i = 0; i < 16; ++i) {
    y[i] = (i % 2 == 0) ? 1.0 : -1.0;
    data.At(i, 0) = rng.Gaussian() + y[i];
    data.At(i, 1) = rng.Gaussian();
  }
  SvmTrainer trainer;
  auto out = trainer.Train(data, y);
  ASSERT_TRUE(out.ok());

  std::stringstream ss;
  out->model.Save(ss);
  auto loaded = SvmModel::Load(ss);
  ASSERT_TRUE(loaded.ok());
  for (size_t i = 0; i < 16; ++i) {
    EXPECT_NEAR(loaded->Decision(data.Row(i)),
                out->model.Decision(data.Row(i)), 1e-9);
  }
}

TEST(SvmModelTest, LoadRejectsBadHeader) {
  std::stringstream ss("not_a_model v1\n");
  EXPECT_FALSE(SvmModel::Load(ss).ok());
}

TEST(SvmModelTest, LoadRejectsUnknownKernel) {
  std::stringstream ss("svm_model v1\n9 1.0 0.0 3\n0 0\n0.0\n");
  auto r = SvmModel::Load(ss);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(SvmModelTest, LoadRejectsTruncated) {
  std::stringstream ss("svm_model v1\n1 0.5 0.0 0\n2 2\n0.0\n0.5 1.0 2.0\n");
  EXPECT_FALSE(SvmModel::Load(ss).ok());  // second SV row missing
}

}  // namespace
}  // namespace cbir::svm

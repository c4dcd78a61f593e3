#include "svm/kernel.h"

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "kernel_case.h"
#include "util/rng.h"

namespace cbir::svm {
namespace {

using testutil::KernelCase;

TEST(KernelTest, LinearIsDotProduct) {
  const KernelParams k = KernelParams::Linear();
  EXPECT_DOUBLE_EQ(EvalKernel(k, {1, 2, 3}, {4, 5, 6}), 32.0);
}

TEST(KernelTest, RbfAtZeroDistanceIsOne) {
  const KernelParams k = KernelParams::Rbf(0.7);
  EXPECT_DOUBLE_EQ(EvalKernel(k, {1, 2}, {1, 2}), 1.0);
}

TEST(KernelTest, RbfDecaysWithDistance) {
  const KernelParams k = KernelParams::Rbf(1.0);
  const double near = EvalKernel(k, {0, 0}, {0.1, 0});
  const double far = EvalKernel(k, {0, 0}, {3, 0});
  EXPECT_GT(near, far);
  EXPECT_NEAR(far, std::exp(-9.0), 1e-12);
}

TEST(KernelTest, RbfGammaControlsWidth) {
  const double narrow = EvalKernel(KernelParams::Rbf(10.0), {0}, {1});
  const double wide = EvalKernel(KernelParams::Rbf(0.1), {0}, {1});
  EXPECT_LT(narrow, wide);
}

TEST(KernelTest, PolynomialMatchesClosedForm) {
  const KernelParams k = KernelParams::Polynomial(2.0, 1.0, 3);
  // (2*<a,b> + 1)^3 with <a,b> = 2 -> 125.
  EXPECT_DOUBLE_EQ(EvalKernel(k, {1, 1}, {1, 1}), 125.0);
}

TEST(KernelTest, PolynomialDegreeZeroIsOne) {
  const KernelParams k = KernelParams::Polynomial(2.0, 5.0, 0);
  EXPECT_DOUBLE_EQ(EvalKernel(k, {3}, {4}), 1.0);
}

TEST(KernelTest, EvalKernelRowMatchesEvalKernel) {
  la::Matrix rows(3, 2);
  rows.SetRow(0, {1, 2});
  rows.SetRow(1, {-1, 0.5});
  rows.SetRow(2, {0, 0});
  const la::Vec b{0.3, -0.7};
  for (const KernelParams& k :
       {KernelParams::Linear(), KernelParams::Rbf(0.5),
        KernelParams::Polynomial(1.0, 1.0, 2)}) {
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_NEAR(EvalKernelRow(k, rows, i, b),
                  EvalKernel(k, rows.Row(i), b), 1e-12);
    }
  }
}

// The log modality is scored from sparse rows; every kernel must give the
// dense value to the bit, whatever the zero pattern or the doubles.
TEST(KernelTest, SparseEvalKernelIsBitIdenticalToDense) {
  Rng rng(19);
  const KernelParams kernels[] = {KernelParams::Linear(),
                                  KernelParams::Rbf(0.37),
                                  KernelParams::Polynomial(0.5, 1.0, 3)};
  for (size_t dims : {1, 2, 3, 4, 5, 6, 7, 8, 9, 150}) {
    for (int trial = 0; trial < 60; ++trial) {
      la::Matrix dense(2, dims, 0.0);
      const double density = trial % 3 == 0 ? 0.05 : trial % 3 == 1 ? 0.4 : 1;
      for (size_t r = 0; r < 2; ++r) {
        for (size_t c = 0; c < dims; ++c) {
          if (rng.Uniform() >= density) continue;
          // Odd trials use the log's +1 / -0.25 weights, even ones
          // arbitrary doubles.
          dense.At(r, c) = trial % 2 == 1
                               ? (rng.Uniform() < 0.6 ? 1.0 : -0.25)
                               : rng.Gaussian() * 3.0;
        }
      }
      const la::SparseRows sparse = la::SparseRows::FromDense(dense);
      for (const KernelParams& k : kernels) {
        SCOPED_TRACE(k.ToString() + " dims " + std::to_string(dims));
        EXPECT_EQ(EvalKernel(k, sparse.Row(0), sparse.Row(1), dims),
                  EvalKernel(k, dense.Row(0), dense.Row(1)));
        EXPECT_EQ(EvalKernel(k, sparse.Row(1), sparse.Row(0), dims),
                  EvalKernelRow(k, dense, 0, dense.Row(1)));
        double batch = 0.0;
        EvalKernelRowBatch(k, dense, dense.RowPtr(1), &batch, 0, 1);
        EXPECT_EQ(EvalKernel(k, sparse.Row(0), sparse.Row(1), dims), batch);
      }
    }
  }
}

TEST(KernelTest, SymmetryProperty) {
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    la::Vec a(5), b(5);
    for (double& v : a) v = rng.Gaussian();
    for (double& v : b) v = rng.Gaussian();
    for (const KernelParams& k :
         {KernelParams::Linear(), KernelParams::Rbf(0.8),
          KernelParams::Polynomial(0.5, 1.0, 2)}) {
      EXPECT_NEAR(EvalKernel(k, a, b), EvalKernel(k, b, a), 1e-12);
    }
  }
}

// Mercer property: random Gram matrices must be positive semidefinite.
// Checked via z'Kz >= 0 for random z (sufficient statistical evidence).
class KernelPsdTest : public ::testing::TestWithParam<KernelCase> {};

TEST_P(KernelPsdTest, GramMatrixIsPsd) {
  Rng rng(11);
  const size_t n = 12, dims = 4;
  std::vector<la::Vec> xs(n, la::Vec(dims));
  for (auto& x : xs) {
    for (double& v : x) v = rng.Uniform(-2.0, 2.0);
  }
  la::Matrix gram(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      gram.At(i, j) = EvalKernel(GetParam().kernel, xs[i], xs[j]);
    }
  }
  for (int trial = 0; trial < 50; ++trial) {
    la::Vec z(n);
    for (double& v : z) v = rng.Gaussian();
    const la::Vec gz = gram.Multiply(z);
    EXPECT_GE(la::Dot(z, gz), -1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, KernelPsdTest,
    ::testing::Values(KernelCase{KernelParams::Linear()},
                      KernelCase{KernelParams::Rbf(0.1)},
                      KernelCase{KernelParams::Rbf(1.0)},
                      KernelCase{KernelParams::Rbf(10.0)},
                      KernelCase{KernelParams::Polynomial(1.0, 1.0, 2)},
                      KernelCase{KernelParams::Polynomial(0.5, 1.0, 4)}));

TEST(DefaultGammaTest, MatchesLibsvmFormula) {
  la::Matrix data(2, 2);
  data.SetRow(0, {0.0, 0.0});
  data.SetRow(1, {2.0, 2.0});
  // All entries {0,0,2,2}: mean 1, var 1 -> gamma = 1/(2*1) = 0.5.
  EXPECT_NEAR(DefaultGamma(data), 0.5, 1e-12);
}

TEST(DefaultGammaTest, ConstantDataFallsBackToOneOverDims) {
  la::Matrix data(3, 4, 7.0);
  EXPECT_NEAR(DefaultGamma(data), 0.25, 1e-12);
}

TEST(DefaultGammaTest, NearZeroVarianceFallsBackToOneOverDims) {
  // Variance far below the 1e-12 guard but not exactly zero: the fallback
  // branch must engage instead of producing an astronomically large gamma.
  la::Matrix data(4, 5, 3.0);
  data.At(0, 0) = 3.0 + 1e-9;
  EXPECT_NEAR(DefaultGamma(data), 0.2, 1e-12);
}

TEST(DefaultGammaTest, EmptyMatrixReturnsOne) {
  EXPECT_DOUBLE_EQ(DefaultGamma(la::Matrix()), 1.0);
  EXPECT_DOUBLE_EQ(DefaultGamma(la::Matrix(0, 7)), 1.0);
}

TEST(DefaultGammaTest, LargeMagnitudeConstantDataStaysFinite) {
  // Catastrophic cancellation can produce a tiny negative variance here;
  // the guard must clamp it instead of returning a negative or inf gamma.
  la::Matrix data(3, 2, 1e154);
  const double gamma = DefaultGamma(data);
  EXPECT_TRUE(std::isfinite(gamma));
  EXPECT_GT(gamma, 0.0);
}

TEST(KernelTest, ToStringMentionsTypeAndParams) {
  EXPECT_EQ(KernelParams::Linear().ToString(), "linear");
  EXPECT_NE(KernelParams::Rbf(0.5).ToString().find("rbf"), std::string::npos);
  EXPECT_NE(KernelParams::Polynomial(1, 0, 3).ToString().find("degree=3"),
            std::string::npos);
}

}  // namespace
}  // namespace cbir::svm

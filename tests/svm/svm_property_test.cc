// Property-style sweeps over the SMO solver: for every (C, gamma, n)
// configuration, the solution must satisfy the dual constraints and the KKT
// optimality conditions within the solver tolerance.
#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "kernel_case.h"
#include "svm/smo_solver.h"
#include "train_svm.h"
#include "util/rng.h"

namespace cbir::svm {
namespace {

using testutil::KernelCase;

struct ProblemConfig {
  double c;
  double gamma;
  size_t n;
  double class_gap;  // how separated the two Gaussians are
};

std::string ConfigName(const ::testing::TestParamInfo<ProblemConfig>& info) {
  const ProblemConfig& p = info.param;
  std::string name = "C" + std::to_string(static_cast<int>(p.c * 100)) +
                     "_g" + std::to_string(static_cast<int>(p.gamma * 100)) +
                     "_n" + std::to_string(p.n) + "_gap" +
                     std::to_string(static_cast<int>(p.class_gap * 10));
  return name;
}

class SmoPropertyTest : public ::testing::TestWithParam<ProblemConfig> {
 protected:
  void BuildProblem(uint64_t seed) {
    const ProblemConfig& p = GetParam();
    Rng rng(seed);
    data_ = la::Matrix(p.n, 3);
    y_.resize(p.n);
    c_.assign(p.n, p.c);
    for (size_t i = 0; i < p.n; ++i) {
      y_[i] = (i % 2 == 0) ? 1.0 : -1.0;
      for (size_t d = 0; d < 3; ++d) {
        data_.At(i, d) = rng.Gaussian() + 0.5 * p.class_gap * y_[i];
      }
    }
    kernel_ = KernelParams::Rbf(p.gamma);
  }

  double DecisionAt(const SmoSolution& sol, size_t i) const {
    double f = sol.bias;
    for (size_t j = 0; j < data_.rows(); ++j) {
      f += sol.alpha[j] * y_[j] *
           EvalKernel(kernel_, data_.Row(j), data_.Row(i));
    }
    return f;
  }

  la::Matrix data_;
  std::vector<double> y_;
  std::vector<double> c_;
  KernelParams kernel_;
};

TEST_P(SmoPropertyTest, DualFeasibility) {
  BuildProblem(101);
  const Gram gram = Gram::Of(data_, kernel_).value();
  SmoSolver solver(gram, y_, c_);
  auto sol = solver.Solve();
  ASSERT_TRUE(sol.ok());
  double eq = 0.0;
  for (size_t i = 0; i < y_.size(); ++i) {
    EXPECT_GE(sol->alpha[i], -1e-12);
    EXPECT_LE(sol->alpha[i], c_[i] + 1e-12);
    eq += sol->alpha[i] * y_[i];
  }
  EXPECT_NEAR(eq, 0.0, 1e-9);
}

TEST_P(SmoPropertyTest, KktWithinTolerance) {
  BuildProblem(103);
  const Gram gram = Gram::Of(data_, kernel_).value();
  SmoSolver solver(gram, y_, c_);
  auto sol = solver.Solve();
  ASSERT_TRUE(sol.ok());
  ASSERT_TRUE(sol->converged);
  const double tol = 0.02;
  for (size_t i = 0; i < y_.size(); ++i) {
    const double margin = y_[i] * DecisionAt(*sol, i);
    if (sol->alpha[i] <= 1e-9) {
      EXPECT_GE(margin, 1.0 - tol) << "i=" << i;
    } else if (sol->alpha[i] >= c_[i] - 1e-9) {
      EXPECT_LE(margin, 1.0 + tol) << "i=" << i;
    } else {
      EXPECT_NEAR(margin, 1.0, tol) << "i=" << i;
    }
  }
}

TEST_P(SmoPropertyTest, ObjectiveIsNonPositive) {
  // alpha = 0 is feasible with objective 0, so the optimum is <= 0.
  BuildProblem(107);
  const Gram gram = Gram::Of(data_, kernel_).value();
  SmoSolver solver(gram, y_, c_);
  auto sol = solver.Solve();
  ASSERT_TRUE(sol.ok());
  EXPECT_LE(sol->objective, 1e-12);
}

TEST_P(SmoPropertyTest, DeterministicSolve) {
  BuildProblem(109);
  const Gram s1_gram = Gram::Of(data_, kernel_).value();
  SmoSolver s1(s1_gram, y_, c_);
  const Gram s2_gram = Gram::Of(data_, kernel_).value();
  SmoSolver s2(s2_gram, y_, c_);
  auto a = s1.Solve();
  auto b = s2.Solve();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->alpha, b->alpha);
  EXPECT_EQ(a->bias, b->bias);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SmoPropertyTest,
    ::testing::Values(
        ProblemConfig{0.1, 0.5, 16, 2.0},   //
        ProblemConfig{1.0, 0.5, 16, 2.0},   //
        ProblemConfig{10.0, 0.5, 16, 2.0},  //
        ProblemConfig{100.0, 0.5, 16, 2.0}, //
        ProblemConfig{1.0, 0.05, 32, 1.0},  //
        ProblemConfig{1.0, 2.0, 32, 1.0},   //
        ProblemConfig{10.0, 1.0, 48, 0.5},  // heavy overlap
        ProblemConfig{10.0, 1.0, 8, 4.0},   // tiny, clean
        ProblemConfig{0.5, 5.0, 40, 0.0},   // pure noise
        ProblemConfig{20.0, 0.3, 200, 0.5}  // heavy overlap, large n
        ),
    ConfigName);

// Property: the model BuildModel makes from a solve agrees with the
// solve's own training decisions, across kernels.
class TrainerKernelTest : public ::testing::TestWithParam<KernelCase> {};

TEST_P(TrainerKernelTest, ModelMatchesRawSolution) {
  Rng rng(211);
  const size_t n = 20;
  la::Matrix data(n, 2);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    y[i] = (i % 2 == 0) ? 1.0 : -1.0;
    data.At(i, 0) = rng.Gaussian() + y[i];
    data.At(i, 1) = rng.Gaussian();
  }
  auto out = testutil::TrainSvm(data, y, GetParam().kernel,
                                std::vector<double>(n, 5.0));
  ASSERT_TRUE(out.ok());
  // Training decisions must be reproducible through the support-vector form.
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(out->model.Decision(data.Row(i)),
                out->solution.train_decisions[i], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, TrainerKernelTest,
    ::testing::Values(KernelCase{KernelParams::Linear()},
                      KernelCase{KernelParams::Rbf(0.25)},
                      KernelCase{KernelParams::Rbf(4.0)},
                      KernelCase{KernelParams::Polynomial(0.5, 1.0, 2)},
                      KernelCase{KernelParams::Polynomial(1.0, 0.0, 3)}));

}  // namespace
}  // namespace cbir::svm

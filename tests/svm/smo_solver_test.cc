#include "svm/smo_solver.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace cbir::svm {
namespace {

la::Matrix MatrixFromRows(const std::vector<la::Vec>& rows) {
  la::Matrix m(rows.size(), rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) m.SetRow(r, rows[r]);
  return m;
}

TEST(SmoSolverTest, TwoPointAnalyticSolution) {
  // +1 at x=0, -1 at x=2, linear kernel, C large.
  // Max-margin solution: f(x) = 1 - x, alpha_1 = alpha_2 = 0.5,
  // dual objective = -0.5.
  const la::Matrix data = MatrixFromRows({{0.0}, {2.0}});
  const Gram gram = Gram::Of(data, KernelParams::Linear()).value();
  SmoSolver solver(gram, {1.0, -1.0}, {10.0, 10.0});
  auto sol = solver.Solve();
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_TRUE(sol->converged);
  EXPECT_NEAR(sol->alpha[0], 0.5, 1e-3);
  EXPECT_NEAR(sol->alpha[1], 0.5, 1e-3);
  EXPECT_NEAR(sol->bias, 1.0, 1e-3);
  EXPECT_NEAR(sol->objective, -0.5, 1e-3);
}

TEST(SmoSolverTest, EqualityConstraintHolds) {
  Rng rng(17);
  const size_t n = 30;
  la::Matrix data(n, 3);
  std::vector<double> y(n), c(n, 5.0);
  for (size_t i = 0; i < n; ++i) {
    y[i] = (i % 2 == 0) ? 1.0 : -1.0;
    for (size_t d = 0; d < 3; ++d) {
      data.At(i, d) = rng.Gaussian() + (y[i] > 0 ? 1.0 : -1.0);
    }
  }
  const Gram gram = Gram::Of(data, KernelParams::Rbf(0.5)).value();
  SmoSolver solver(gram, y, c);
  auto sol = solver.Solve();
  ASSERT_TRUE(sol.ok());
  double constraint = 0.0;
  for (size_t i = 0; i < n; ++i) constraint += sol->alpha[i] * y[i];
  EXPECT_NEAR(constraint, 0.0, 1e-9);
}

TEST(SmoSolverTest, BoxConstraintsRespected) {
  Rng rng(19);
  const size_t n = 24;
  la::Matrix data(n, 2);
  std::vector<double> y(n), c(n);
  for (size_t i = 0; i < n; ++i) {
    y[i] = (i % 2 == 0) ? 1.0 : -1.0;
    c[i] = 0.1 + 0.4 * static_cast<double>(i % 5);  // heterogeneous bounds
    // Overlapping classes so bounds bind.
    data.At(i, 0) = rng.Gaussian() + 0.2 * y[i];
    data.At(i, 1) = rng.Gaussian();
  }
  const Gram gram = Gram::Of(data, KernelParams::Rbf(1.0)).value();
  SmoSolver solver(gram, y, c);
  auto sol = solver.Solve();
  ASSERT_TRUE(sol.ok());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_GE(sol->alpha[i], -1e-12);
    EXPECT_LE(sol->alpha[i], c[i] + 1e-12);
  }
}

// Verifies the KKT optimality conditions against the returned model:
//   alpha = 0      =>  y f(x) >= 1 - tol
//   0 < alpha < C  =>  |y f(x) - 1| <= tol
//   alpha = C      =>  y f(x) <= 1 + tol
void CheckKkt(const la::Matrix& data, const std::vector<double>& y,
              const std::vector<double>& c, const KernelParams& kernel,
              const SmoSolution& sol, double tol) {
  const size_t n = data.rows();
  for (size_t i = 0; i < n; ++i) {
    double f = sol.bias;
    for (size_t j = 0; j < n; ++j) {
      f += sol.alpha[j] * y[j] * EvalKernel(kernel, data.Row(j), data.Row(i));
    }
    const double margin = y[i] * f;
    if (sol.alpha[i] <= 1e-9) {
      EXPECT_GE(margin, 1.0 - tol) << "i=" << i;
    } else if (sol.alpha[i] >= c[i] - 1e-9) {
      EXPECT_LE(margin, 1.0 + tol) << "i=" << i;
    } else {
      EXPECT_NEAR(margin, 1.0, tol) << "i=" << i;
    }
  }
}

TEST(SmoSolverTest, KktConditionsOnSeparableData) {
  Rng rng(23);
  const size_t n = 40;
  la::Matrix data(n, 2);
  std::vector<double> y(n), c(n, 10.0);
  for (size_t i = 0; i < n; ++i) {
    y[i] = (i < n / 2) ? 1.0 : -1.0;
    data.At(i, 0) = rng.Gaussian() + 3.0 * y[i];
    data.At(i, 1) = rng.Gaussian();
  }
  const KernelParams kernel = KernelParams::Linear();
  const Gram gram = Gram::Of(data, kernel).value();
  SmoSolver solver(gram, y, c);
  auto sol = solver.Solve();
  ASSERT_TRUE(sol.ok());
  EXPECT_TRUE(sol->converged);
  CheckKkt(data, y, c, kernel, *sol, 0.02);
}

TEST(SmoSolverTest, KktConditionsOnOverlappingDataRbf) {
  Rng rng(29);
  const size_t n = 50;
  la::Matrix data(n, 3);
  std::vector<double> y(n), c(n, 2.0);
  for (size_t i = 0; i < n; ++i) {
    y[i] = (i % 2 == 0) ? 1.0 : -1.0;
    for (size_t d = 0; d < 3; ++d) {
      data.At(i, d) = rng.Gaussian() + 0.5 * y[i];
    }
  }
  const KernelParams kernel = KernelParams::Rbf(0.7);
  const Gram gram = Gram::Of(data, kernel).value();
  SmoSolver solver(gram, y, c);
  auto sol = solver.Solve();
  ASSERT_TRUE(sol.ok());
  CheckKkt(data, y, c, kernel, *sol, 0.02);
}

TEST(SmoSolverTest, XorSolvableWithRbf) {
  const la::Matrix data =
      MatrixFromRows({{0, 0}, {1, 1}, {0, 1}, {1, 0}});
  const std::vector<double> y{1.0, 1.0, -1.0, -1.0};
  const KernelParams kernel = KernelParams::Rbf(2.0);
  const Gram gram = Gram::Of(data, kernel).value();
  SmoSolver solver(gram, y, {50, 50, 50, 50});
  auto sol = solver.Solve();
  ASSERT_TRUE(sol.ok());
  for (size_t i = 0; i < 4; ++i) {
    double f = sol->bias;
    for (size_t j = 0; j < 4; ++j) {
      f += sol->alpha[j] * y[j] *
           EvalKernel(kernel, data.Row(j), data.Row(i));
    }
    EXPECT_GT(y[i] * f, 0.0) << "XOR point " << i << " misclassified";
  }
}

TEST(SmoSolverTest, SingleClassDataConverges) {
  const la::Matrix data = MatrixFromRows({{0.0}, {1.0}, {2.0}});
  const Gram gram = Gram::Of(data, KernelParams::Linear()).value();
  SmoSolver solver(gram, {1.0, 1.0, 1.0}, {1, 1, 1});
  auto sol = solver.Solve();
  ASSERT_TRUE(sol.ok());
  // With all labels equal, the equality constraint forces alpha = 0.
  for (double a : sol->alpha) EXPECT_NEAR(a, 0.0, 1e-12);
  EXPECT_TRUE(sol->converged);
}

TEST(SmoSolverTest, DuplicateContradictoryPointsSaturate) {
  // The same point labeled both ways: both alphas hit the box bound.
  const la::Matrix data = MatrixFromRows({{1.0}, {1.0}});
  const Gram gram = Gram::Of(data, KernelParams::Linear()).value();
  SmoSolver solver(gram, {1.0, -1.0}, {0.7, 0.7});
  auto sol = solver.Solve();
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->alpha[0], 0.7, 1e-6);
  EXPECT_NEAR(sol->alpha[1], 0.7, 1e-6);
}

TEST(SmoSolverTest, PerSampleBoundLimitsInfluence) {
  // Same geometry, but one sample's C is tiny: its alpha must stay small.
  const la::Matrix data = MatrixFromRows({{0.0}, {0.1}, {2.0}});
  const std::vector<double> y{1.0, 1.0, -1.0};
  const Gram gram = Gram::Of(data, KernelParams::Linear()).value();
  SmoSolver solver(gram, y, {10.0, 0.01, 10.0});
  auto sol = solver.Solve();
  ASSERT_TRUE(sol.ok());
  EXPECT_LE(sol->alpha[1], 0.01 + 1e-12);
}

TEST(SmoSolverTest, RejectsBadInputs) {
  const la::Matrix data = MatrixFromRows({{0.0}, {1.0}});
  {
    const Gram s_gram = Gram::Of(data, KernelParams::Linear()).value();
    SmoSolver s(s_gram, {1.0, 0.5}, {1, 1});
    EXPECT_FALSE(s.Solve().ok());  // label not +-1
  }
  {
    const Gram s_gram = Gram::Of(data, KernelParams::Linear()).value();
    SmoSolver s(s_gram, {1.0, -1.0}, {1, 0});
    EXPECT_FALSE(s.Solve().ok());  // non-positive C
  }
}

TEST(SmoSolverTest, ObjectiveMatchesDirectComputation) {
  Rng rng(31);
  const size_t n = 20;
  la::Matrix data(n, 2);
  std::vector<double> y(n), c(n, 1.5);
  for (size_t i = 0; i < n; ++i) {
    y[i] = (i % 2 == 0) ? 1.0 : -1.0;
    data.At(i, 0) = rng.Gaussian() + y[i];
    data.At(i, 1) = rng.Gaussian();
  }
  const KernelParams kernel = KernelParams::Rbf(0.4);
  const Gram gram = Gram::Of(data, kernel).value();
  SmoSolver solver(gram, y, c);
  auto sol = solver.Solve();
  ASSERT_TRUE(sol.ok());
  // 0.5 a'Qa - e'a computed directly.
  double direct = 0.0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      direct += 0.5 * sol->alpha[i] * sol->alpha[j] * y[i] * y[j] *
                EvalKernel(kernel, data.Row(i), data.Row(j));
    }
    direct -= sol->alpha[i];
  }
  EXPECT_NEAR(sol->objective, direct, 1e-9);
}

// Shared fixture data: overlapping two-class Gaussian problem.
struct DenseProblem {
  la::Matrix data;
  std::vector<double> y;
  std::vector<double> c;
};

DenseProblem MakeDenseProblem(size_t n, double gap, double c_value,
                              uint64_t seed) {
  Rng rng(seed);
  DenseProblem p;
  p.data = la::Matrix(n, 4);
  p.y.resize(n);
  p.c.assign(n, c_value);
  for (size_t i = 0; i < n; ++i) {
    p.y[i] = (i % 2 == 0) ? 1.0 : -1.0;
    for (size_t d = 0; d < 4; ++d) {
      p.data.At(i, d) = rng.Gaussian() + (d == 0 ? gap * p.y[i] : 0.0);
    }
  }
  return p;
}

TEST(SmoSolverTest, WarmStartFromOwnSolutionConvergesInstantly) {
  const DenseProblem p = MakeDenseProblem(40, 0.6, 10.0, 47);
  const KernelParams kernel = KernelParams::Rbf(0.5);

  const Gram cold_gram = Gram::Of(p.data, kernel).value();
  SmoSolver cold(cold_gram, p.y, p.c);
  auto base = cold.Solve();
  ASSERT_TRUE(base.ok());

  const Gram warm_gram = Gram::Of(p.data, kernel).value();
  SmoSolver warm(warm_gram, p.y, p.c, base->alpha);
  auto sol = warm.Solve();
  ASSERT_TRUE(sol.ok());
  EXPECT_TRUE(sol->converged);
  EXPECT_EQ(sol->iterations, 0);
  EXPECT_NEAR(sol->objective, base->objective, 1e-9);
  for (size_t t = 0; t < p.data.rows(); ++t) {
    EXPECT_NEAR(sol->alpha[t], base->alpha[t], 1e-9);
  }
}

TEST(SmoSolverTest, WarmStartMatchesColdStartAfterGrowth) {
  // Feedback-round simulation: solve on the first 30 samples, then warm-start
  // the 40-sample problem from the padded alphas. Objective and decisions
  // must match the cold solve of the full problem.
  const DenseProblem full = MakeDenseProblem(40, 0.5, 10.0, 53);
  const KernelParams kernel = KernelParams::Rbf(0.5);

  DenseProblem first;
  first.data = la::Matrix(30, 4);
  for (size_t i = 0; i < 30; ++i) first.data.SetRow(i, full.data.Row(i));
  first.y.assign(full.y.begin(), full.y.begin() + 30);
  first.c.assign(full.c.begin(), full.c.begin() + 30);
  const Gram round0_gram = Gram::Of(first.data, kernel).value();
  SmoSolver round0(round0_gram, first.y, first.c);
  auto sol0 = round0.Solve();
  ASSERT_TRUE(sol0.ok());

  std::vector<double> warm_alpha = sol0->alpha;
  warm_alpha.resize(40, 0.0);  // new samples enter at zero
  const Gram warm_gram = Gram::Of(full.data, kernel).value();
  SmoSolver warm(warm_gram, full.y, full.c, std::move(warm_alpha));
  auto warm_sol = warm.Solve();
  ASSERT_TRUE(warm_sol.ok());

  const Gram cold_gram = Gram::Of(full.data, kernel).value();
  SmoSolver cold(cold_gram, full.y, full.c);
  auto cold_sol = cold.Solve();
  ASSERT_TRUE(cold_sol.ok());

  EXPECT_NEAR(warm_sol->objective, cold_sol->objective, 1e-6);
  for (size_t t = 0; t < 40; ++t) {
    EXPECT_NEAR(warm_sol->train_decisions[t], cold_sol->train_decisions[t],
                5e-3)
        << "t=" << t;
  }
  // The warm solve must do less work than the cold one.
  EXPECT_LT(warm_sol->iterations, cold_sol->iterations);
}

TEST(SmoSolverTest, WarmStartRepairsInfeasibleInitialAlpha) {
  // Deliberately infeasible warm start: everything at the box bound violates
  // both the equality constraint and (after label flips) class consistency.
  const DenseProblem p = MakeDenseProblem(30, 0.5, 5.0, 59);
  const KernelParams kernel = KernelParams::Rbf(0.5);

  const Gram warm_gram = Gram::Of(p.data, kernel).value();
  // Clamped to C, then projected.
  SmoSolver warm(warm_gram, p.y, p.c, std::vector<double>(30, 1e9));
  auto sol = warm.Solve();
  ASSERT_TRUE(sol.ok());
  ASSERT_TRUE(sol->converged);
  double constraint = 0.0;
  for (size_t t = 0; t < 30; ++t) {
    constraint += sol->alpha[t] * p.y[t];
    EXPECT_GE(sol->alpha[t], -1e-12);
    EXPECT_LE(sol->alpha[t], p.c[t] + 1e-12);
  }
  EXPECT_NEAR(constraint, 0.0, 1e-9);

  const Gram cold_gram = Gram::Of(p.data, kernel).value();
  SmoSolver cold(cold_gram, p.y, p.c);
  auto base = cold.Solve();
  ASSERT_TRUE(base.ok());
  EXPECT_NEAR(sol->objective, base->objective, 1e-6);
}

TEST(SmoSolverTest, WarmStartSizeMismatchRejected) {
  const la::Matrix data = MatrixFromRows({{0.0}, {2.0}});
  const Gram gram = Gram::Of(data, KernelParams::Linear()).value();
  SmoSolver solver(gram, {1.0, -1.0}, {10.0, 10.0}, {0.5});  // wrong size
  EXPECT_FALSE(solver.Solve().ok());
}

TEST(SmoSolverTest, TrainDecisionsMatchDirectEvaluation) {
  const DenseProblem p = MakeDenseProblem(24, 0.8, 5.0, 61);
  const KernelParams kernel = KernelParams::Rbf(0.6);
  const Gram gram = Gram::Of(p.data, kernel).value();
  SmoSolver solver(gram, p.y, p.c);
  auto sol = solver.Solve();
  ASSERT_TRUE(sol.ok());
  for (size_t i = 0; i < 24; ++i) {
    double f = sol->bias;
    for (size_t j = 0; j < 24; ++j) {
      f += sol->alpha[j] * p.y[j] *
           EvalKernel(kernel, p.data.Row(j), p.data.Row(i));
    }
    EXPECT_NEAR(sol->train_decisions[i], f, 1e-9) << i;
  }
}

TEST(SmoSolverTest, LargerCReducesTrainingError) {
  // Overlapping data: larger C must not increase the hinge loss.
  Rng rng(37);
  const size_t n = 40;
  la::Matrix data(n, 2);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    y[i] = (i % 2 == 0) ? 1.0 : -1.0;
    data.At(i, 0) = rng.Gaussian() + 0.6 * y[i];
    data.At(i, 1) = rng.Gaussian();
  }
  const KernelParams kernel = KernelParams::Rbf(0.8);
  auto hinge_at = [&](double c_value) {
    const Gram gram = Gram::Of(data, kernel).value();
    SmoSolver solver(gram, y, std::vector<double>(n, c_value));
    auto sol = solver.Solve();
    EXPECT_TRUE(sol.ok());
    double hinge = 0.0;
    for (size_t i = 0; i < n; ++i) {
      double f = sol->bias;
      for (size_t j = 0; j < n; ++j) {
        f += sol->alpha[j] * y[j] *
             EvalKernel(kernel, data.Row(j), data.Row(i));
      }
      hinge += std::max(0.0, 1.0 - y[i] * f);
    }
    return hinge;
  };
  EXPECT_LE(hinge_at(10.0), hinge_at(0.1) + 1e-6);
}

// FNV-1a over the bit patterns of `values`: one number that changes when
// any bit of any entry does.
uint64_t HashBits(const std::vector<double>& values) {
  uint64_t h = 1469598103934665603ull;
  for (double v : values) {
    h = (h ^ std::bit_cast<uint64_t>(v)) * 1099511628211ull;
  }
  return h;
}

TEST(SmoSolverTest, PerSampleCWarmStartAtBoundsIsPinnedExactly) {
  // A coupled-SVM step in miniature: 24 labeled rows at C = 10, 16
  // pseudo-labeled rows at rho * C = 0.8, warm-started with every third
  // alpha at its upper bound and the rest at zero. Iterations and the bits
  // of the bias and alphas are pinned: a faster working-set scan or kernel
  // must leave this solve unchanged.
  DenseProblem p = MakeDenseProblem(40, 0.3, 10.0, 71);
  for (size_t t = 24; t < 40; ++t) p.c[t] = 0.8;
  std::vector<double> initial_alpha(40);
  for (size_t t = 0; t < 40; ++t) {
    initial_alpha[t] = t % 3 == 0 ? p.c[t] : 0.0;
  }
  const Gram gram = Gram::Of(p.data, KernelParams::Rbf(0.5)).value();
  SmoSolver solver(gram, p.y, p.c, std::move(initial_alpha));
  auto sol = solver.Solve();
  ASSERT_TRUE(sol.ok()) << sol.status();
  ASSERT_TRUE(sol->converged);
  EXPECT_EQ(sol->iterations, 79);
  // bias = -0.032898562124214784
  EXPECT_EQ(std::bit_cast<uint64_t>(sol->bias), 0xbfa0d81490d15edaull)
      << sol->bias;
  EXPECT_EQ(HashBits(sol->alpha), 0x05dba0750802bdc6ull);
}

}  // namespace
}  // namespace cbir::svm

// Tests for svm::Gram, the kernel matrix every SMO solve reads: one
// training set's, computed once and shared by every solve on that set.
#include "svm/gram.h"

#include <gtest/gtest.h>

#include <vector>

#include "obs/metrics.h"
#include "svm/smo_solver.h"
#include "util/rng.h"

namespace cbir::svm {
namespace {

la::Matrix RandomData(size_t n, size_t dims, uint64_t seed) {
  Rng rng(seed);
  la::Matrix data(n, dims);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < dims; ++c) data.At(r, c) = rng.Gaussian();
  }
  return data;
}

Gram Fresh(const la::Matrix& data, const KernelParams& kernel) {
  Result<Gram> gram = Gram::Of(data, kernel);
  EXPECT_TRUE(gram.ok()) << gram.status();
  return std::move(gram).value();
}

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Default().GetCounter(name)->value();
}

/// Two-class Gaussian problem with some overlap so the solver iterates.
void MakeProblem(size_t n, uint64_t seed, la::Matrix* data,
                 std::vector<double>* labels) {
  Rng rng(seed);
  *data = la::Matrix(n, 4);
  labels->resize(n);
  for (size_t i = 0; i < n; ++i) {
    const double y = (i % 2 == 0) ? 1.0 : -1.0;
    (*labels)[i] = y;
    for (size_t d = 0; d < 4; ++d) {
      data->At(i, d) = rng.Gaussian() + 0.5 * y;
    }
  }
}

Result<SmoSolution> Solve(const Gram& gram, const std::vector<double>& y,
                          double c) {
  return SmoSolver(gram, y, std::vector<double>(y.size(), c)).Solve();
}

TEST(KernelCacheTest, RowsMatchDirectEvaluation) {
  // Rows 11 wide, so the 4-lane sums of DotN/SquaredDistanceN have a tail.
  const la::Matrix data = RandomData(10, 11, 1);
  for (const KernelParams& k :
       {KernelParams::Linear(), KernelParams::Rbf(0.5),
        KernelParams::Polynomial(0.3, 1.0, 3)}) {
    const Gram gram = Fresh(data, k);
    ASSERT_EQ(gram.n(), 10u);
    std::vector<double> row(10);
    for (size_t i = 0; i < 10; ++i) {
      // The whole row, as EvalKernelRowBatch evaluates it against row i.
      EvalKernelRowBatch(k, data, data.RowPtr(i), row.data(), 0, 10);
      for (size_t j = 0; j < 10; ++j) {
        EXPECT_EQ(gram.RowPtr(i)[j], row[j])
            << k.ToString() << " i=" << i << " j=" << j;
        EXPECT_EQ(gram.RowPtr(i)[j], EvalKernel(k, data.Row(i), data.Row(j)));
      }
    }
  }
}

TEST(KernelCacheTest, DiagPrecomputed) {
  const la::Matrix data = RandomData(6, 5, 2);
  for (const KernelParams& k :
       {KernelParams::Linear(), KernelParams::Rbf(1.0),
        KernelParams::Polynomial(0.5, 0.0, 2)}) {
    const Gram gram = Fresh(data, k);
    for (size_t i = 0; i < 6; ++i) {
      double self = 0.0;
      EvalKernelRowBatch(k, data, data.RowPtr(i), &self, i, i + 1);
      EXPECT_EQ(gram.Diag(i), self) << k.ToString() << " i=" << i;
    }
  }
  const Gram rbf = Fresh(data, KernelParams::Rbf(1.0));
  const Gram linear = Fresh(data, KernelParams::Linear());
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(rbf.Diag(i), 1.0);  // RBF diagonal is always 1
    EXPECT_EQ(linear.Diag(i), la::Dot(data.Row(i), data.Row(i)));
  }
}

TEST(KernelCacheTest, HitsAndMisses) {
  // Every Gram computes its upper triangle, diagonal included, and the
  // registry counts each entry as a miss; nothing is carried from one Gram
  // to the next, so a second Gram of the same rows computes them again.
  const la::Matrix data = RandomData(4, 2, 3);
  const uint64_t misses = CounterValue("cbir_svm_kernel_cache_misses_total");
  const Gram first = Fresh(data, KernelParams::Linear());
  EXPECT_EQ(CounterValue("cbir_svm_kernel_cache_misses_total") - misses,
            10u);
  const Gram second = Fresh(data, KernelParams::Linear());
  EXPECT_EQ(CounterValue("cbir_svm_kernel_cache_misses_total") - misses,
            20u);
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_EQ(second.RowPtr(i)[j], first.RowPtr(i)[j]);
    }
  }
}

TEST(KernelCacheTest, GetRowsBothValidSimultaneously) {
  // The solver reads the working pair's rows i and j together; both stay
  // valid for the Gram's lifetime, and K is symmetric bit for bit.
  const la::Matrix data = RandomData(8, 7, 6);
  const KernelParams k = KernelParams::Rbf(0.4);
  const Gram gram = Fresh(data, k);
  for (size_t i = 0; i < 8; ++i) {
    for (size_t j = 0; j < 8; ++j) {
      const double* ki = gram.RowPtr(i);
      const double* kj = gram.RowPtr(j);
      EXPECT_EQ(ki[j], kj[i]) << "i=" << i << " j=" << j;
      EXPECT_EQ(ki[j], EvalKernel(k, data.Row(j), data.Row(i)));
    }
  }
}

TEST(KernelCacheTest, GetRowsSameIndexAliases) {
  // Diag(i) is entry i of row i, not a separate copy.
  const la::Matrix data = RandomData(4, 2, 7);
  const Gram gram = Fresh(data, KernelParams::Linear());
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(gram.Diag(i), gram.RowPtr(i)[i]);
    EXPECT_EQ(&gram.RowPtr(i)[i], &gram.RowPtr(0)[i * 4 + i]);
  }
}

TEST(KernelCacheTest, RejectsTrainingSetsAboveTheBound) {
  // One column keeps the refused input small; nothing n^2 is allocated.
  const la::Matrix too_many(kMaxTrainingRows + 1, 1);
  Result<Gram> refused = Gram::Of(too_many, KernelParams::Linear());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
}

TEST(KernelCacheDeathTest, OutOfRangeRow) {
  const la::Matrix data = RandomData(3, 2, 6);
  const Gram gram = Fresh(data, KernelParams::Linear());
  EXPECT_DEATH((void)gram.RowPtr(3), "Check failed");
}

TEST(SmoSharedCacheTest, SecondSolveReusesRowsAndReportsDeltaStats) {
  // Different C bounds, same kernel matrix: solves only read the Gram, so
  // the registry's computed entries are those of the one build, and the
  // second solve matches a cold solve of the same problem.
  la::Matrix data;
  std::vector<double> labels;
  MakeProblem(30, 12, &data, &labels);
  const KernelParams kernel = KernelParams::Rbf(0.8);
  const uint64_t misses = CounterValue("cbir_svm_kernel_cache_misses_total");
  const Gram gram = Fresh(data, kernel);

  ASSERT_TRUE(Solve(gram, labels, 1.0).ok());
  auto b = Solve(gram, labels, 10.0);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(CounterValue("cbir_svm_kernel_cache_misses_total") - misses,
            30u * 31u / 2u);

  auto cold = Solve(Fresh(data, kernel), labels, 10.0);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(b->alpha, cold->alpha);
  EXPECT_EQ(b->bias, cold->bias);
  EXPECT_EQ(b->iterations, cold->iterations);
}

TEST(SmoSharedCacheTest, LabelFlipsDoNotInvalidateSharedRows) {
  // The coupled SVM's label correction flips pseudo-labels between solves;
  // kernel values do not depend on labels, so one Gram serves both.
  la::Matrix data;
  std::vector<double> labels;
  MakeProblem(24, 13, &data, &labels);
  const KernelParams kernel = KernelParams::Rbf(0.6);
  const Gram gram = Fresh(data, kernel);
  ASSERT_TRUE(Solve(gram, labels, 4.0).ok());

  std::vector<double> flipped = labels;
  flipped[3] = -flipped[3];
  flipped[8] = -flipped[8];
  auto b = Solve(gram, flipped, 4.0);
  ASSERT_TRUE(b.ok());
  auto cold = Solve(Fresh(data, kernel), flipped, 4.0);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(b->alpha, cold->alpha);
  EXPECT_EQ(b->bias, cold->bias);
  EXPECT_EQ(b->train_decisions, cold->train_decisions);
}

TEST(SmoSharedCacheTest, RejectsForeignMatrixAndParams) {
  // The solver reads rows by index: a Gram of another training set size is
  // refused, not read out of bounds.
  la::Matrix data;
  std::vector<double> labels;
  MakeProblem(10, 15, &data, &labels);
  const KernelParams kernel = KernelParams::Rbf(0.5);
  const Gram smaller = Fresh(RandomData(9, 4, 1), kernel);
  EXPECT_EQ(Solve(smaller, labels, 1.0).status().code(),
            StatusCode::kInvalidArgument);
  const Gram empty;
  EXPECT_EQ(Solve(empty, labels, 1.0).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace cbir::svm

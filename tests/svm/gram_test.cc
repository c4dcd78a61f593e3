// Tests for svm::Gram, the kernel cache every SMO solve reads: the matrix
// of one training set, computed once per bind.
#include "svm/gram.h"

#include <gtest/gtest.h>

#include <vector>

#include "obs/metrics.h"
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
  // A fresh bind computes the upper triangle, diagonal included; a re-bind
  // of the same images carries all of it. The registry counts carried
  // entries as hits and computed ones as misses.
  const la::Matrix data = RandomData(4, 2, 3);
  const uint64_t hits = CounterValue("cbir_svm_kernel_cache_hits_total");
  const uint64_t misses = CounterValue("cbir_svm_kernel_cache_misses_total");
  Gram gram;
  ASSERT_TRUE(gram.Bind({7, 8, 9, 10}, data, KernelParams::Linear()).ok());
  EXPECT_EQ(gram.computed(), 10u);
  EXPECT_EQ(gram.carried(), 0u);
  ASSERT_TRUE(gram.Bind({7, 8, 9, 10}, data, KernelParams::Linear()).ok());
  EXPECT_EQ(gram.computed(), 0u);
  EXPECT_EQ(gram.carried(), 10u);
  EXPECT_EQ(CounterValue("cbir_svm_kernel_cache_hits_total") - hits, 10u);
  EXPECT_EQ(CounterValue("cbir_svm_kernel_cache_misses_total") - misses,
            10u);
}

TEST(KernelCacheTest, EvictionKeepsResultsCorrect) {
  // A session's Gram drops the images that left the training set at every
  // bind. Churn through a pattern of training sets: every bind equals a
  // fresh Gram of its rows, bit for bit.
  const la::Matrix corpus = RandomData(8, 3, 4);
  const KernelParams k = KernelParams::Rbf(0.3);
  const std::vector<std::vector<int>> rounds = {
      {0, 1, 2}, {2, 3, 0}, {7, 0, 1, 3}, {1}, {1, 7, 6, 5, 4}, {0, 1, 7}};
  Gram gram;
  for (const std::vector<int>& ids : rounds) {
    la::Matrix rows(ids.size(), corpus.cols());
    for (size_t i = 0; i < ids.size(); ++i) {
      rows.SetRow(i, corpus.Row(static_cast<size_t>(ids[i])));
    }
    ASSERT_TRUE(gram.Bind(ids, rows, k).ok());
    EXPECT_EQ(gram.ids(), ids);
    const Gram fresh = Fresh(rows, k);
    for (size_t i = 0; i < ids.size(); ++i) {
      for (size_t j = 0; j < ids.size(); ++j) {
        EXPECT_EQ(gram.RowPtr(i)[j], fresh.RowPtr(i)[j]);
      }
    }
  }
}

TEST(KernelCacheTest, LruKeepsRecentRow) {
  // Only the most recent bind is carried: image 0 left in the second bind,
  // so its pairs are computed again when it returns in the third.
  const la::Matrix corpus = RandomData(3, 2, 5);
  const KernelParams k = KernelParams::Linear();
  Gram gram;
  EXPECT_FALSE(gram.Bind({0, 1}, corpus, k).ok());  // 3 rows, 2 ids
  la::Matrix first(2, 2), second(2, 2);
  first.SetRow(0, corpus.Row(0));
  first.SetRow(1, corpus.Row(1));
  second.SetRow(0, corpus.Row(1));
  second.SetRow(1, corpus.Row(2));
  ASSERT_TRUE(gram.Bind({0, 1}, first, k).ok());
  ASSERT_TRUE(gram.Bind({1, 2}, second, k).ok());
  EXPECT_EQ(gram.carried(), 1u);   // (1, 1)
  EXPECT_EQ(gram.computed(), 2u);  // (1, 2), (2, 2)
  ASSERT_TRUE(gram.Bind({0, 1, 2}, corpus, k).ok());
  EXPECT_EQ(gram.carried(), 3u);   // (1, 1), (1, 2), (2, 2)
  EXPECT_EQ(gram.computed(), 3u);  // (0, 0), (0, 1), (0, 2)
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

  // A refused bind keeps the previous one.
  const la::Matrix data = RandomData(3, 1, 8);
  Gram gram = Fresh(data, KernelParams::Linear());
  std::vector<int> ids(too_many.rows());
  EXPECT_EQ(gram.Bind(ids, too_many, KernelParams::Linear()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(gram.n(), 3u);
  EXPECT_EQ(gram.Diag(2), la::Dot(data.Row(2), data.Row(2)));
}

TEST(KernelCacheDeathTest, OutOfRangeRow) {
  const la::Matrix data = RandomData(3, 2, 6);
  const Gram gram = Fresh(data, KernelParams::Linear());
  EXPECT_DEATH((void)gram.RowPtr(3), "Check failed");
}

}  // namespace
}  // namespace cbir::svm

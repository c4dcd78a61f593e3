#include "la/sparse_rows.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace cbir::la {
namespace {

// A dense row with about `density` of its entries nonzero. `log_values`
// draws the feedback log's weights (+1 / -0.25); otherwise entries are
// arbitrary doubles over many binades, both signs.
Vec RandomRow(Rng& rng, size_t dims, double density, bool log_values) {
  Vec row(dims, 0.0);
  for (double& v : row) {
    if (rng.Uniform() >= density) continue;
    if (log_values) {
      v = rng.Uniform() < 0.6 ? 1.0 : -0.25;
    } else {
      const int exponent =
          static_cast<int>(rng.UniformInt(int64_t{-30}, int64_t{30}));
      v = (rng.Uniform() - 0.5) * std::ldexp(1.0, exponent);
    }
  }
  return row;
}

SparseRows OneRow(const Vec& row) {
  Matrix m(1, row.size());
  m.SetRow(0, row);
  return SparseRows::FromDense(m);
}

TEST(SparseRowsTest, FromDenseKeepsOnlyNonzerosInColumnOrder) {
  Matrix dense(3, 5, 0.0);
  dense.SetRow(0, {0.0, 2.0, 0.0, -0.25, 0.0});
  dense.SetRow(2, {1.0, 0.0, 0.0, 0.0, 7.5});
  const SparseRows rows = SparseRows::FromDense(dense);
  EXPECT_EQ(rows.rows(), 3u);
  EXPECT_EQ(rows.cols(), 5u);
  EXPECT_EQ(rows.nnz(), 4u);
  EXPECT_FALSE(rows.empty());

  const SparseRowView r0 = rows.Row(0);
  ASSERT_EQ(r0.nnz, 2u);
  EXPECT_EQ(r0.index[0], 1u);
  EXPECT_EQ(r0.value[0], 2.0);
  EXPECT_EQ(r0.index[1], 3u);
  EXPECT_EQ(r0.value[1], -0.25);
  EXPECT_EQ(rows.Row(1).nnz, 0u);
  EXPECT_EQ(rows.Row(2).nnz, 2u);
}

TEST(SparseRowsTest, EmptyShapes) {
  EXPECT_TRUE(SparseRows().empty());
  EXPECT_EQ(SparseRows().rows(), 0u);
  EXPECT_TRUE(SparseRows::FromDense(Matrix(4, 0)).empty());
  EXPECT_TRUE(SparseRows(7).empty());
  // Rows of zeros are not empty: the log exists, nobody judged them.
  EXPECT_FALSE(SparseRows::FromDense(Matrix(2, 3, 0.0)).empty());
}

TEST(SparseRowsTest, TransposeListsEachColumnsRows) {
  Rng rng(8);
  Matrix dense(14, 6);
  for (size_t r = 0; r < dense.rows(); ++r) {
    dense.SetRow(r, RandomRow(rng, dense.cols(), 0.3, false));
  }
  const SparseRows transposed = SparseRows::FromDense(dense).Transpose();
  ASSERT_EQ(transposed.rows(), dense.cols());
  ASSERT_EQ(transposed.cols(), dense.rows());
  Matrix expected(dense.cols(), dense.rows());
  for (size_t r = 0; r < dense.rows(); ++r) {
    for (size_t c = 0; c < dense.cols(); ++c) {
      expected.At(c, r) = dense.At(r, c);
    }
  }
  for (size_t c = 0; c < dense.cols(); ++c) {
    const SparseRowView row = transposed.Row(c);
    EXPECT_TRUE(std::is_sorted(row.index, row.index + row.nnz));
  }
  EXPECT_EQ(transposed.GatherDense({0, 1, 2, 3, 4, 5}).data(), expected.data());
  EXPECT_EQ(SparseRows(3).Transpose().rows(), 3u);
}

TEST(SparseRowsTest, GatherAndGatherDenseRoundTrip) {
  Rng rng(3);
  Matrix dense(12, 9);
  for (size_t r = 0; r < dense.rows(); ++r) {
    dense.SetRow(r, RandomRow(rng, dense.cols(), 0.3, false));
  }
  const SparseRows rows = SparseRows::FromDense(dense);
  const std::vector<int> ids = {7, 0, 11, 7, 3};

  const Matrix gathered_dense = rows.GatherDense(ids);
  ASSERT_EQ(gathered_dense.rows(), ids.size());
  ASSERT_EQ(gathered_dense.cols(), dense.cols());
  const SparseRows gathered = rows.Gather(ids);
  ASSERT_EQ(gathered.rows(), ids.size());
  EXPECT_EQ(gathered.cols(), dense.cols());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(gathered_dense.Row(i), dense.Row(static_cast<size_t>(ids[i])));
    const SparseRowView a = gathered.Row(i);
    const SparseRowView b = rows.Row(static_cast<size_t>(ids[i]));
    ASSERT_EQ(a.nnz, b.nnz);
    for (size_t k = 0; k < a.nnz; ++k) {
      EXPECT_EQ(a.index[k], b.index[k]);
      EXPECT_EQ(a.value[k], b.value[k]);
    }
  }
  EXPECT_EQ(rows.GatherDense({}).rows(), 0u);
}

TEST(SparseRowsDeathTest, RejectsOutOfRangeRows) {
  const SparseRows rows = SparseRows::FromDense(Matrix(2, 3, 1.0));
  EXPECT_DEATH((void)rows.Row(2), "");
  EXPECT_DEATH((void)rows.Gather({0, -1}), "");
  EXPECT_DEATH((void)rows.GatherDense({2}), "");
}

// The sparse reductions must reproduce DotN / SquaredDistanceN to the bit:
// the paper's rankings sort on these values, so a last-bit change could
// reorder ties. Dims 1-9 cover every remainder of the 4-lane unroll (and
// dims < 4, where every term lands in lane 0); 150 is the log width of the
// paper's 150-session log.
TEST(SparseRowsTest, ReductionsAreBitIdenticalToDense) {
  Rng rng(11);
  std::vector<size_t> all_dims = {1, 2, 3, 4, 5, 6, 7, 8, 9, 150};
  for (size_t dims : all_dims) {
    for (double density : {0.0, 0.05, 0.3, 0.7, 1.0}) {
      for (bool log_values : {false, true}) {
        for (int trial = 0; trial < 40; ++trial) {
          const Vec a = RandomRow(rng, dims, density, log_values);
          // Half the pairs share a's zero pattern exactly, so the merge
          // also meets long runs of common columns.
          const Vec b = trial % 2 == 0
                            ? RandomRow(rng, dims, density, log_values)
                            : [&] {
                                Vec v = RandomRow(rng, dims, 1.0, log_values);
                                for (size_t i = 0; i < dims; ++i) {
                                  if (a[i] == 0.0) v[i] = 0.0;
                                }
                                return v;
                              }();
          const SparseRows sa = OneRow(a);
          const SparseRows sb = OneRow(b);
          SCOPED_TRACE(::testing::Message() << "dims " << dims << " density "
                                            << density << " trial " << trial);
          EXPECT_EQ(SparseDot(sa.Row(0), sb.Row(0), dims),
                    DotN(a.data(), b.data(), dims));
          EXPECT_EQ(SparseDot(sb.Row(0), sa.Row(0), dims),
                    DotN(b.data(), a.data(), dims));
          EXPECT_EQ(SparseSquaredDistance(sa.Row(0), sb.Row(0), dims),
                    SquaredDistanceN(a.data(), b.data(), dims));
          EXPECT_EQ(SparseSquaredDistance(sb.Row(0), sa.Row(0), dims),
                    SquaredDistanceN(b.data(), a.data(), dims));
          EXPECT_EQ(SparseSquaredDistance(sa.Row(0), sa.Row(0), dims), 0.0);
        }
      }
    }
  }
}

TEST(SparseRowsTest, ReductionsOfEmptyRowsAreZero) {
  const SparseRows zeros = SparseRows::FromDense(Matrix(1, 8, 0.0));
  const SparseRows ones = SparseRows::FromDense(Matrix(1, 8, 1.0));
  EXPECT_EQ(SparseDot(zeros.Row(0), ones.Row(0), 8), 0.0);
  EXPECT_FALSE(std::signbit(SparseDot(zeros.Row(0), ones.Row(0), 8)));
  EXPECT_EQ(SparseSquaredDistance(zeros.Row(0), ones.Row(0), 8), 8.0);
  EXPECT_EQ(SparseSquaredDistance(zeros.Row(0), zeros.Row(0), 8), 0.0);
}

}  // namespace
}  // namespace cbir::la

#include "la/vector_ops.h"

#include <cmath>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace cbir::la {
namespace {

TEST(VectorOpsTest, Dot) {
  EXPECT_DOUBLE_EQ(Dot({1, 2, 3}, {4, 5, 6}), 32.0);
  EXPECT_DOUBLE_EQ(Dot({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(Dot({1, -1}, {1, 1}), 0.0);
}

TEST(VectorOpsTest, SquaredDistance) {
  EXPECT_DOUBLE_EQ(SquaredDistance({0, 0}, {3, 4}), 25.0);
  EXPECT_DOUBLE_EQ(SquaredDistance({1, 2, 3}, {1, 2, 3}), 0.0);
}

TEST(VectorOpsTest, Distance) {
  EXPECT_DOUBLE_EQ(Distance({0, 0}, {3, 4}), 5.0);
}

TEST(VectorOpsTest, Norm) {
  EXPECT_DOUBLE_EQ(Norm({3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(Norm({}), 0.0);
}

TEST(VectorOpsTest, Axpy) {
  Vec y{1, 1, 1};
  Axpy(2.0, {1, 2, 3}, &y);
  EXPECT_EQ(y, (Vec{3, 5, 7}));
}

TEST(VectorOpsTest, Scale) {
  Vec x{2, -4};
  Scale(0.5, &x);
  EXPECT_EQ(x, (Vec{1, -2}));
}

TEST(VectorOpsTest, AddSubtract) {
  EXPECT_EQ(Add({1, 2}, {3, 4}), (Vec{4, 6}));
  EXPECT_EQ(Subtract({3, 4}, {1, 2}), (Vec{2, 2}));
}

TEST(VectorOpsTest, NormalizeL2) {
  Vec x{3, 4};
  NormalizeL2(&x);
  EXPECT_DOUBLE_EQ(x[0], 0.6);
  EXPECT_DOUBLE_EQ(x[1], 0.8);
}

TEST(VectorOpsTest, NormalizeZeroVectorUnchanged) {
  Vec x{0, 0, 0};
  NormalizeL2(&x);
  EXPECT_EQ(x, (Vec{0, 0, 0}));
}

// Mostly normal values of widely spread exponents, so the order of the adds
// shows in the rounding, with signed zeros and subnormals mixed in and, when
// `huge` allows, magnitudes whose squares or differences overflow to inf.
double DrawAwkward(Rng& rng, bool huge) {
  const double sign = rng.UniformInt(2) == 0 ? 1.0 : -1.0;
  switch (rng.UniformInt(16)) {
    case 0:
      return sign * 0.0;
    case 1:
      return sign * std::numeric_limits<double>::denorm_min() *
             static_cast<double>(rng.UniformInt(int64_t{1}, int64_t{1000}));
    case 2:
      return sign * std::numeric_limits<double>::min() / 3.0;
    case 3:
      if (huge) return sign * rng.Uniform(1e154, 1e308);
      [[fallthrough]];
    default:
      return std::ldexp(rng.Gaussian(), static_cast<int>(rng.UniformInt(
                                            int64_t{-40}, int64_t{40})));
  }
}

TEST(VectorOpsTest, SquaredDistanceToRowsIsBitIdenticalToPerRow) {
  Rng rng(36);
  for (size_t dims : {0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 35u, 36u, 37u,
                      150u}) {
    for (size_t num_rows :
         {0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 2000u}) {
      // One leading pad double, so rows start off a 16-byte boundary. One
      // row in five may overflow; the query never does, or every row would.
      std::vector<double> storage(1 + num_rows * dims);
      const double* rows = storage.data() + 1;
      for (size_t r = 0; r < num_rows; ++r) {
        for (size_t i = 0; i < dims; ++i) {
          storage[1 + r * dims + i] = DrawAwkward(rng, r % 5 == 2);
        }
      }
      std::vector<double> query(dims);
      for (double& v : query) v = DrawAwkward(rng, false);

      std::vector<double> batch(num_rows);
      SquaredDistanceToRows(rows, num_rows, dims, query.data(), batch.data());
      for (size_t r = 0; r < num_rows; ++r) {
        const double one =
            SquaredDistanceN(rows + r * dims, query.data(), dims);
        EXPECT_EQ(std::memcmp(&batch[r], &one, sizeof(double)), 0)
            << "dims " << dims << " rows " << num_rows << " row " << r
            << ": " << batch[r] << " vs " << one;
      }
    }
  }
}

TEST(VectorOpsDeathTest, SizeMismatch) {
  EXPECT_DEATH((void)Dot({1}, {1, 2}), "Check failed");
}

}  // namespace
}  // namespace cbir::la

#include "logdb/relevance_matrix.h"

#include <gtest/gtest.h>

namespace cbir::logdb {
namespace {

LogSession MakeSession(int query, std::vector<std::pair<int, int>> marks) {
  LogSession s;
  s.query_image_id = query;
  for (auto [id, j] : marks) {
    s.entries.push_back(LogEntry{id, static_cast<int8_t>(j)});
  }
  return s;
}

TEST(RelevanceMatrixTest, EmptyMatrix) {
  RelevanceMatrix m(10);
  EXPECT_EQ(m.num_images(), 10);
  EXPECT_EQ(m.num_sessions(), 0);
  EXPECT_EQ(m.CoveredImages(), 0);
  EXPECT_TRUE(m.LogVector(3).empty());
}

TEST(RelevanceMatrixTest, AddSessionAndQuery) {
  RelevanceMatrix m(5);
  m.AddSession(MakeSession(0, {{1, 1}, {2, -1}}));
  m.AddSession(MakeSession(3, {{1, -1}, {4, 1}}));
  EXPECT_EQ(m.num_sessions(), 2);
  EXPECT_EQ(m.LogVector(1, 1.0), (la::Vec{1.0, -1.0}));
  EXPECT_EQ(m.LogVector(2, 1.0), (la::Vec{-1.0, 0.0}));
  EXPECT_EQ(m.LogVector(3, 1.0), (la::Vec{0.0, 0.0}));
  EXPECT_EQ(m.LogVector(4, 1.0), (la::Vec{0.0, 1.0}));
}

TEST(RelevanceMatrixTest, LogVectorIsColumn) {
  RelevanceMatrix m(4);
  m.AddSession(MakeSession(0, {{1, 1}}));
  m.AddSession(MakeSession(0, {{1, -1}, {2, 1}}));
  m.AddSession(MakeSession(0, {{3, 1}}));
  // Raw (paper-literal) representation: negative_weight = 1.
  EXPECT_EQ(m.LogVector(1, 1.0), (la::Vec{1.0, -1.0, 0.0}));
  EXPECT_EQ(m.LogVector(2, 1.0), (la::Vec{0.0, 1.0, 0.0}));
  EXPECT_EQ(m.LogVector(0, 1.0), (la::Vec{0.0, 0.0, 0.0}));
}

TEST(RelevanceMatrixTest, DefaultLogVectorUsesRocchioWeighting) {
  RelevanceMatrix m(2);
  m.AddSession(MakeSession(0, {{0, 1}, {1, -1}}));
  EXPECT_EQ(m.LogVector(0), (la::Vec{1.0}));
  EXPECT_EQ(m.LogVector(1),
            (la::Vec{-RelevanceMatrix::kRocchioNegativeWeight}));
}

TEST(RelevanceMatrixTest, ToDenseMatrixMatchesLogVectors) {
  RelevanceMatrix m(3);
  m.AddSession(MakeSession(0, {{0, 1}, {2, -1}}));
  m.AddSession(MakeSession(1, {{1, 1}}));
  for (double weight : {1.0, 0.25, 0.0}) {
    const la::Matrix dense = m.ToDenseMatrix(weight);
    EXPECT_EQ(dense.rows(), 3u);
    EXPECT_EQ(dense.cols(), 2u);
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(dense.Row(static_cast<size_t>(i)), m.LogVector(i, weight));
    }
  }
  EXPECT_DOUBLE_EQ(m.ToDenseMatrix(0.25).At(2, 0), -0.25);
}

TEST(RelevanceMatrixTest, IgnoresInvalidEntries) {
  RelevanceMatrix m(3);
  m.AddSession(MakeSession(0, {{-1, 1}, {7, 1}, {1, 0}, {2, 1}}));
  EXPECT_EQ(m.PositiveCount(), 1);
  EXPECT_EQ(m.num_sessions(), 1);
  EXPECT_EQ(m.LogVector(2, 1.0), (la::Vec{1.0}));
  EXPECT_EQ(m.LogVector(1, 1.0), (la::Vec{0.0}));
}

TEST(RelevanceMatrixTest, DuplicateJudgmentKeepsLast) {
  RelevanceMatrix m(3);
  m.AddSession(MakeSession(0, {{1, 1}, {1, -1}}));
  EXPECT_EQ(m.LogVector(1, 1.0), (la::Vec{-1.0}));
  // Only one mark recorded despite the duplicate.
  EXPECT_EQ(m.PositiveCount() + m.NegativeCount(), 1);
}

TEST(RelevanceMatrixTest, Counts) {
  RelevanceMatrix m(6);
  m.AddSession(MakeSession(0, {{0, 1}, {1, 1}, {2, -1}}));
  m.AddSession(MakeSession(0, {{3, -1}}));
  EXPECT_EQ(m.PositiveCount(), 2);
  EXPECT_EQ(m.NegativeCount(), 2);
  EXPECT_EQ(m.CoveredImages(), 4);
}

TEST(RelevanceMatrixDeathTest, BoundsChecked) {
  RelevanceMatrix m(2);
  m.AddSession(MakeSession(0, {{0, 1}}));
  EXPECT_DEATH((void)m.LogVector(2), "Check failed");
  EXPECT_DEATH((void)m.LogVector(-1), "Check failed");
}

}  // namespace
}  // namespace cbir::logdb

#include "core/unlabeled_selection.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

namespace cbir::core {
namespace {

SelectionInputs DecisionInputs() {
  SelectionInputs in;
  in.candidate_ids = {10, 11, 12, 13, 14, 15};
  in.combined_decisions = {3.0, -2.0, 0.5, -0.1, 2.0, -3.0};
  return in;
}

SelectionInputs SimilarityInputs() {
  SelectionInputs in;
  in.candidate_ids = {20, 21, 22, 23, 24, 25};
  in.similarity_to_positives = {0.9, 0.1, 0.8, 0.2, 0.5, 0.3};
  in.similarity_to_negatives = {0.1, 0.9, 0.2, 0.8, 0.6, 0.3};
  return in;
}

TEST(SelectionTest, MostSimilarPicksClosestToEachClass) {
  const SelectionResult r = SelectUnlabeled(SelectionStrategy::kMostSimilar,
                                            SimilarityInputs(), 4, 1);
  ASSERT_EQ(r.ids.size(), 4u);
  // Positive half: ids 20 (0.9) and 22 (0.8).
  EXPECT_EQ(r.ids[0], 20);
  EXPECT_EQ(r.ids[1], 22);
  EXPECT_DOUBLE_EQ(r.initial_labels[0], 1.0);
  EXPECT_DOUBLE_EQ(r.initial_labels[1], 1.0);
  // Negative half: ids 21 (0.9) and 23 (0.8).
  EXPECT_EQ(r.ids[2], 21);
  EXPECT_EQ(r.ids[3], 23);
  EXPECT_DOUBLE_EQ(r.initial_labels[2], -1.0);
  EXPECT_DOUBLE_EQ(r.initial_labels[3], -1.0);
}

TEST(SelectionTest, MostSimilarAvoidsDoubleSelection) {
  SelectionInputs in;
  in.candidate_ids = {1, 2, 3};
  // Candidate 1 tops BOTH lists; it must appear once (as positive).
  in.similarity_to_positives = {0.9, 0.5, 0.1};
  in.similarity_to_negatives = {0.9, 0.2, 0.6};
  const SelectionResult r =
      SelectUnlabeled(SelectionStrategy::kMostSimilar, in, 2, 1);
  ASSERT_EQ(r.ids.size(), 2u);
  EXPECT_EQ(r.ids[0], 1);
  EXPECT_DOUBLE_EQ(r.initial_labels[0], 1.0);
  EXPECT_EQ(r.ids[1], 3);  // next best negative after 1 was consumed
  EXPECT_DOUBLE_EQ(r.initial_labels[1], -1.0);
}

TEST(SelectionTest, MaxMinPicksExtremes) {
  const SelectionResult r = SelectUnlabeled(SelectionStrategy::kMaxMin,
                                            DecisionInputs(), 4, 1);
  ASSERT_EQ(r.ids.size(), 4u);
  // Top-2 by decision: ids 10 (3.0) and 14 (2.0) -> +1.
  EXPECT_EQ(r.ids[0], 10);
  EXPECT_EQ(r.ids[1], 14);
  EXPECT_DOUBLE_EQ(r.initial_labels[0], 1.0);
  EXPECT_DOUBLE_EQ(r.initial_labels[1], 1.0);
  // Bottom-2: ids 15 (-3.0) and 11 (-2.0) -> -1.
  EXPECT_EQ(r.ids[2], 15);
  EXPECT_EQ(r.ids[3], 11);
  EXPECT_DOUBLE_EQ(r.initial_labels[2], -1.0);
  EXPECT_DOUBLE_EQ(r.initial_labels[3], -1.0);
}

TEST(SelectionTest, MaxMinOddCountFavorsPositives) {
  const SelectionResult r =
      SelectUnlabeled(SelectionStrategy::kMaxMin, DecisionInputs(), 3, 1);
  ASSERT_EQ(r.ids.size(), 3u);
  int positives = 0;
  for (double l : r.initial_labels) {
    if (l > 0) ++positives;
  }
  EXPECT_EQ(positives, 2);
}

TEST(SelectionTest, BoundaryClosestPicksSmallestMagnitude) {
  const SelectionResult r = SelectUnlabeled(
      SelectionStrategy::kBoundaryClosest, DecisionInputs(), 2, 1);
  ASSERT_EQ(r.ids.size(), 2u);
  // |-0.1| and |0.5| are the smallest.
  EXPECT_EQ(r.ids[0], 13);
  EXPECT_EQ(r.ids[1], 12);
  EXPECT_DOUBLE_EQ(r.initial_labels[0], -1.0);  // sign of -0.1
  EXPECT_DOUBLE_EQ(r.initial_labels[1], 1.0);   // sign of 0.5
}

TEST(SelectionTest, RandomIsDeterministicInSeed) {
  const SelectionInputs in = DecisionInputs();
  const SelectionResult a =
      SelectUnlabeled(SelectionStrategy::kRandom, in, 3, 42);
  const SelectionResult b =
      SelectUnlabeled(SelectionStrategy::kRandom, in, 3, 42);
  EXPECT_EQ(a.ids, b.ids);
  EXPECT_EQ(a.initial_labels, b.initial_labels);
  // Labels follow the decision sign.
  for (size_t i = 0; i < a.ids.size(); ++i) {
    const auto pos = std::find(in.candidate_ids.begin(),
                               in.candidate_ids.end(), a.ids[i]);
    const double d = in.combined_decisions[static_cast<size_t>(
        pos - in.candidate_ids.begin())];
    EXPECT_DOUBLE_EQ(a.initial_labels[i], d >= 0 ? 1.0 : -1.0);
  }
}

TEST(SelectionTest, WantMoreThanAvailableClamps) {
  for (SelectionStrategy strategy :
       {SelectionStrategy::kMostSimilar, SelectionStrategy::kMaxMin,
        SelectionStrategy::kBoundaryClosest, SelectionStrategy::kRandom}) {
    const SelectionInputs in = strategy == SelectionStrategy::kMostSimilar
                                   ? SimilarityInputs()
                                   : DecisionInputs();
    const SelectionResult r = SelectUnlabeled(strategy, in, 100, 1);
    EXPECT_EQ(r.ids.size(), in.candidate_ids.size())
        << SelectionStrategyToString(strategy);
    const std::set<int> unique(r.ids.begin(), r.ids.end());
    EXPECT_EQ(unique.size(), r.ids.size()) << "duplicates from "
                                           << SelectionStrategyToString(
                                                  strategy);
  }
}

TEST(SelectionTest, ZeroRequestedReturnsEmpty) {
  const SelectionResult r =
      SelectUnlabeled(SelectionStrategy::kMaxMin, DecisionInputs(), 0, 1);
  EXPECT_TRUE(r.ids.empty());
  EXPECT_TRUE(r.initial_labels.empty());
}

TEST(SelectionTest, EmptyCandidates) {
  const SelectionResult r =
      SelectUnlabeled(SelectionStrategy::kMostSimilar, SelectionInputs{}, 10,
                      1);
  EXPECT_TRUE(r.ids.empty());
}

TEST(SelectionTest, StrategyNames) {
  EXPECT_STREQ(SelectionStrategyToString(SelectionStrategy::kMostSimilar),
               "most-similar");
  EXPECT_STREQ(SelectionStrategyToString(SelectionStrategy::kMaxMin),
               "max-min");
  EXPECT_STREQ(SelectionStrategyToString(SelectionStrategy::kBoundaryClosest),
               "boundary-closest");
  EXPECT_STREQ(SelectionStrategyToString(SelectionStrategy::kRandom),
               "random");
}

TEST(SelectionTest, ParseRoundTripsEveryNameAndRejectsTypos) {
  for (SelectionStrategy strategy :
       {SelectionStrategy::kMostSimilar, SelectionStrategy::kMaxMin,
        SelectionStrategy::kBoundaryClosest, SelectionStrategy::kRandom}) {
    const Result<SelectionStrategy> parsed =
        ParseSelectionStrategy(SelectionStrategyToString(strategy));
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(parsed.value(), strategy);
  }
  EXPECT_EQ(ParseSelectionStrategy("maxmin").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SelectionDeathTest, MissingSignals) {
  SelectionInputs in;
  in.candidate_ids = {1, 2};
  // kMaxMin needs combined_decisions; kMostSimilar needs similarities.
  EXPECT_DEATH(
      (void)SelectUnlabeled(SelectionStrategy::kMaxMin, in, 2, 1),
      "Check failed");
  EXPECT_DEATH(
      (void)SelectUnlabeled(SelectionStrategy::kMostSimilar, in, 2, 1),
      "Check failed");
}

}  // namespace
}  // namespace cbir::core

#include "core/unlabeled_selection.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <unordered_set>

#include <gtest/gtest.h>

#include "util/rng.h"

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

// Reference selection by full sort: every candidate ordered by key
// descending, ties by id ascending, and the picks read off the sorted order.
std::vector<size_t> FullSortDesc(const std::vector<double>& keys,
                                 const std::vector<int>& ids) {
  std::vector<size_t> order(keys.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (keys[a] != keys[b]) return keys[a] > keys[b];
    return ids[a] < ids[b];
  });
  return order;
}

SelectionResult ReferenceSelect(SelectionStrategy strategy,
                                const SelectionInputs& in, size_t n_prime) {
  const std::vector<int>& ids = in.candidate_ids;
  const size_t available = ids.size();
  const size_t want = std::min(n_prime, available);
  const size_t top = want / 2 + want % 2;
  SelectionResult out;
  const auto add = [&](size_t pos, double label) {
    out.ids.push_back(ids[pos]);
    out.initial_labels.push_back(label);
  };
  switch (strategy) {
    case SelectionStrategy::kMostSimilar: {
      const auto by_pos = FullSortDesc(in.similarity_to_positives, ids);
      const auto by_neg = FullSortDesc(in.similarity_to_negatives, ids);
      std::unordered_set<int> taken;
      for (size_t i = 0; i < available && out.ids.size() < top; ++i) {
        if (taken.insert(ids[by_pos[i]]).second) add(by_pos[i], 1.0);
      }
      for (size_t i = 0; i < available && out.ids.size() < want; ++i) {
        if (taken.insert(ids[by_neg[i]]).second) add(by_neg[i], -1.0);
      }
      break;
    }
    case SelectionStrategy::kMaxMin: {
      const auto order = FullSortDesc(in.combined_decisions, ids);
      for (size_t i = 0; i < top; ++i) add(order[i], 1.0);
      for (size_t i = 0; i < want - top; ++i) {
        add(order[available - 1 - i], -1.0);
      }
      break;
    }
    case SelectionStrategy::kBoundaryClosest: {
      std::vector<double> neg_abs(available);
      for (size_t i = 0; i < available; ++i) {
        neg_abs[i] = -std::fabs(in.combined_decisions[i]);
      }
      const auto order = FullSortDesc(neg_abs, ids);
      for (size_t i = 0; i < want; ++i) {
        add(order[i], in.combined_decisions[order[i]] >= 0.0 ? 1.0 : -1.0);
      }
      break;
    }
    case SelectionStrategy::kRandom:
      break;
  }
  return out;
}

TEST(SelectionTest, TopNPrimeMatchesFullSortUnderTies) {
  // Keys on a coarse grid (eight values, signed zeros included) tie often,
  // so the id tie-break decides many picks; ids are unique but shuffled, so
  // position order and id order disagree.
  const std::vector<double> grid = {-1.5, -1.0, -0.5, -0.0,
                                    0.0,  0.5,  1.0,  2.0};
  Rng rng(2005);
  for (size_t available : {0u, 1u, 2u, 5u, 40u, 328u, 1980u}) {
    for (int trial = 0; trial < 4; ++trial) {
      SelectionInputs in;
      in.candidate_ids.resize(available);
      for (size_t i = 0; i < available; ++i) {
        in.candidate_ids[i] = static_cast<int>(3 * i + 7);
      }
      rng.Shuffle(&in.candidate_ids);
      const auto draw = [&] {
        std::vector<double> keys(available);
        for (double& k : keys) k = grid[rng.UniformInt(grid.size())];
        return keys;
      };
      in.combined_decisions = draw();
      in.similarity_to_positives = draw();
      in.similarity_to_negatives = draw();
      for (size_t n_prime :
           {size_t{0}, size_t{1}, size_t{7}, size_t{20}, available,
            available + 3}) {
        for (SelectionStrategy strategy :
             {SelectionStrategy::kMostSimilar, SelectionStrategy::kMaxMin,
              SelectionStrategy::kBoundaryClosest}) {
          const SelectionResult got = SelectUnlabeled(
              strategy, in, static_cast<int>(n_prime), 1);
          const SelectionResult want = ReferenceSelect(strategy, in, n_prime);
          EXPECT_EQ(got.ids, want.ids)
              << SelectionStrategyToString(strategy) << " available "
              << available << " N' " << n_prime << " trial " << trial;
          EXPECT_EQ(got.initial_labels, want.initial_labels)
              << SelectionStrategyToString(strategy) << " available "
              << available << " N' " << n_prime << " trial " << trial;
        }
      }
    }
  }
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

#include "logdb/simulated_user.h"

#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace cbir::logdb {
namespace {

std::vector<int> TwoCategoryLabels(int n_per_cat) {
  std::vector<int> labels;
  for (int c = 0; c < 2; ++c) {
    for (int i = 0; i < n_per_cat; ++i) labels.push_back(c);
  }
  return labels;
}

TEST(SimulatedUserTest, NoiseFreeJudgmentsMatchGroundTruth) {
  SimulatedUser user(TwoCategoryLabels(3), UserModel{0.0});
  Rng rng(1);
  EXPECT_EQ(user.Judge(0, 0, &rng), 1);
  EXPECT_EQ(user.Judge(2, 0, &rng), 1);
  EXPECT_EQ(user.Judge(3, 0, &rng), -1);
  EXPECT_EQ(user.Judge(0, 1, &rng), -1);
}

TEST(SimulatedUserTest, IsRelevantAndCategory) {
  SimulatedUser user(TwoCategoryLabels(2), UserModel{0.0});
  EXPECT_TRUE(user.IsRelevant(1, 0));
  EXPECT_FALSE(user.IsRelevant(2, 0));
  EXPECT_EQ(user.category(3), 1);
  EXPECT_EQ(user.num_images(), 4);
}

TEST(SimulatedUserTest, NoiseRateApproximatelyRealized) {
  SimulatedUser user(TwoCategoryLabels(1), UserModel{0.25});
  Rng rng(42);
  int flipped = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (user.Judge(0, 0, &rng) == -1) ++flipped;  // truth is +1
  }
  EXPECT_NEAR(static_cast<double>(flipped) / trials, 0.25, 0.01);
}

TEST(SimulatedUserTest, FullNoiseAlwaysFlips) {
  SimulatedUser user(TwoCategoryLabels(2), UserModel{1.0});
  Rng rng(7);
  EXPECT_EQ(user.Judge(0, 0, &rng), -1);  // truth +1, always flipped
  EXPECT_EQ(user.Judge(2, 0, &rng), 1);   // truth -1, always flipped
}

la::Matrix ClusteredFeatures(const std::vector<int>& categories,
                             uint64_t seed) {
  Rng rng(seed);
  la::Matrix features(categories.size(), 2);
  for (size_t i = 0; i < categories.size(); ++i) {
    features.At(i, 0) = categories[i] * 10.0 + rng.Gaussian();
    features.At(i, 1) = rng.Gaussian();
  }
  return features;
}

TEST(SimulatedUserTest, JudgeRoundTakesTheTopUnjudgedIds) {
  const SimulatedUser user(TwoCategoryLabels(5), UserModel{0.3});
  const std::vector<int> ranking = {4, 7, 1, 9, 2, 0, 8, 3, 5, 6};
  const int query = 4;
  std::unordered_set<int> judged{query, 1, 2};  // query + earlier rounds

  Rng rng(17);
  const std::vector<LogEntry> round =
      user.JudgeRound(ranking, /*query_category=*/0, 4, &judged, &rng);

  // Skips the query and the judged ids, stops after n, marks what it took.
  ASSERT_EQ(round.size(), 4u);
  EXPECT_EQ(round[0].image_id, 7);
  EXPECT_EQ(round[1].image_id, 9);
  EXPECT_EQ(round[2].image_id, 0);
  EXPECT_EQ(round[3].image_id, 8);
  EXPECT_EQ(judged, (std::unordered_set<int>{4, 1, 2, 7, 9, 0, 8}));

  // Same entries, and the same draws, as judging by hand in ranking order.
  Rng hand_rng(17);
  for (const LogEntry& e : round) {
    EXPECT_EQ(e.judgment, user.Judge(e.image_id, 0, &hand_rng));
  }
  EXPECT_EQ(rng.UniformInt(1000), hand_rng.UniformInt(1000));

  // Everything judged: nothing left to take, no draw made.
  std::unordered_set<int> all(ranking.begin(), ranking.end());
  EXPECT_TRUE(user.JudgeRound(ranking, 0, 4, &all, &rng).empty());
  EXPECT_EQ(rng.UniformInt(1000), hand_rng.UniformInt(1000));
}

TEST(CollectLogsTest, ProtocolShape) {
  const std::vector<int> categories = TwoCategoryLabels(30);
  const la::Matrix features = ClusteredFeatures(categories, 3);
  LogCollectionOptions options;
  options.num_sessions = 12;
  options.session_size = 8;
  options.seed = 99;
  const LogStore store = CollectLogs(features, categories, options);
  EXPECT_EQ(store.num_sessions(), 12);
  for (const LogSession& s : store.sessions()) {
    EXPECT_EQ(s.entries.size(), 8u);
    EXPECT_GE(s.query_image_id, 0);
    EXPECT_LT(s.query_image_id, 60);
    for (const LogEntry& e : s.entries) {
      EXPECT_NE(e.image_id, s.query_image_id);  // query never judged
      EXPECT_TRUE(e.judgment == 1 || e.judgment == -1);
    }
  }
}

TEST(CollectLogsTest, DeterministicInSeed) {
  const std::vector<int> categories = TwoCategoryLabels(20);
  const la::Matrix features = ClusteredFeatures(categories, 5);
  LogCollectionOptions options;
  options.num_sessions = 5;
  options.session_size = 6;
  options.seed = 123;
  const LogStore a = CollectLogs(features, categories, options);
  const LogStore b = CollectLogs(features, categories, options);
  ASSERT_EQ(a.num_sessions(), b.num_sessions());
  for (int s = 0; s < a.num_sessions(); ++s) {
    EXPECT_EQ(a.sessions()[s].query_image_id, b.sessions()[s].query_image_id);
    ASSERT_EQ(a.sessions()[s].entries.size(), b.sessions()[s].entries.size());
    for (size_t e = 0; e < a.sessions()[s].entries.size(); ++e) {
      EXPECT_EQ(a.sessions()[s].entries[e].image_id,
                b.sessions()[s].entries[e].image_id);
      EXPECT_EQ(a.sessions()[s].entries[e].judgment,
                b.sessions()[s].entries[e].judgment);
    }
  }
}

TEST(CollectLogsTest, NoiseFreeLogsReflectCategories) {
  // With well-separated clusters and no noise, judged top results of a query
  // are mostly same-category -> mostly positive marks.
  const std::vector<int> categories = TwoCategoryLabels(30);
  const la::Matrix features = ClusteredFeatures(categories, 7);
  LogCollectionOptions options;
  options.num_sessions = 20;
  options.session_size = 10;
  options.user.noise_rate = 0.0;
  options.seed = 17;
  const LogStore store = CollectLogs(features, categories, options);
  const RelevanceMatrix m = store.BuildMatrix(60);
  EXPECT_GT(m.PositiveCount(), m.NegativeCount());
}

TEST(CollectLogsTest, JudgmentsAgreeWithCategoriesWhenNoiseFree) {
  const std::vector<int> categories = TwoCategoryLabels(15);
  const la::Matrix features = ClusteredFeatures(categories, 9);
  LogCollectionOptions options;
  options.num_sessions = 8;
  options.session_size = 5;
  options.user.noise_rate = 0.0;
  const LogStore store = CollectLogs(features, categories, options);
  for (const LogSession& s : store.sessions()) {
    const int qcat = categories[static_cast<size_t>(s.query_image_id)];
    for (const LogEntry& e : s.entries) {
      const bool relevant =
          categories[static_cast<size_t>(e.image_id)] == qcat;
      EXPECT_EQ(e.judgment, relevant ? 1 : -1);
    }
  }
}

}  // namespace
}  // namespace cbir::logdb

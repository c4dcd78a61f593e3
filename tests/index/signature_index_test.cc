#include "index/signature_index.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "retrieval/evaluator.h"
#include "retrieval/ranker.h"
#include "retrieval/synthetic_features.h"
#include "util/rng.h"

namespace cbir::retrieval {
namespace {

// Clustered synthetic corpus (see retrieval::ClusteredFeatures): Euclidean
// neighbors are overwhelmingly same-cluster rows, exactly the structure
// category corpora give the index.
la::Matrix ClusteredCorpus(size_t n, size_t dims, size_t clusters,
                           uint64_t seed) {
  return ClusteredFeatures(n, dims, clusters, seed);
}

TEST(SignatureIndexTest, DeterministicSignaturesAcrossRebuilds) {
  const la::Matrix corpus = ClusteredCorpus(500, 36, 20, 11);
  SignatureIndexOptions options;
  SignatureIndex a(options);
  a.Build(corpus);
  SignatureIndex b(options);
  b.Build(corpus);
  ASSERT_EQ(a.signatures().size(), b.signatures().size());
  EXPECT_EQ(a.signatures(), b.signatures());

  // Thread count must not change the signature family.
  SignatureIndexOptions serial = options;
  serial.num_threads = 1;
  SignatureIndex c(serial);
  c.Build(corpus);
  EXPECT_EQ(a.signatures(), c.signatures());

  // A different seed draws different hyperplanes.
  SignatureIndexOptions reseeded = options;
  reseeded.seed = options.seed + 1;
  SignatureIndex d(reseeded);
  d.Build(corpus);
  EXPECT_NE(a.signatures(), d.signatures());
}

TEST(SignatureIndexTest, EncodeMatchesStoredSignatures) {
  const la::Matrix corpus = ClusteredCorpus(100, 12, 5, 12);
  SignatureIndexOptions options;
  options.bits = 100;  // not a multiple of 64: top word is partial
  SignatureIndex index(options);
  index.Build(corpus);
  EXPECT_EQ(index.words_per_row(), 2u);
  for (size_t r = 0; r < corpus.rows(); r += 17) {
    const std::vector<uint64_t> sig = index.Encode(corpus.Row(r));
    ASSERT_EQ(sig.size(), index.words_per_row());
    for (size_t w = 0; w < sig.size(); ++w) {
      EXPECT_EQ(sig[w], index.signatures()[r * index.words_per_row() + w]);
    }
  }
}

TEST(SignatureIndexTest, MatchesExactWhenCandidatesCoverEverything) {
  // k * candidate_factor >= rows: the Hamming scan excludes nothing, so the
  // exact rerank must reproduce RankByEuclidean bit-for-bit — including
  // index tie-breaks (the corpus has duplicated rows).
  la::Matrix corpus = ClusteredCorpus(200, 8, 10, 13);
  for (size_t r = 100; r < 120; ++r) corpus.SetRow(r, corpus.Row(r - 100));
  SignatureIndexOptions options;
  options.candidate_factor = 50;
  SignatureIndex index(options);
  index.Build(corpus);
  const la::Vec query = corpus.Row(100);  // duplicated row: distance ties
  for (int k : {5, 50, 200}) {
    EXPECT_EQ(index.Query(query, k), RankByEuclidean(corpus, query, k))
        << "k=" << k;
  }
}

TEST(SignatureIndexTest, FullRankingRequestFallsBackToExhaustive) {
  const la::Matrix corpus = ClusteredCorpus(300, 10, 10, 14);
  SignatureIndex index(SignatureIndexOptions{});
  index.Build(corpus);
  const la::Vec query = corpus.Row(4);
  EXPECT_EQ(index.Query(query, -1), RankByEuclidean(corpus, query, -1));
  EXPECT_EQ(index.Query(query, 0), RankByEuclidean(corpus, query, 0));
  EXPECT_GE(index.stats().rows_scanned, 600u);
}

TEST(SignatureIndexTest, RecallAt50AtLeastPoint9OnSyntheticCorpus) {
  // 4000 rows, 36 dims (the paper's feature width), default knobs: the
  // Hamming scan keeps 400 of 4000 rows (10%) yet must preserve >= 90% of
  // the exact top-50 on average.
  const la::Matrix corpus = ClusteredCorpus(4000, 36, 40, 15);
  SignatureIndex index(SignatureIndexOptions{});
  index.Build(corpus);
  double recall_sum = 0.0;
  const int num_queries = 20;
  for (int q = 0; q < num_queries; ++q) {
    const la::Vec query = corpus.Row(static_cast<size_t>(q) * 97);
    const auto approx = index.Query(query, 50);
    const auto exact = RankByEuclidean(corpus, query, 50);
    recall_sum += RecallAtK(approx, exact, 50);
  }
  const double mean_recall = recall_sum / num_queries;
  EXPECT_GE(mean_recall, 0.9) << "mean recall@50 = " << mean_recall;
  // The online proxy should roughly agree that quality is high.
  EXPECT_GE(index.stats().recall_proxy, 0.8);
}

TEST(SignatureIndexTest, QueryBatchEqualsLoopedQuery) {
  const la::Matrix corpus = ClusteredCorpus(1000, 16, 20, 16);
  SignatureIndex index(SignatureIndexOptions{});
  index.Build(corpus);
  la::Matrix queries(8, 16);
  for (size_t q = 0; q < 8; ++q) queries.SetRow(q, corpus.Row(q * 111));
  const auto batch = index.QueryBatch(queries, 25);
  ASSERT_EQ(batch.size(), 8u);
  for (size_t q = 0; q < 8; ++q) {
    EXPECT_EQ(batch[q], index.Query(queries.Row(q), 25)) << "q=" << q;
  }
}

TEST(SignatureIndexTest, CandidatesAreAscendingOversampledSuperset) {
  const la::Matrix corpus = ClusteredCorpus(600, 12, 12, 17);
  SignatureIndexOptions options;
  options.candidate_factor = 4;
  SignatureIndex index(options);
  index.Build(corpus);
  const la::Vec query = corpus.Row(33);
  const auto candidates = index.Candidates(query, 10);
  EXPECT_EQ(candidates.size(), 40u);
  EXPECT_TRUE(std::is_sorted(candidates.begin(), candidates.end()));
  for (int id : index.Query(query, 10)) {
    EXPECT_TRUE(std::find(candidates.begin(), candidates.end(), id) !=
                candidates.end())
        << "result " << id << " missing from candidate superset";
  }
  // Full-depth requests keep the "every row" sentinel.
  EXPECT_TRUE(index.Candidates(query, 0).empty());
}

TEST(SignatureIndexTest, QueryWithCandidatesScansOnce) {
  const la::Matrix corpus = ClusteredCorpus(600, 12, 12, 17);
  SignatureIndex index(SignatureIndexOptions{});
  index.Build(corpus);
  const la::Vec query = corpus.Row(71);
  const std::vector<int> page = index.Query(query, 15);
  const std::vector<int> expected = index.Candidates(query, 15);
  index.ResetStats();
  std::vector<int> candidates = {-1};
  EXPECT_EQ(index.QueryWithCandidates(query, 15, &candidates), page);
  EXPECT_EQ(candidates, expected);
  EXPECT_EQ(index.stats().queries, 1u);
  EXPECT_EQ(index.stats().signatures_scanned, 600u);
  // Full-depth requests rank exhaustively and keep the "every row" set.
  EXPECT_EQ(index.QueryWithCandidates(query, 0, &candidates),
            index.Query(query, 0));
  EXPECT_TRUE(candidates.empty());
}

TEST(SignatureIndexTest, StatsCountScansAndReranks) {
  const la::Matrix corpus = ClusteredCorpus(400, 10, 8, 18);
  SignatureIndexOptions options;
  options.candidate_factor = 3;
  SignatureIndex index(options);
  index.Build(corpus);
  (void)index.Query(corpus.Row(0), 20);  // 60 candidates
  (void)index.Query(corpus.Row(1), 20);
  const IndexStats s = index.stats();
  EXPECT_EQ(s.queries, 2u);
  EXPECT_EQ(s.signatures_scanned, 800u);
  EXPECT_EQ(s.candidates_reranked, 120u);
  EXPECT_EQ(s.rows_scanned, 0u);
  EXPECT_GE(s.recall_proxy, 0.0);
  EXPECT_LE(s.recall_proxy, 1.0);
  index.ResetStats();
  EXPECT_EQ(index.stats().signatures_scanned, 0u);
}

TEST(SignatureIndexTest, RestoreSignaturesMatchesFreshBuild) {
  const la::Matrix corpus = ClusteredCorpus(600, 16, 12, 19);
  SignatureIndexOptions options;
  options.bits = 128;
  SignatureIndex built(options);
  built.Build(corpus);

  // Restoring a saved signature block must reproduce the built index
  // exactly: same packed words, same query answers, same candidate sets.
  SignatureIndex restored(options);
  restored.RestoreSignatures(corpus, built.signatures());
  EXPECT_EQ(restored.signatures(), built.signatures());
  EXPECT_EQ(restored.num_rows(), built.num_rows());
  for (int q = 0; q < 10; ++q) {
    const la::Vec query = corpus.Row(static_cast<size_t>(q * 37));
    EXPECT_EQ(restored.Query(query, 25), built.Query(query, 25)) << q;
    EXPECT_EQ(restored.Candidates(query, 25), built.Candidates(query, 25));
    EXPECT_EQ(restored.Encode(query), built.Encode(query));
  }
}

TEST(SignatureIndexDeathTest, RestoreRejectsWrongShape) {
  const la::Matrix corpus = ClusteredCorpus(100, 8, 5, 20);
  SignatureIndexOptions options;
  options.bits = 64;
  SignatureIndex index(options);
  EXPECT_DEATH(
      index.RestoreSignatures(corpus, std::vector<uint64_t>(3, 0)),
      "RestoreSignatures");
}

}  // namespace
}  // namespace cbir::retrieval

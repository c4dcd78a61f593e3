// Micro-benchmarks for corpus ranking: Euclidean distance scans and
// score-based top-K selection at several corpus sizes.
#include <benchmark/benchmark.h>

#include "retrieval/ranker.h"
#include "smoke.h"
#include "util/rng.h"

namespace {

using namespace cbir;

la::Matrix RandomCorpus(size_t n, size_t dims, uint64_t seed) {
  Rng rng(seed);
  la::Matrix m(n, dims);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < dims; ++c) m.At(r, c) = rng.Gaussian();
  }
  return m;
}

void BM_EuclideanFullRank(benchmark::State& state) {
  const la::Matrix corpus =
      RandomCorpus(static_cast<size_t>(state.range(0)), 36, 1);
  const la::Vec query = corpus.Row(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(retrieval::RankByEuclidean(corpus, query));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EuclideanFullRank)->Arg(1000)->Arg(5000)->Arg(20000);

void BM_EuclideanTopK(benchmark::State& state) {
  const la::Matrix corpus = RandomCorpus(20000, 36, 2);
  const la::Vec query = corpus.Row(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(retrieval::RankByEuclidean(
        corpus, query, static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_EuclideanTopK)->Arg(20)->Arg(100)->Arg(1000);

void BM_EuclideanTopKLargeCorpus(benchmark::State& state) {
  // Million-image corpus scan + top-20: the production-scale retrieval path
  // (parallel blocked distance scan, nth_element selection).
  const la::Matrix corpus =
      RandomCorpus(static_cast<size_t>(state.range(0)), 36, 5);
  const la::Vec query = corpus.Row(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(retrieval::RankByEuclidean(corpus, query, 20));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
void LargeCorpusArgs(benchmark::internal::Benchmark* b) {
  for (long n : cbir_bench::SmokeSizes({100000, 1000000})) b->Arg(n);
}
BENCHMARK(BM_EuclideanTopKLargeCorpus)->Apply(LargeCorpusArgs);

void BM_DistanceScan(benchmark::State& state) {
  const la::Matrix corpus =
      RandomCorpus(static_cast<size_t>(state.range(0)), 36, 3);
  const la::Vec query = corpus.Row(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(retrieval::AllSquaredDistances(corpus, query));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DistanceScan)->Arg(1000)->Arg(5000)->Arg(20000);

// Args: rows n, positions kept k (0 = the full sort). /2000/101 is a
// scheme's final ranking on the paper's 2000-image corpus read to scope 100.
void BM_ScoreRankWithTiebreak(benchmark::State& state) {
  Rng rng(4);
  const size_t n = static_cast<size_t>(state.range(0));
  const int k = state.range(1) > 0 ? static_cast<int>(state.range(1)) : -1;
  std::vector<double> scores(n), dists(n);
  for (size_t i = 0; i < n; ++i) {
    scores[i] = rng.Gaussian();
    dists[i] = rng.Uniform();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(retrieval::RankByScoreDesc(scores, dists, k));
  }
}
BENCHMARK(BM_ScoreRankWithTiebreak)
    ->Args({1000, 0})
    ->Args({5000, 0})
    ->Args({2000, 0})
    ->Args({2000, 101});

}  // namespace

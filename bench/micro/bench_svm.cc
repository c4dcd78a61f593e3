// Micro-benchmarks for the SMO solver: scaling in training-set size, C and
// kernel type, plus before/after comparisons for the training-core
// optimizations (shrinking, warm-starting). Every timed Train builds the
// training set's Gram and solves on it. Relevance feedback solves many
// small QPs per query, so the n <= 100 region is the one that matters; the
// larger sizes exercise shrinking.
#include <benchmark/benchmark.h>

#include "svm/decision_lanes.h"
#include "svm/trainer.h"
#include "util/rng.h"

namespace {

using namespace cbir;

struct Problem {
  la::Matrix data;
  std::vector<double> labels;
};

Problem MakeProblem(size_t n, size_t dims, double gap, uint64_t seed) {
  Rng rng(seed);
  Problem p;
  p.data = la::Matrix(n, dims);
  p.labels.resize(n);
  for (size_t i = 0; i < n; ++i) {
    p.labels[i] = (i % 2 == 0) ? 1.0 : -1.0;
    for (size_t d = 0; d < dims; ++d) {
      p.data.At(i, d) = rng.Gaussian() + 0.5 * gap * p.labels[i];
    }
  }
  return p;
}

// Reports the solver's iterations as a bench counter so before/after runs
// can be compared on work done, not just wall time.
void ReportSolveCounters(benchmark::State& state,
                         const svm::TrainOutput& out) {
  state.counters["iters"] = static_cast<double>(out.iterations);
}

void BM_SmoSolveRbf(benchmark::State& state) {
  const Problem p = MakeProblem(static_cast<size_t>(state.range(0)), 36,
                                1.0, 11);
  svm::TrainOptions options;
  options.kernel = svm::KernelParams::Rbf(1.0 / 36.0);
  options.c = 10.0;
  const svm::SvmTrainer trainer(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trainer.Train(p.data, p.labels));
  }
  state.SetItemsProcessed(state.iterations());
  ReportSolveCounters(state, trainer.Train(p.data, p.labels).value());
}
BENCHMARK(BM_SmoSolveRbf)->Arg(20)->Arg(40)->Arg(100)->Arg(200);

void BM_SmoSolveLinear(benchmark::State& state) {
  const Problem p = MakeProblem(static_cast<size_t>(state.range(0)), 36,
                                2.0, 13);
  svm::TrainOptions options;
  options.kernel = svm::KernelParams::Linear();
  options.c = 10.0;
  const svm::SvmTrainer trainer(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trainer.Train(p.data, p.labels));
  }
}
BENCHMARK(BM_SmoSolveLinear)->Arg(20)->Arg(100);

void BM_SmoSolveByC(benchmark::State& state) {
  const Problem p = MakeProblem(40, 36, 0.5, 17);  // overlapping classes
  svm::TrainOptions options;
  options.kernel = svm::KernelParams::Rbf(1.0 / 36.0);
  options.c = static_cast<double>(state.range(0));
  const svm::SvmTrainer trainer(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trainer.Train(p.data, p.labels));
  }
}
BENCHMARK(BM_SmoSolveByC)->Arg(1)->Arg(10)->Arg(100);

// Shrinking on/off on a heavily overlapping problem (range(1) toggles).
// Shrinking pays when iterations >> n: many examples saturate at C early
// and every gradient/selection pass over them is wasted work.
void BM_SmoSolveShrinking(benchmark::State& state) {
  const Problem p = MakeProblem(static_cast<size_t>(state.range(0)), 2,
                                0.2, 29);
  svm::TrainOptions options;
  options.kernel = svm::KernelParams::Rbf(0.5);
  options.c = 1000.0;
  options.smo.shrinking = state.range(1) != 0;
  const svm::SvmTrainer trainer(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trainer.Train(p.data, p.labels));
  }
  ReportSolveCounters(state, trainer.Train(p.data, p.labels).value());
}
BENCHMARK(BM_SmoSolveShrinking)
    ->Args({200, 0})
    ->Args({200, 1})
    ->Args({500, 0})
    ->Args({500, 1});

// Multi-round relevance-feedback simulation: each round adds `step` newly
// judged samples. range(1) == 1 carries alphas across rounds (warm start),
// 0 re-solves from scratch — the before/after pair for the feedback loop.
void BM_SmoFeedbackRounds(benchmark::State& state) {
  constexpr int kRounds = 5;
  const size_t step = 20;
  const Problem full = MakeProblem(step * kRounds, 36, 0.8, 37);
  svm::TrainOptions options;
  options.kernel = svm::KernelParams::Rbf(1.0 / 36.0);
  options.c = 10.0;
  const bool warm = state.range(1) != 0;
  long total_iters = 0;
  for (auto _ : state) {
    std::vector<double> carried;
    for (int r = 1; r <= kRounds; ++r) {
      const size_t n = step * static_cast<size_t>(r);
      la::Matrix data(n, 36);
      for (size_t i = 0; i < n; ++i) data.SetRow(i, full.data.Row(i));
      std::vector<double> labels(full.labels.begin(),
                                 full.labels.begin() + static_cast<long>(n));
      svm::TrainOptions round_options = options;
      if (warm) {
        round_options.smo.initial_alpha = carried;
        round_options.smo.initial_alpha.resize(n, 0.0);
      }
      const svm::SvmTrainer trainer(round_options);
      auto out = trainer.Train(data, labels);
      benchmark::DoNotOptimize(out);
      total_iters += out.value().iterations;
      if (warm) carried = std::move(out.value().alpha);
    }
  }
  state.counters["iters_per_session"] =
      static_cast<double>(total_iters) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_SmoFeedbackRounds)->Args({0, 0})->Args({0, 1});

// Scores a trained model over a corpus batch column by column, the way a
// feedback round ranks its scan space: each support vector's kernel column
// is computed over the batch and summed into the decision lanes
// (single-threaded; core::KernelColumnStore fans corpus-sized batches out).
void BM_DecisionColumns(benchmark::State& state) {
  const Problem train = MakeProblem(40, 36, 1.0, 19);
  svm::TrainOptions options;
  options.kernel = svm::KernelParams::Rbf(1.0 / 36.0);
  const svm::SvmTrainer trainer(options);
  const svm::SvmModel model = trainer.Train(train.data, train.labels)->model;
  const Problem corpus =
      MakeProblem(static_cast<size_t>(state.range(0)), 36, 1.0, 23);
  const size_t rows = corpus.data.rows();
  std::vector<double> column(rows);
  std::vector<double> scores(rows);
  for (auto _ : state) {
    svm::DecisionLanes lanes(0, rows, model.num_support_vectors());
    for (size_t s = 0; s < model.num_support_vectors(); ++s) {
      svm::EvalKernelRowBatch(model.kernel(), corpus.data,
                              model.support_vectors().RowPtr(s),
                              column.data(), 0, rows);
      lanes.Add(model.coefficients()[s], column.data());
    }
    lanes.Finish(model.bias(), scores.data());
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DecisionColumns)->Arg(328)->Arg(1000)->Arg(5000)->Arg(20000);

}  // namespace

// Micro-benchmarks for the SMO solver: scaling in training-set size, C and
// kernel type, plus a before/after comparison for warm-starting. Every
// timed Train builds the training set's Gram, solves on it and builds the
// model, as each solve of a coupled-SVM chain does. Relevance feedback
// solves many small QPs per query, so the n <= 100 region is the one that
// matters; the larger sizes record what a hard, iteration-heavy QP costs.
#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "svm/decision_lanes.h"
#include "svm/gram.h"
#include "svm/model.h"
#include "svm/smo_solver.h"
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

struct Trained {
  svm::SmoSolution solution;
  svm::SvmModel model;
};

// Trains `p` at uniform C: the Gram of its rows, one SMO solve from
// `initial_alpha` (empty = cold start) and the model of the solve.
Trained Train(const Problem& p, const svm::KernelParams& kernel, double c,
              std::vector<double> initial_alpha = {}) {
  const svm::Gram gram = svm::Gram::Of(p.data, kernel).value();
  svm::SmoSolution solution =
      svm::SmoSolver(gram, p.labels, std::vector<double>(p.labels.size(), c),
                     std::move(initial_alpha))
          .Solve()
          .value();
  svm::SvmModel model =
      svm::BuildModel(kernel, p.data, p.labels, solution.alpha, solution.bias);
  return {std::move(solution), std::move(model)};
}

// Reports the solver's iterations as a bench counter so before/after runs
// can be compared on work done, not just wall time.
void ReportSolveCounters(benchmark::State& state, const Trained& out) {
  state.counters["iters"] = static_cast<double>(out.solution.iterations);
}

void BM_SmoSolveRbf(benchmark::State& state) {
  const Problem p = MakeProblem(static_cast<size_t>(state.range(0)), 36,
                                1.0, 11);
  const svm::KernelParams kernel = svm::KernelParams::Rbf(1.0 / 36.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Train(p, kernel, 10.0));
  }
  state.SetItemsProcessed(state.iterations());
  ReportSolveCounters(state, Train(p, kernel, 10.0));
}
BENCHMARK(BM_SmoSolveRbf)->Arg(20)->Arg(40)->Arg(100)->Arg(200);

void BM_SmoSolveLinear(benchmark::State& state) {
  const Problem p = MakeProblem(static_cast<size_t>(state.range(0)), 36,
                                2.0, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Train(p, svm::KernelParams::Linear(), 10.0));
  }
}
BENCHMARK(BM_SmoSolveLinear)->Arg(20)->Arg(100);

void BM_SmoSolveByC(benchmark::State& state) {
  const Problem p = MakeProblem(40, 36, 0.5, 17);  // overlapping classes
  const svm::KernelParams kernel = svm::KernelParams::Rbf(1.0 / 36.0);
  const double c = static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Train(p, kernel, c));
  }
}
BENCHMARK(BM_SmoSolveByC)->Arg(1)->Arg(10)->Arg(100);

// A heavily overlapping problem at a large C: iterations >> n, and many
// examples saturate at C early, the shape LIBSVM's shrinking is built for.
// This solver scans every example on every iteration.
void BM_SmoSolveHard(benchmark::State& state) {
  const Problem p = MakeProblem(static_cast<size_t>(state.range(0)), 2,
                                0.2, 29);
  const svm::KernelParams kernel = svm::KernelParams::Rbf(0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Train(p, kernel, 1000.0));
  }
  ReportSolveCounters(state, Train(p, kernel, 1000.0));
}
BENCHMARK(BM_SmoSolveHard)->Arg(200)->Arg(500);

// Multi-round relevance-feedback simulation: each round adds `step` newly
// judged samples. range(1) == 1 carries alphas across rounds (warm start),
// 0 re-solves from scratch — the before/after pair for the feedback loop.
void BM_SmoFeedbackRounds(benchmark::State& state) {
  constexpr int kRounds = 5;
  const size_t step = 20;
  const Problem full = MakeProblem(step * kRounds, 36, 0.8, 37);
  const svm::KernelParams kernel = svm::KernelParams::Rbf(1.0 / 36.0);
  const bool warm = state.range(1) != 0;
  long total_iters = 0;
  for (auto _ : state) {
    std::vector<double> carried;
    for (int r = 1; r <= kRounds; ++r) {
      const size_t n = step * static_cast<size_t>(r);
      Problem round;
      round.data = la::Matrix(n, 36);
      for (size_t i = 0; i < n; ++i) round.data.SetRow(i, full.data.Row(i));
      round.labels.assign(full.labels.begin(),
                          full.labels.begin() + static_cast<long>(n));
      if (warm) carried.resize(n, 0.0);
      Trained out = Train(round, kernel, 10.0, std::move(carried));
      benchmark::DoNotOptimize(out);
      total_iters += out.solution.iterations;
      carried = warm ? std::move(out.solution.alpha) : std::vector<double>();
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
  const svm::SvmModel model =
      Train(train, svm::KernelParams::Rbf(1.0 / 36.0), 1.0).model;
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

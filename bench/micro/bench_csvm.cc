// Micro-benchmarks for the coupled SVM: alternating-optimization cost as a
// function of the unlabeled-sample count N' and the rho annealing schedule,
// the before/after levels of warm-start carry-over across feedback rounds,
// and the pick of the N' pseudo-labeled images from a round's candidates.
#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "core/multi_coupled_svm.h"
#include "core/unlabeled_selection.h"
#include "util/rng.h"

namespace {

using namespace cbir;

// One two-modality (K = 2) problem: visual rows (36-d) and log rows (150-d),
// labeled rows first.
struct BenchData {
  la::Matrix visual;
  la::Matrix log;
  std::vector<double> labels;
  std::vector<double> initial_unlabeled_labels;
  std::vector<double> initial_visual_alpha;  ///< empty = cold start
  std::vector<double> initial_log_alpha;
};

BenchData MakeData(size_t nl, size_t nu, uint64_t seed) {
  Rng rng(seed);
  BenchData data;
  data.visual = la::Matrix(nl + nu, 36);
  data.log = la::Matrix(nl + nu, 150);
  for (size_t i = 0; i < nl + nu; ++i) {
    const double y = (i % 2 == 0) ? 1.0 : -1.0;
    for (size_t d = 0; d < 36; ++d) {
      data.visual.At(i, d) = rng.Gaussian() + 0.4 * y;
    }
    // Sparse ternary log vector with a class-correlated pattern.
    for (size_t d = 0; d < 150; ++d) {
      if (rng.Bernoulli(0.05)) {
        data.log.At(i, d) = rng.Bernoulli(0.8) ? y : -y;
      }
    }
    if (i < nl) {
      data.labels.push_back(y);
    } else {
      data.initial_unlabeled_labels.push_back(y);
    }
  }
  return data;
}

// Visual then log modality, each with the default C and an RBF kernel at
// the LIBSVM default gamma for its dimension.
std::vector<core::ModalityView> Views(const BenchData& data) {
  std::vector<core::ModalityView> views(2);
  views[0].data = &data.visual;
  views[0].kernel = svm::KernelParams::Rbf(1.0 / 36.0);
  views[0].initial_alpha = &data.initial_visual_alpha;
  views[1].data = &data.log;
  views[1].kernel = svm::KernelParams::Rbf(1.0 / 150.0);
  views[1].initial_alpha = &data.initial_log_alpha;
  return views;
}

cbir::Result<core::MultiCoupledModel> Train(const core::MultiCoupledSvm& csvm,
                                            const BenchData& data) {
  return csvm.TrainViews(Views(data), data.labels,
                         data.initial_unlabeled_labels);
}

void BM_CoupledTrainByNPrime(benchmark::State& state) {
  const BenchData data = MakeData(20, static_cast<size_t>(state.range(0)), 3);
  const core::MultiCoupledSvm csvm({});
  for (auto _ : state) {
    benchmark::DoNotOptimize(Train(csvm, data));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoupledTrainByNPrime)->Arg(0)->Arg(10)->Arg(20)->Arg(40);

void BM_CoupledTrainByRhoInit(benchmark::State& state) {
  // Larger rho_init -> fewer annealing steps -> proportionally cheaper.
  const BenchData data = MakeData(20, 20, 5);
  core::MultiCsvmOptions options;
  options.rho = 1.0;  // fixed final weight so the step count is the knob
  options.rho_init = 1.0 / static_cast<double>(state.range(0));
  const core::MultiCoupledSvm csvm(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Train(csvm, data));
  }
}
BENCHMARK(BM_CoupledTrainByRhoInit)->Arg(2)->Arg(64)->Arg(10000);

// Multi-round coupled-SVM feedback simulation: round r trains on r * 10
// labeled samples plus a fixed unlabeled pool. range(0) selects the
// carry-over level: 0 = cold rounds; 1 = warm-start every round from the
// previous round's duals (alphas aligned by sample, new samples entering at
// zero) — the cross-round path LRF-CSVM serving uses. This is the
// end-to-end pattern of a live relevance-feedback session.
void BM_CoupledFeedbackSession(benchmark::State& state) {
  constexpr int kRounds = 4;
  const size_t step = 10;
  const size_t nu = 20;
  const BenchData full = MakeData(step * kRounds, nu, 9);
  const core::MultiCoupledSvm csvm({});
  const bool warm = state.range(0) >= 1;
  long total_smo_iters = 0;
  for (auto _ : state) {
    std::vector<double> carried_visual, carried_log;
    for (int r = 1; r <= kRounds; ++r) {
      const size_t nl = step * static_cast<size_t>(r);
      BenchData data;
      data.visual = la::Matrix(nl + nu, 36);
      data.log = la::Matrix(nl + nu, 150);
      data.labels.assign(full.labels.begin(),
                         full.labels.begin() + static_cast<long>(nl));
      data.initial_unlabeled_labels = full.initial_unlabeled_labels;
      for (size_t i = 0; i < nl; ++i) {
        data.visual.SetRow(i, full.visual.Row(i));
        data.log.SetRow(i, full.log.Row(i));
      }
      const size_t full_nl = step * kRounds;
      for (size_t j = 0; j < nu; ++j) {
        data.visual.SetRow(nl + j, full.visual.Row(full_nl + j));
        data.log.SetRow(nl + j, full.log.Row(full_nl + j));
      }
      if (warm && !carried_visual.empty()) {
        // Labeled prefix + unlabeled suffix both carry over; the new
        // judgments of this round enter at zero.
        data.initial_visual_alpha.assign(nl + nu, 0.0);
        data.initial_log_alpha.assign(nl + nu, 0.0);
        const size_t prev_nl = nl - step;
        for (size_t i = 0; i < prev_nl; ++i) {
          data.initial_visual_alpha[i] = carried_visual[i];
          data.initial_log_alpha[i] = carried_log[i];
        }
        for (size_t j = 0; j < nu; ++j) {
          data.initial_visual_alpha[nl + j] = carried_visual[prev_nl + j];
          data.initial_log_alpha[nl + j] = carried_log[prev_nl + j];
        }
      }
      cbir::Result<core::MultiCoupledModel> model = Train(csvm, data);
      benchmark::DoNotOptimize(model);
      total_smo_iters += model.value().diagnostics.total_smo_iterations;
      if (warm) {
        carried_visual = std::move(model.value().alphas[0]);
        carried_log = std::move(model.value().alphas[1]);
      }
    }
  }
  state.counters["smo_iters_per_session"] =
      static_cast<double>(total_smo_iters) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_CoupledFeedbackSession)->Arg(0)->Arg(1);

void BM_CoupledDecision(benchmark::State& state) {
  const BenchData data = MakeData(20, 20, 7);
  const auto model = Train(core::MultiCoupledSvm({}), data);
  const std::vector<la::Vec> sample = {data.visual.Row(0), data.log.Row(0)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.value().Decision(sample));
  }
}
BENCHMARK(BM_CoupledDecision);

// Most-similar selection of N' = 20 from range(0) candidates: 328 is
// csvm_local's candidate pool, 1980 a paper_table1 query's unjudged images.
void BM_SelectUnlabeled(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(11);
  core::SelectionInputs inputs;
  inputs.candidate_ids.resize(n);
  for (size_t i = 0; i < n; ++i) inputs.candidate_ids[i] = static_cast<int>(i);
  rng.Shuffle(&inputs.candidate_ids);
  for (size_t i = 0; i < n; ++i) {
    inputs.similarity_to_positives.push_back(rng.Uniform());
    inputs.similarity_to_negatives.push_back(rng.Uniform());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::SelectUnlabeled(
        core::SelectionStrategy::kMostSimilar, inputs, 20, 1));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SelectUnlabeled)->Arg(328)->Arg(1980);

}  // namespace

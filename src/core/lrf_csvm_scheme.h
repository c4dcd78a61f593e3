#ifndef CBIR_CORE_LRF_CSVM_SCHEME_H_
#define CBIR_CORE_LRF_CSVM_SCHEME_H_

#include "core/feedback_scheme.h"
#include "core/multi_coupled_svm.h"
#include "core/unlabeled_selection.h"
#include "util/sync.h"

namespace cbir::core {

/// \brief Options for the full LRF-CSVM algorithm (paper Fig. 1).
struct LrfCsvmOptions {
  /// Number of unlabeled samples N' engaged in the coupled training.
  int n_prime = 20;
  /// Default: the Section 6.5 "closest to the labeled samples" strategy;
  /// kMaxMin is Fig. 1's literal pseudo-code (compared by
  /// `experiment_driver --preset=ablation-selection`).
  SelectionStrategy selection = SelectionStrategy::kMostSimilar;
  /// Weight of the log-side kernel similarity when scoring closeness to
  /// labeled samples for kMostSimilar. Values > 1 prioritize log-confirmed
  /// (co-marked) candidates, whose pseudo-labels are the most precise
  /// information the feedback log offers.
  double selection_log_weight = 2.0;
  /// Coupled-SVM hyper-parameters. Its `smo` is replaced by the scheme
  /// options' solver settings, which also supply each modality's C and
  /// kernel.
  MultiCsvmOptions csvm;
  /// Seed for stochastic selection strategies (kRandom).
  uint64_t selection_seed = 1;
};

/// \brief LRF-CSVM — the paper's contribution (Algorithm in Fig. 1).
///
/// 1. Train plain SVMs on the labeled visual features and labeled log
///    vectors; compute the combined distance f_w(x_i) + f_u(r_i) for every
///    unlabeled image.
/// 2. Select N'/2 samples with maximal and N'/2 with minimal combined
///    distance, pseudo-labeled +1 / -1.
/// 3. Train the coupled SVM with rho annealing and Delta-gated label
///    correction.
/// 4. Rank all images by CSVM_Dist(x_i, r_i) = f_w(x_i) + f_u(r_i).
class LrfCsvmScheme : public FeedbackScheme {
 public:
  LrfCsvmScheme(const SchemeOptions& scheme_options,
                const LrfCsvmOptions& options);

  std::string name() const override { return "LRF-CSVM"; }

  Result<std::vector<int>> Rank(const FeedbackContext& ctx) const override;

  /// Exposes the trained coupled model for the given context (used by tests
  /// and the feedback_session example to inspect diagnostics). models[0] and
  /// alphas[0] are the visual modality, models[1] and alphas[1] the log.
  Result<MultiCoupledModel> TrainForContext(const FeedbackContext& ctx) const;

  /// Diagnostics summed over every coupled training this scheme instance
  /// ran (all queries, all rounds) — counters sum, cache stats aggregate
  /// per modality. Thread-safe; the experiment driver prints this next to
  /// the index stats.
  CsvmDiagnostics AggregatedDiagnostics() const;

 private:
  SchemeOptions scheme_options_;
  LrfCsvmOptions options_;

  mutable util::Mutex diagnostics_mu_{util::LockRank::kScheme,
                                      "lrf_csvm_diagnostics"};
  mutable CsvmDiagnostics aggregated_diagnostics_
      CBIR_GUARDED_BY(diagnostics_mu_);
};

}  // namespace cbir::core

#endif  // CBIR_CORE_LRF_CSVM_SCHEME_H_

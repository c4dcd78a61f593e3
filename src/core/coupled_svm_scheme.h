#ifndef CBIR_CORE_COUPLED_SVM_SCHEME_H_
#define CBIR_CORE_COUPLED_SVM_SCHEME_H_

#include <string>
#include <vector>

#include "core/feedback_scheme.h"
#include "core/kernel_columns.h"
#include "core/multi_coupled_svm.h"
#include "core/unlabeled_selection.h"
#include "util/sync.h"

namespace cbir::core {

/// \brief Options for the full LRF-CSVM algorithm (paper Fig. 1): the
/// values the paper and the driver presets vary. The most-similar rule's
/// log weight (2) and kRandom's seed (1) are constants of the scheme.
struct LrfCsvmOptions {
  /// Number of unlabeled samples N' engaged in the coupled training.
  int n_prime = 20;
  /// Default: the Section 6.5 "closest to the labeled samples" strategy;
  /// kMaxMin is Fig. 1's literal pseudo-code (compared by
  /// `experiment_driver --preset=ablation-selection`).
  SelectionStrategy selection = SelectionStrategy::kMostSimilar;
  /// Coupled-SVM hyper-parameters; the scheme options supply each
  /// modality's C and kernel.
  MultiCsvmOptions csvm;
};

/// \brief The paper's three SVM schemes as one coupled SVM (Section 4.1)
/// over K modalities — [0] visual features, [1] user-log vectors — trained
/// on the N_l labels plus N' pseudo-labeled rows:
///  - RF-SVM: K = 1, N' = 0 (classical SVM relevance feedback);
///  - LRF-2SVMs: K = 2, N' = 0 (two independent SVMs, decisions summed);
///  - LRF-CSVM: K = 2, N' = LrfCsvmOptions::n_prime (the paper's Fig. 1).
///
/// One Rank() round:
/// 0. Hold every labeled image's kernel column over the scan space, per
///    modality, in the context's KernelColumnStore; steps 1 and 3 both
///    read them.
/// 1. When N' > 0, select N' unlabeled images and their starting
///    pseudo-labels. The default is Section 6.5's most-similar rule: the
///    images closest, by summed kernel similarity, to the labeled
///    positives (+1) and negatives (-1). Fig. 1's literal rule (kMaxMin)
///    instead trains labeled-only SVMs and takes the N'/2 maximal and N'/2
///    minimal summed decision values.
/// 2. Train the coupled SVM (rho annealing and Delta-gated label
///    correction; with N' = 0 this is one plain SVM solve per modality, and
///    every solve of a modality reads one svm::Gram). Each modality's first
///    solve starts from zero; each later one from its predecessor's duals.
/// 3. Rank every image by the summed decision, for K = 2 the paper's
///    CSVM_Dist(x_i, r_i) = f_w(x_i) + f_u(r_i), scored column by column:
///    held columns are read, pseudo-labeled support vectors' columns
///    streamed.
///
/// Column memory: N_l x scan size x 8 B per dense modality, and 12 B per
/// co-marked row for a dot-product log kernel, held on the context until
/// its next Prepare() or ReleaseKernelColumns(). Every scheme ranking the
/// context reads them, so RF-SVM, LRF-2SVMs and LRF-CSVM on one query
/// compute each labeled column once, and a session's next round computes
/// only its newly labeled images' columns (FeedbackSession releases a
/// corpus-wide scan's columns after each round). Nothing is kept in the
/// scheme, which several threads share.
///
/// Build through MakeScheme, which validates the options.
class CoupledSvmScheme : public FeedbackScheme {
 public:
  /// `use_log` selects K = 2; `options` must pass MakeScheme's checks.
  CoupledSvmScheme(std::string name, bool use_log,
                   const SchemeOptions& scheme_options,
                   const LrfCsvmOptions& options);

  std::string name() const override { return name_; }

  Result<std::vector<int>> Rank(const FeedbackContext& ctx) const override;

  /// Exposes the trained coupled model for the given context (used by tests
  /// and the feedback_session example to inspect diagnostics). models[k]
  /// and alphas[k] belong to modality k.
  Result<MultiCoupledModel> TrainForContext(const FeedbackContext& ctx) const;

  /// Diagnostics summed over every coupled training this scheme instance
  /// ran (all queries, all rounds). Thread-safe; the experiment driver
  /// prints LRF-CSVM's next to the index stats.
  CsvmDiagnostics AggregatedDiagnostics() const;

 private:
  /// Checks the context, binds its column store of every modality to this
  /// scheme's kernel and holds the labeled images' columns there.
  Status BindColumns(const FeedbackContext& ctx) const;

  /// Steps 1 and 2, after BindColumns; `row_ids` gets the image of every
  /// training row.
  Result<MultiCoupledModel> Train(const FeedbackContext& ctx,
                                  std::vector<int>* row_ids) const;

  /// Step 1 for N' > 0: picks the unlabeled rows and their pseudo-labels.
  Result<SelectionResult> SelectForContext(const FeedbackContext& ctx) const;

  std::string name_;
  /// Per-modality kernel and C; the training rows are per call.
  std::vector<ModalityView> modalities_;
  LrfCsvmOptions options_;

  mutable util::Mutex diagnostics_mu_{util::LockRank::kScheme,
                                      "scheme_diagnostics"};
  mutable CsvmDiagnostics aggregated_diagnostics_
      CBIR_GUARDED_BY(diagnostics_mu_);
};

}  // namespace cbir::core

#endif  // CBIR_CORE_COUPLED_SVM_SCHEME_H_

#ifndef CBIR_CORE_MULTI_COUPLED_SVM_H_
#define CBIR_CORE_MULTI_COUPLED_SVM_H_

#include <vector>

#include "la/matrix.h"
#include "svm/kernel.h"
#include "svm/model.h"
#include "util/result.h"

namespace cbir::core {

/// \brief Hyper-parameters of the coupled SVM (paper Eq. 1 and Fig. 1),
/// shared across modalities. Each modality's C and kernel live in its
/// ModalityView.
struct MultiCsvmOptions {
  /// Final regularization weight for unlabeled samples (their box bound is
  /// rho * C). The annealing starts at min(rho_init, rho), rho_init = 1e-4
  /// per Fig. 1, and doubles per outer iteration, mirroring transductive SVM
  /// scheduling.
  /// The paper leaves the final value open ("whether existing an optimal
  /// parameter ... is still an open question", Section 6.5); 0.08 is the
  /// value selected by `experiment_driver --preset=ablation-rho` across both
  /// dataset sizes — pseudo-labels are only ~2/3 accurate, so they get a
  /// fraction of a real label's authority.
  double rho = 0.08;
  double rho_init = 1e-4;
  /// Slack-sum threshold Delta: an unlabeled pseudo-label flips only when
  /// every modality penalizes it (xi' > 0 and eta' > 0 for K = 2) and the
  /// joint violation exceeds Delta. Controls "the degree of error" (Fig. 1).
  ///
  /// Default 2.0: for slacks in (0, 2), flipping changes the sample's joint
  /// hinge loss from xi + eta to (2 - xi) + (2 - eta), so a flip reduces the
  /// Section 4.2 objective exactly when xi + eta > 2. Delta = 2 therefore
  /// makes Fig. 1's rule coincide with the exact integer-program label
  /// update; smaller values admit loss-increasing flips that oscillate.
  double delta = 2.0;
  /// Cap on label-correction retraining rounds per outer iteration; Fig. 1's
  /// inner WHILE has no termination proof (the paper lists convergence as an
  /// open problem), so we bound it.
  int max_inner_iterations = 20;
  /// Keep the pseudo-label class ratio fixed during label correction by
  /// flipping violators in +/- pairs (strongest violations first), exactly
  /// as transductive SVM does (Joachims ICML'99 — the paper's reference
  /// [18], which Section 4.2 says the annealing imitates). Without this
  /// guard, a nearly-single-class labeled set lets the correction step
  /// relabel the entire pseudo-negative half positive and the decision
  /// function collapses. false = the literal Fig. 1 rule.
  bool enforce_class_balance = true;
};

/// \brief Convergence/behaviour report from one coupled training run.
struct CsvmDiagnostics {
  int outer_iterations = 0;     ///< rho-annealing steps
  int inner_iterations = 0;     ///< label-correction retraining rounds
  int total_flips = 0;          ///< pseudo-label flips across all rounds
  bool inner_cap_hit = false;   ///< true if any inner loop hit the cap
  double visual_objective = 0.0;  ///< modality 0's final dual objective
  double log_objective = 0.0;     ///< modality 1's; 0 when K = 1
  /// SMO iterations summed across every QP solve of the alternating
  /// optimization (all modalities); the cost driver warm-starting attacks.
  long total_smo_iterations = 0;

  /// Folds another run's diagnostics in (counters sum, objectives keep the
  /// other run's values); used to aggregate across many queries/rounds.
  void Accumulate(const CsvmDiagnostics& other) {
    outer_iterations += other.outer_iterations;
    inner_iterations += other.inner_iterations;
    total_flips += other.total_flips;
    inner_cap_hit = inner_cap_hit || other.inner_cap_hit;
    visual_objective = other.visual_objective;
    log_objective = other.log_objective;
    total_smo_iterations += other.total_smo_iterations;
  }
};

/// \brief One information modality in a multi-modal coupled problem. Borrows
/// the sample matrix and warm start, which must outlive the TrainViews
/// call.
struct ModalityView {
  /// Required. (N_l + N') x dims sample matrix; labeled rows first, in the
  /// shared sample order used by every modality.
  const la::Matrix* data = nullptr;
  svm::KernelParams kernel = svm::KernelParams::Rbf(1.0);
  /// Per-modality regularization C (the paper's C_w / C_u generalized).
  double c = 10.0;
  /// Optional warm start (null or empty = cold start, otherwise N_l + N'
  /// entries): this modality's dual variables from a previous round's
  /// model, zero for rows new this round.
  const std::vector<double>* initial_alpha = nullptr;
};

/// \brief Trained multi-modal coupled model: one SVM per modality plus the
/// final pseudo-labels. The coupled decision is the sum over modalities.
struct MultiCoupledModel {
  std::vector<svm::SvmModel> models;  ///< parallel to the input modalities
  /// Final pseudo-labels of the unlabeled samples (post label correction).
  std::vector<double> unlabeled_labels;
  /// Final dual variables of each modality's QP, in training-row order
  /// (parallel to the input modalities). Feed them back through
  /// ModalityView::initial_alpha (aligned by image, zero for new rows) to
  /// warm-start the next feedback round.
  std::vector<std::vector<double>> alphas;
  CsvmDiagnostics diagnostics;

  /// Sum of per-modality decision values; `samples[k]` is the test sample's
  /// representation in modality k. For LRF-CSVM (K = 2) this is the paper's
  /// CSVM_Dist: f_w(x) + f_u(r).
  double Decision(const std::vector<la::Vec>& samples) const;
};

/// \brief The coupled SVM for learning on data with K types of information
/// (paper Section 4.1); LRF-CSVM is the K = 2 case (visual features and
/// user-feedback log). Trains by the alternating optimization of
/// Section 4.2:
///
/// 1. With pseudo-labels fixed, solve the K weighted SVM QPs (labeled
///    samples bounded by c_k, unlabeled by rho* c_k).
/// 2. With the models fixed, update the pseudo-labels by Fig. 1's flip rule:
///    flip those that every modality rejects (all slacks > 0) with joint
///    violation above Delta, in class-balanced pairs by default.
/// 3. Anneal rho* <- min(2 rho*, rho); repeat until rho* reaches rho.
///
/// Deviation from Fig. 1: we run the final train/correct round at
/// rho* == rho inclusive, matching transductive-SVM practice; the literal
/// pseudo-code exits before ever training at rho.
class MultiCoupledSvm {
 public:
  /// `options` must pass Validate(); invalid options abort.
  explicit MultiCoupledSvm(const MultiCsvmOptions& options);

  /// InvalidArgument unless rho and rho_init are positive, delta is
  /// non-negative and max_inner_iterations is positive. Callers taking
  /// options from a request or command line check here first.
  static Status Validate(const MultiCsvmOptions& options);

  const MultiCsvmOptions& options() const { return options_; }

  /// `labels` are the N_l user labels; `initial_unlabeled_labels` the N'
  /// starting pseudo-labels. Every modality must have N_l + N' rows, at
  /// most svm::kMaxTrainingRows, and a positive C; violations return
  /// InvalidArgument. One svm::Gram per modality serves every QP of the
  /// chain. The referenced matrices/vectors must stay alive for the
  /// duration of the call.
  Result<MultiCoupledModel> TrainViews(
      const std::vector<ModalityView>& modalities,
      const std::vector<double>& labels,
      const std::vector<double>& initial_unlabeled_labels) const;

 private:
  MultiCsvmOptions options_;
};

}  // namespace cbir::core

#endif  // CBIR_CORE_MULTI_COUPLED_SVM_H_

#ifndef CBIR_CORE_UNLABELED_SELECTION_H_
#define CBIR_CORE_UNLABELED_SELECTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/result.h"

namespace cbir::core {

/// \brief Strategies for picking the N' unlabeled samples fed into the
/// coupled SVM (paper Section 5 / Fig. 1 step 1, discussed in Section 6.5).
enum class SelectionStrategy {
  /// The strategy the paper reports as successful (Section 6.5): "choose
  /// unlabeled images closest to the positive labeled images for half the
  /// samples, and those closest to the negative labeled images for the
  /// other half", measured by combined visual+log kernel similarity.
  /// Positive co-marks in the log make these pseudo-labels far more precise
  /// than decision-value extremes.
  kMostSimilar,
  /// Fig. 1's literal pseudo-code: N'/2 samples with maximal combined SVM
  /// decision (initialized +1) and N'/2 with minimal (initialized -1).
  kMaxMin,
  /// Active-learning style: samples closest to the decision boundary,
  /// initialized with the sign of the combined decision. The paper reports
  /// this "did not achieve promising improvements" — kept for the
  /// `experiment_driver --preset=ablation-selection` comparison.
  kBoundaryClosest,
  /// Uniformly random candidates, initialized with the distance sign.
  kRandom,
};

const char* SelectionStrategyToString(SelectionStrategy strategy);

/// Parses the SelectionStrategyToString spellings (the --selection flag).
Result<SelectionStrategy> ParseSelectionStrategy(const std::string& name);

/// \brief Per-candidate signals consumed by the selection strategies.
///
/// All vectors are parallel to `candidate_ids`. Strategies only read the
/// signals they need: kMostSimilar reads the similarity pair; the other
/// three read `combined_decisions`.
struct SelectionInputs {
  std::vector<int> candidate_ids;
  /// f_w(x_i) + f_u(r_i) from the step-1 labeled-only SVMs.
  std::vector<double> combined_decisions;
  /// Sum of combined kernel similarity to the labeled positive samples.
  std::vector<double> similarity_to_positives;
  /// Sum of combined kernel similarity to the labeled negative samples.
  std::vector<double> similarity_to_negatives;
};

/// \brief Chosen unlabeled samples plus their initial pseudo-labels Y'.
struct SelectionResult {
  std::vector<int> ids;
  std::vector<double> initial_labels;  ///< +1 / -1, parallel to ids
};

/// Selects up to `n_prime` samples (fewer when candidates run short).
/// `seed` only affects kRandom. Odd n_prime favors the positive half.
SelectionResult SelectUnlabeled(SelectionStrategy strategy,
                                const SelectionInputs& inputs, int n_prime,
                                uint64_t seed);

}  // namespace cbir::core

#endif  // CBIR_CORE_UNLABELED_SELECTION_H_

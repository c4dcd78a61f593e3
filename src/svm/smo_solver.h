#ifndef CBIR_SVM_SMO_SOLVER_H_
#define CBIR_SVM_SMO_SOLVER_H_

#include <vector>

#include "svm/gram.h"
#include "util/result.h"

namespace cbir::svm {

/// \brief Output of the SMO solver.
struct SmoSolution {
  std::vector<double> alpha;  ///< dual variables, 0 <= alpha_i <= C_i
  double bias = 0.0;          ///< b in f(x) = sum alpha_i y_i K(x_i,x) + b
  double objective = 0.0;     ///< dual objective 0.5 a'Qa - e'a
  long iterations = 0;
  bool converged = false;     ///< false when the iteration cap was hit
  /// Decision values f(x_i) on the training set, recovered from the final
  /// gradient for free (no O(n * n_sv) kernel re-evaluation).
  std::vector<double> train_decisions;
};

/// \brief Sequential Minimal Optimization for the C-SVC dual with
/// **per-sample box constraints**:
///
///   min_a  0.5 a'Qa - e'a
///   s.t.   y'a = 0,  0 <= a_i <= C_i,
///
/// where Q_ij = y_i y_j K(x_i, x_j). Per-sample C is the LIBSVM modification
/// the paper needs: the coupled SVM gives labeled samples bound C and
/// unlabeled (transductively labeled) samples bound rho*C.
///
/// Working-set selection is LIBSVM's second-order heuristic (WSS2): i is the
/// maximal violating index in I_up, j minimizes the quadratic gain estimate
/// among violating indices in I_low. Both scans cover all n examples, and
/// every gradient is updated after each step, so none is ever stale. The
/// solve stops at a maximal violation below 1e-3 (LIBSVM's epsilon) or after
/// max(10'000'000, 100 * n) iterations.
///
/// Every kernel value is read from the training set's Gram: the solves of
/// one coupled-SVM chain differ only in labels, C bounds and warm starts,
/// so they all read one matrix.
class SmoSolver {
 public:
  /// `gram` is the training set's kernel matrix and must outlive the
  /// solver; `labels` in {+1,-1}; `c_bounds` gives each sample's upper
  /// bound (> 0).
  ///
  /// `initial_alpha` is the warm start: empty for a cold start from zero,
  /// else one dual variable per sample. Values are clamped to [0, C_i] and
  /// projected back onto the equality constraint y'a = 0, so alphas carried
  /// over from a nearly identical problem (the previous relevance-feedback
  /// round, the previous rho-annealing step) are always usable: new
  /// examples enter at alpha 0, carried examples keep their values.
  SmoSolver(const Gram& gram, std::vector<double> labels,
            std::vector<double> c_bounds,
            std::vector<double> initial_alpha = {});

  /// Runs the optimization. Call it once per solver: the solution takes
  /// over the warm start's storage. Returns InvalidArgument for an empty
  /// training set; for labels, C bounds or a warm start whose size is not
  /// the Gram's n; for a label other than +-1; or for a non-positive C.
  /// Single-class data is allowed and yields all-alpha-at-bound solutions.
  Result<SmoSolution> Solve();

 private:
  bool IsUpperBound(size_t i) const { return alpha_[i] >= c_[i] - 1e-12; }
  bool IsLowerBound(size_t i) const { return alpha_[i] <= 1e-12; }
  /// Membership in I_up / I_low of the violating-pair framework: the sets of
  /// indices whose alpha may still move up / down the feasible direction.
  bool InUp(size_t t) const {
    return (y_[t] > 0 && !IsUpperBound(t)) || (y_[t] < 0 && !IsLowerBound(t));
  }
  bool InLow(size_t t) const {
    return (y_[t] > 0 && !IsLowerBound(t)) || (y_[t] < 0 && !IsUpperBound(t));
  }

  /// Initializes alpha (zero, or the clamped and projected warm start) and
  /// the matching gradient.
  Status InitializeState();

  /// Caches InUp(t) / InLow(t) for the working-set scans; called for every
  /// example after InitializeState and for i and j after each step.
  void RefreshBoundFlags(size_t t) {
    in_up_[t] = InUp(t);
    in_low_[t] = InLow(t);
  }

  /// Adds y_t * sum_s y_s a_s K_ts to every grad_[t], two support-vector
  /// rows per pass.
  void AccumulateSupportRows();

  /// Selects the (i, j) working pair; returns false at eps-optimality.
  bool SelectWorkingSet(size_t* out_i, size_t* out_j);

  double ComputeBias() const;
  double ComputeObjective() const;

  const Gram& gram_;
  std::vector<double> y_;
  std::vector<double> c_;
  size_t n_;

  std::vector<double> alpha_;   ///< the warm start until Solve() runs
  std::vector<double> grad_;    ///< grad_i = (Qa)_i - 1
  std::vector<unsigned char> in_up_;   ///< InUp(t), current with alpha_
  std::vector<unsigned char> in_low_;  ///< InLow(t), current with alpha_
};

}  // namespace cbir::svm

#endif  // CBIR_SVM_SMO_SOLVER_H_

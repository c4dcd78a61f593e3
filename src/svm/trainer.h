#ifndef CBIR_SVM_TRAINER_H_
#define CBIR_SVM_TRAINER_H_

#include <vector>

#include "la/matrix.h"
#include "svm/gram.h"
#include "svm/model.h"
#include "svm/smo_solver.h"
#include "util/result.h"

namespace cbir::svm {

/// \brief Training configuration.
struct TrainOptions {
  KernelParams kernel = KernelParams::Rbf(1.0);
  /// Default per-sample bound; overridden sample-by-sample via
  /// TrainWeighted's `c_bounds`.
  double c = 1.0;
  SmoOptions smo;
};

/// \brief A trained model plus per-sample training diagnostics.
struct TrainOutput {
  /// Empty after SolveWeighted; TrainWeighted builds it from alpha and bias.
  SvmModel model;
  double bias = 0.0;
  /// Decision values f(x_i) on the training set, in input order.
  std::vector<double> train_decisions;
  /// Hinge slacks xi_i = max(0, 1 - y_i f(x_i)), in input order. The
  /// coupled-SVM label-correction step reads these.
  std::vector<double> slacks;
  /// Full per-sample dual variables, in input order (zero for non-SVs).
  /// Callers feed these back through SmoOptions::initial_alpha to warm-start
  /// the next, nearly identical solve (next feedback round / rho step).
  std::vector<double> alpha;
  double objective = 0.0;
  long iterations = 0;
  bool converged = false;
};

/// \brief Trains binary C-SVC models with optional per-sample C bounds.
class SvmTrainer {
 public:
  explicit SvmTrainer(const TrainOptions& options = {});

  const TrainOptions& options() const { return options_; }

  /// Uniform-C training. `labels` in {+1, -1}; one row of `data` per sample.
  /// At most kMaxTrainingRows rows, else InvalidArgument.
  Result<TrainOutput> Train(const la::Matrix& data,
                            const std::vector<double>& labels) const;

  /// Per-sample-C training: the coupled SVM passes bound C for labeled and
  /// rho*C for unlabeled samples. Builds the Gram of `data` under
  /// options().kernel and solves on it.
  Result<TrainOutput> TrainWeighted(const la::Matrix& data,
                                    const std::vector<double>& labels,
                                    const std::vector<double>& c_bounds) const;

  /// TrainWeighted on a Gram the caller holds, without the model: duals,
  /// bias, slacks and decisions only. A chain of solves (the coupled SVM's
  /// rho annealing) reads one Gram and builds the model once, from its last
  /// solve, with BuildModel.
  Result<TrainOutput> SolveWeighted(const Gram& gram,
                                    const std::vector<double>& labels,
                                    const std::vector<double>& c_bounds) const;

 private:
  TrainOptions options_;
};

/// The model of a solve: the rows of `data` with alpha > 1e-12 as support
/// vectors, in row order, with coefficients alpha * label; the model's
/// support_rows() records which rows they are.
SvmModel BuildModel(const KernelParams& kernel, const la::Matrix& data,
                    const std::vector<double>& labels,
                    const std::vector<double>& alpha, double bias);

}  // namespace cbir::svm

#endif  // CBIR_SVM_TRAINER_H_

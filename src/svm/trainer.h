#ifndef CBIR_SVM_TRAINER_H_
#define CBIR_SVM_TRAINER_H_

#include <vector>

#include "la/matrix.h"
#include "svm/model.h"
#include "svm/smo_solver.h"
#include "util/result.h"

namespace cbir::svm {

/// \brief Training configuration.
///
/// `smo.shared_cache` is the trainer-level kernel-cache injection point:
/// when set, every solve launched through this trainer fetches kernel rows
/// from that caller-owned cache instead of building its own. The cache must
/// be bound (KernelCache ctor / Rebind) to the exact `data` matrix object
/// passed to Train/TrainWeighted with `kernel`-equal params, must outlive
/// the call, and must not be used by concurrent solves — see
/// SmoOptions::shared_cache for the full aliasing/lifetime rules.
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
  /// Kernel-cache counters from the underlying SMO solve. With an injected
  /// shared cache this is the solve's own traffic only (delta of the shared
  /// cache's lifetime counters).
  CacheStats cache_stats;
};

/// \brief Trains binary C-SVC models with optional per-sample C bounds.
class SvmTrainer {
 public:
  explicit SvmTrainer(const TrainOptions& options = {});

  const TrainOptions& options() const { return options_; }

  /// Uniform-C training. `labels` in {+1, -1}; one row of `data` per sample.
  Result<TrainOutput> Train(const la::Matrix& data,
                            const std::vector<double>& labels) const;

  /// Per-sample-C training: the coupled SVM passes bound C for labeled and
  /// rho*C for unlabeled samples.
  Result<TrainOutput> TrainWeighted(const la::Matrix& data,
                                    const std::vector<double>& labels,
                                    const std::vector<double>& c_bounds) const;

  /// TrainWeighted without the model: duals, bias, slacks and decisions
  /// only. A chain of solves (the coupled SVM's rho annealing) builds the
  /// model once, from its last solve, with BuildModel.
  Result<TrainOutput> SolveWeighted(const la::Matrix& data,
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

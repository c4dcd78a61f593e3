#include "svm/trainer.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace cbir::svm {

SvmTrainer::SvmTrainer(const TrainOptions& options) : options_(options) {
  CBIR_CHECK_GT(options_.c, 0.0);
}

Result<TrainOutput> SvmTrainer::Train(const la::Matrix& data,
                                      const std::vector<double>& labels) const {
  return TrainWeighted(data, labels,
                       std::vector<double>(labels.size(), options_.c));
}

Result<TrainOutput> SvmTrainer::TrainWeighted(
    const la::Matrix& data, const std::vector<double>& labels,
    const std::vector<double>& c_bounds) const {
  if (labels.size() != data.rows() || c_bounds.size() != data.rows()) {
    return Status::InvalidArgument("labels/c_bounds size mismatch");
  }
  CBIR_ASSIGN_OR_RETURN(const Gram gram, Gram::Of(data, options_.kernel));
  CBIR_ASSIGN_OR_RETURN(TrainOutput out,
                        SolveWeighted(gram, labels, c_bounds));
  out.model = BuildModel(options_.kernel, data, labels, out.alpha, out.bias);
  return out;
}

Result<TrainOutput> SvmTrainer::SolveWeighted(
    const Gram& gram, const std::vector<double>& labels,
    const std::vector<double>& c_bounds) const {
  const size_t n = gram.n();
  if (n == 0) {
    return Status::InvalidArgument("training set is empty");
  }
  if (labels.size() != n || c_bounds.size() != n) {
    return Status::InvalidArgument("labels/c_bounds size mismatch");
  }

  SmoSolver solver(gram, labels, c_bounds, options_.smo);
  CBIR_ASSIGN_OR_RETURN(SmoSolution sol, solver.Solve());

  TrainOutput out;
  out.bias = sol.bias;
  out.objective = sol.objective;
  out.iterations = sol.iterations;
  out.converged = sol.converged;

  // Training decisions come straight out of the solver's final gradient
  // instead of an O(n * n_sv * d) kernel re-evaluation pass.
  out.train_decisions = std::move(sol.train_decisions);
  out.slacks.resize(n);
  for (size_t i = 0; i < n; ++i) {
    out.slacks[i] = std::max(0.0, 1.0 - labels[i] * out.train_decisions[i]);
  }
  out.alpha = std::move(sol.alpha);
  return out;
}

SvmModel BuildModel(const KernelParams& kernel, const la::Matrix& data,
                    const std::vector<double>& labels,
                    const std::vector<double>& alpha, double bias) {
  CBIR_CHECK_EQ(alpha.size(), data.rows());
  CBIR_CHECK_EQ(labels.size(), data.rows());
  constexpr double kSvEps = 1e-12;
  size_t num_sv = 0;
  for (double a : alpha) {
    if (a > kSvEps) ++num_sv;
  }
  la::Matrix sv(num_sv, data.cols());
  std::vector<double> coeffs(num_sv);
  std::vector<size_t> rows(num_sv);
  size_t s = 0;
  for (size_t i = 0; i < data.rows(); ++i) {
    if (alpha[i] > kSvEps) {
      std::copy_n(data.RowPtr(i), data.cols(), sv.RowPtr(s));
      coeffs[s] = alpha[i] * labels[i];
      rows[s] = i;
      ++s;
    }
  }
  return SvmModel(kernel, std::move(sv), std::move(coeffs), bias,
                  std::move(rows));
}

}  // namespace cbir::svm

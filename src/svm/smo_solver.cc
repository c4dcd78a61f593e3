#include "svm/smo_solver.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace cbir::svm {

namespace {
constexpr double kTau = 1e-12;
/// KKT violation tolerance (LIBSVM's epsilon).
constexpr double kEps = 1e-3;

/// Registry series of the solver core (cached once, wait-free after that).
/// Summed over every solve in the process: the per-solve numbers stay on
/// SmoSolution, these answer "where does serving time go" in aggregate.
struct SolverMetrics {
  obs::Counter* solves;
  obs::Counter* iterations;
  obs::Counter* unconverged;
};

const SolverMetrics& Metrics() {
  static const SolverMetrics metrics = [] {
    obs::MetricsRegistry& r = obs::MetricsRegistry::Default();
    SolverMetrics m;
    m.solves = r.GetCounter("cbir_svm_solves_total");
    m.iterations = r.GetCounter("cbir_svm_iterations_total");
    m.unconverged = r.GetCounter("cbir_svm_unconverged_total");
    return m;
  }();
  return metrics;
}
}  // namespace

SmoSolver::SmoSolver(const Gram& gram, std::vector<double> labels,
                     std::vector<double> c_bounds,
                     std::vector<double> initial_alpha)
    : gram_(gram),
      y_(std::move(labels)),
      c_(std::move(c_bounds)),
      n_(y_.size()),
      alpha_(std::move(initial_alpha)) {}

Status SmoSolver::InitializeState() {
  grad_.assign(n_, -1.0);  // Q*0 - e

  if (alpha_.empty()) {
    alpha_.assign(n_, 0.0);
    return Status::OK();
  }
  if (alpha_.size() != n_) {
    return Status::InvalidArgument(
        "SMO: warm start size does not match training set");
  }

  // Clamp the warm start into the box, then repair the equality constraint.
  // The residual s = y'a can always be absorbed by shrinking alphas of the
  // matching label sign toward zero (their total is at least |s|).
  double residual = 0.0;
  bool any_positive = false;
  for (size_t t = 0; t < n_; ++t) {
    alpha_[t] = std::clamp(alpha_[t], 0.0, c_[t]);
    residual += y_[t] * alpha_[t];
    any_positive = any_positive || alpha_[t] > 0.0;
  }
  if (!any_positive) return Status::OK();
  for (size_t t = 0; t < n_ && std::abs(residual) > kTau; ++t) {
    if (y_[t] * residual <= 0.0) continue;
    const double take = std::min(alpha_[t], std::abs(residual));
    alpha_[t] -= take;
    residual -= y_[t] * take;
  }

  // grad_t = y_t * sum_s y_s a_s K_ts - 1, accumulated over the support
  // vectors of the warm start.
  AccumulateSupportRows();
  return Status::OK();
}

void SmoSolver::AccumulateSupportRows() {
  std::vector<size_t> svs;
  svs.reserve(n_);
  for (size_t s = 0; s < n_; ++s) {
    if (alpha_[s] > 0.0) svs.push_back(s);
  }
  size_t k = 0;
  for (; k + 2 <= svs.size(); k += 2) {
    const size_t s0 = svs[k];
    const size_t s1 = svs[k + 1];
    const double* K0 = gram_.RowPtr(s0);
    const double* K1 = gram_.RowPtr(s1);
    const double c0 = alpha_[s0] * y_[s0];
    const double c1 = alpha_[s1] * y_[s1];
    for (size_t t = 0; t < n_; ++t) {
      grad_[t] += y_[t] * (c0 * K0[t] + c1 * K1[t]);
    }
  }
  if (k < svs.size()) {
    const size_t s = svs[k];
    const double* Ks = gram_.RowPtr(s);
    const double coef = alpha_[s] * y_[s];
    for (size_t t = 0; t < n_; ++t) {
      grad_[t] += y_[t] * coef * Ks[t];
    }
  }
}

bool SmoSolver::SelectWorkingSet(size_t* out_i, size_t* out_j) {
  // i: maximize -y_t * grad_t over I_up.
  double gmax = -std::numeric_limits<double>::infinity();
  double gmin = std::numeric_limits<double>::infinity();
  size_t i = n_;
  for (size_t t = 0; t < n_; ++t) {
    if (in_up_[t]) {
      const double v = -y_[t] * grad_[t];
      if (v > gmax) {
        gmax = v;
        i = t;
      }
    }
  }
  if (i == n_) return false;

  const double* Ki = gram_.RowPtr(i);

  // j: second-order selection among violating I_low members.
  size_t j = n_;
  double best_gain = std::numeric_limits<double>::infinity();  // minimize
  for (size_t t = 0; t < n_; ++t) {
    if (!in_low_[t]) continue;
    const double v = -y_[t] * grad_[t];
    gmin = std::min(gmin, v);
    const double b_it = gmax - v;
    if (b_it <= 0.0) continue;  // not violating against i
    // Curvature along the feasible pair direction; the label signs cancel,
    // leaving ||phi(x_i) - phi(x_t)||^2 >= 0 for any Mercer kernel.
    double a_it = gram_.Diag(i) + gram_.Diag(t) - 2.0 * Ki[t];
    if (a_it <= 0.0) a_it = kTau;
    const double gain = -(b_it * b_it) / a_it;
    if (gain < best_gain) {
      best_gain = gain;
      j = t;
    }
  }

  if (j == n_ || gmax - gmin < kEps) return false;
  *out_i = i;
  *out_j = j;
  return true;
}

Result<SmoSolution> SmoSolver::Solve() {
  if (n_ == 0) return Status::InvalidArgument("SMO: empty training set");
  if (c_.size() != n_) {
    return Status::InvalidArgument("SMO: labels/c_bounds size mismatch");
  }
  for (size_t t = 0; t < n_; ++t) {
    if (y_[t] != 1.0 && y_[t] != -1.0) {
      return Status::InvalidArgument("SMO: labels must be +1 or -1");
    }
    if (c_[t] <= 0.0) {
      return Status::InvalidArgument("SMO: non-positive C bound");
    }
  }
  if (gram_.n() != n_) {
    return Status::InvalidArgument(
        "SMO: the Gram is not n x n for this training set");
  }
  CBIR_RETURN_NOT_OK(InitializeState());
  in_up_.resize(n_);
  in_low_.resize(n_);
  for (size_t t = 0; t < n_; ++t) RefreshBoundFlags(t);

  const long max_iter =
      std::max<long>(10'000'000, 100 * static_cast<long>(n_));

  SmoSolution sol;
  long iter = 0;
  while (iter < max_iter) {
    size_t i, j;
    if (!SelectWorkingSet(&i, &j)) {
      sol.converged = true;
      break;
    }
    ++iter;

    const double* Ki = gram_.RowPtr(i);
    const double* Kj = gram_.RowPtr(j);

    const double yi = y_[i], yj = y_[j];
    double a_ij = gram_.Diag(i) + gram_.Diag(j) - 2.0 * Ki[j];
    if (a_ij <= 0.0) a_ij = kTau;

    const double old_ai = alpha_[i];
    const double old_aj = alpha_[j];

    // Newton step along the feasible direction (LIBSVM update form).
    if (yi != yj) {
      const double delta = (-grad_[i] - grad_[j]) / a_ij;
      double diff = alpha_[i] - alpha_[j];
      alpha_[i] += delta;
      alpha_[j] += delta;
      if (diff > 0.0 && alpha_[j] < 0.0) {
        alpha_[j] = 0.0;
        alpha_[i] = diff;
      } else if (diff <= 0.0 && alpha_[i] < 0.0) {
        alpha_[i] = 0.0;
        alpha_[j] = -diff;
      }
      if (diff > c_[i] - c_[j] && alpha_[i] > c_[i]) {
        alpha_[i] = c_[i];
        alpha_[j] = c_[i] - diff;
      } else if (diff <= c_[i] - c_[j] && alpha_[j] > c_[j]) {
        alpha_[j] = c_[j];
        alpha_[i] = c_[j] + diff;
      }
    } else {
      const double delta = (grad_[i] - grad_[j]) / a_ij;
      double sum = alpha_[i] + alpha_[j];
      alpha_[i] -= delta;
      alpha_[j] += delta;
      if (sum > c_[i] && alpha_[i] > c_[i]) {
        alpha_[i] = c_[i];
        alpha_[j] = sum - c_[i];
      } else if (sum <= c_[i] && alpha_[j] < 0.0) {
        alpha_[j] = 0.0;
        alpha_[i] = sum;
      }
      if (sum > c_[j] && alpha_[j] > c_[j]) {
        alpha_[j] = c_[j];
        alpha_[i] = sum - c_[j];
      } else if (sum <= c_[j] && alpha_[i] < 0.0) {
        alpha_[i] = 0.0;
        alpha_[j] = sum;
      }
    }

    RefreshBoundFlags(i);
    RefreshBoundFlags(j);

    // Gradient maintenance: grad_t += Q_ti * dAi + Q_tj * dAj.
    const double d_ai = alpha_[i] - old_ai;
    const double d_aj = alpha_[j] - old_aj;
    if (d_ai == 0.0 && d_aj == 0.0) {
      // Numerically stuck pair; treat as converged to avoid spinning.
      sol.converged = true;
      break;
    }
    const double ci = yi * d_ai;
    const double cj = yj * d_aj;
    for (size_t t = 0; t < n_; ++t) {
      grad_[t] += y_[t] * (ci * Ki[t] + cj * Kj[t]);
    }
  }

  sol.bias = ComputeBias();
  sol.objective = ComputeObjective();
  sol.alpha = std::move(alpha_);
  sol.iterations = iter;
  // f(x_t) recovered from the gradient identity grad_t = y_t (f_t - b) - 1.
  sol.train_decisions.resize(n_);
  for (size_t t = 0; t < n_; ++t) {
    sol.train_decisions[t] = sol.bias + y_[t] * (grad_[t] + 1.0);
  }
  if (iter >= max_iter) {
    CBIR_LOG(Warning) << "SMO hit iteration cap (" << max_iter << ")";
    Metrics().unconverged->Increment();
  }
  Metrics().solves->Increment();
  Metrics().iterations->Increment(static_cast<uint64_t>(iter));
  // Attach this solve's work to the request being traced (if any): a
  // feedback round runs several coupled solves, so the counter accumulates
  // into a per-request total for the EXPLAIN profile.
  if (obs::RequestTrace* trace = obs::CurrentTrace(); trace != nullptr) {
    trace->AddCounter("smo_iterations", static_cast<int64_t>(iter));
  }
  return sol;
}

double SmoSolver::ComputeBias() const {
  // For free SVs, y_i f(x_i) = 1 => b = y_i - (Qa)_i * y_i ... expressed via
  // grad: (Qa)_i = grad_i + 1, and f(x_i) - b = y_i * (grad_i + 1) ... use
  // the LIBSVM identity: for free i, b = -y_i * grad_i ... derived from
  // y_i f(x_i) = 1 with f(x_i) = sum_t a_t y_t K_ti + b and
  // grad_i = y_i * (f(x_i) - b) - 1.
  double sum = 0.0;
  int free_count = 0;
  for (size_t t = 0; t < n_; ++t) {
    if (!IsLowerBound(t) && !IsUpperBound(t)) {
      sum += -y_[t] * grad_[t];
      ++free_count;
    }
  }
  if (free_count > 0) return sum / free_count;

  // No free SVs: midpoint of the feasible interval.
  double ub = std::numeric_limits<double>::infinity();
  double lb = -std::numeric_limits<double>::infinity();
  for (size_t t = 0; t < n_; ++t) {
    const double v = -y_[t] * grad_[t];
    if (InUp(t)) lb = std::max(lb, v);
    if (InLow(t)) ub = std::min(ub, v);
  }
  if (std::isinf(ub) && std::isinf(lb)) return 0.0;
  if (std::isinf(ub)) return lb;
  if (std::isinf(lb)) return ub;
  return (ub + lb) / 2.0;
}

double SmoSolver::ComputeObjective() const {
  double obj = 0.0;
  for (size_t t = 0; t < n_; ++t) {
    obj += alpha_[t] * (grad_[t] - 1.0);
  }
  return obj / 2.0;
}

}  // namespace cbir::svm

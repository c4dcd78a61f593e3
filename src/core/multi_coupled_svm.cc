#include "core/multi_coupled_svm.h"

#include <algorithm>

#include "svm/gram.h"
#include "svm/smo_solver.h"
#include "util/logging.h"

namespace cbir::core {

double MultiCoupledModel::Decision(const std::vector<la::Vec>& samples) const {
  CBIR_CHECK_EQ(samples.size(), models.size());
  double sum = 0.0;
  for (size_t k = 0; k < models.size(); ++k) {
    sum += models[k].Decision(samples[k]);
  }
  return sum;
}

MultiCoupledSvm::MultiCoupledSvm(const MultiCsvmOptions& options)
    : options_(options) {
  CBIR_CHECK_OK(Validate(options_));
}

Status MultiCoupledSvm::Validate(const MultiCsvmOptions& options) {
  // Negated comparisons so NaN fails too.
  if (!(options.rho > 0.0)) {
    return Status::InvalidArgument("coupled SVM: rho must be positive");
  }
  if (!(options.rho_init > 0.0)) {
    return Status::InvalidArgument("coupled SVM: rho_init must be positive");
  }
  if (!(options.delta >= 0.0)) {
    return Status::InvalidArgument("coupled SVM: delta must be non-negative");
  }
  if (options.max_inner_iterations <= 0) {
    return Status::InvalidArgument(
        "coupled SVM: max_inner_iterations must be positive");
  }
  return Status::OK();
}

Result<MultiCoupledModel> MultiCoupledSvm::TrainViews(
    const std::vector<ModalityView>& modalities,
    const std::vector<double>& labels,
    const std::vector<double>& initial_unlabeled_labels) const {
  if (modalities.empty()) {
    return Status::InvalidArgument("coupled SVM: no modalities");
  }
  const size_t nl = labels.size();
  const size_t nu = initial_unlabeled_labels.size();
  const size_t n = nl + nu;
  if (nl == 0) {
    return Status::InvalidArgument("coupled SVM: no labeled samples");
  }
  for (size_t k = 0; k < modalities.size(); ++k) {
    if (modalities[k].data == nullptr) {
      return Status::InvalidArgument("coupled SVM: modality " +
                                     std::to_string(k) + " has no data");
    }
    if (modalities[k].data->rows() != n) {
      return Status::InvalidArgument(
          "coupled SVM: modality " + std::to_string(k) +
          " must have N_l + N' rows");
    }
    if (modalities[k].c <= 0.0) {
      return Status::InvalidArgument("coupled SVM: non-positive C");
    }
  }

  std::vector<double> y(n);
  for (size_t i = 0; i < nl; ++i) y[i] = labels[i];
  for (size_t j = 0; j < nu; ++j) y[nl + j] = initial_unlabeled_labels[j];

  MultiCoupledModel model;
  CsvmDiagnostics& diag = model.diagnostics;
  const size_t num_modalities = modalities.size();
  // Each modality's last solve. Successive solves of one modality differ
  // only in rho_star or a few flipped pseudo-labels, so each starts from
  // its predecessor's alphas, which it takes over; the first starts from
  // zero (an empty alpha).
  std::vector<svm::SmoSolution> solutions(num_modalities);

  // One Gram per modality serves every QP of the chain: the kernel matrix
  // depends only on the rows and the kernel, both constant here; the
  // chain's solves differ only in labels, C bounds and warm starts.
  std::vector<svm::Gram> grams(num_modalities);
  for (size_t k = 0; k < num_modalities; ++k) {
    CBIR_ASSIGN_OR_RETURN(
        grams[k], svm::Gram::Of(*modalities[k].data, modalities[k].kernel));
  }

  auto solve_all = [&](double rho_star) -> Status {
    for (size_t k = 0; k < num_modalities; ++k) {
      std::vector<double> c_bounds(n);
      for (size_t i = 0; i < n; ++i) {
        c_bounds[i] = (i < nl ? 1.0 : rho_star) * modalities[k].c;
      }
      svm::SmoSolver solver(grams[k], y, std::move(c_bounds),
                            std::move(solutions[k].alpha));
      CBIR_ASSIGN_OR_RETURN(solutions[k], solver.Solve());
      diag.total_smo_iterations += solutions[k].iterations;
    }
    return Status::OK();
  };

  // With no unlabeled rows there is nothing to anneal: one solve per
  // modality at rho (RF-SVM and LRF-2SVMs train this way).
  double rho_star =
      nu == 0 ? options_.rho : std::min(options_.rho_init, options_.rho);
  while (true) {
    ++diag.outer_iterations;
    CBIR_RETURN_NOT_OK(solve_all(rho_star));

    for (int inner = 0; inner < options_.max_inner_iterations; ++inner) {
      // A pseudo-label is a flip candidate only when EVERY modality
      // penalizes it (the K-modality generalization of Fig. 1's
      // "xi' > 0 AND eta' > 0") and the total violation exceeds Delta.
      // A slack is the hinge loss max(0, 1 - y f) of the last solve.
      std::vector<std::pair<double, size_t>> pos_violators, neg_violators;
      for (size_t j = 0; j < nu; ++j) {
        double total = 0.0;
        bool all_positive = true;
        for (const svm::SmoSolution& sol : solutions) {
          const double slack =
              std::max(0.0, 1.0 - y[nl + j] * sol.train_decisions[nl + j]);
          if (slack <= 0.0) {
            all_positive = false;
            break;
          }
          total += slack;
        }
        if (all_positive && total > options_.delta) {
          (y[nl + j] > 0 ? pos_violators : neg_violators)
              .emplace_back(total, nl + j);
        }
      }
      // A flipped sample's carried duals belong to the other class now;
      // restart them from zero so the warm start stays meaningful.
      const auto flip_sample = [&](size_t idx) {
        y[idx] = -y[idx];
        for (svm::SmoSolution& sol : solutions) sol.alpha[idx] = 0.0;
      };
      int flips = 0;
      if (options_.enforce_class_balance) {
        std::sort(pos_violators.rbegin(), pos_violators.rend());
        std::sort(neg_violators.rbegin(), neg_violators.rend());
        const size_t swaps =
            std::min(pos_violators.size(), neg_violators.size());
        for (size_t s = 0; s < swaps; ++s) {
          flip_sample(pos_violators[s].second);
          flip_sample(neg_violators[s].second);
          flips += 2;
        }
      } else {
        for (const auto& [violation, idx] : pos_violators) {
          flip_sample(idx);
          ++flips;
        }
        for (const auto& [violation, idx] : neg_violators) {
          flip_sample(idx);
          ++flips;
        }
      }
      if (flips == 0) break;
      diag.total_flips += flips;
      ++diag.inner_iterations;
      if (inner + 1 >= options_.max_inner_iterations) {
        diag.inner_cap_hit = true;
      }
      CBIR_RETURN_NOT_OK(solve_all(rho_star));
    }

    if (rho_star >= options_.rho) break;
    rho_star = std::min(2.0 * rho_star, options_.rho);
  }

  // Only the last solve's model is used, so the chain builds it once, from
  // that solve's duals and the labels it ran with (y has not flipped since).
  model.models.reserve(num_modalities);
  model.alphas.reserve(num_modalities);
  for (size_t k = 0; k < num_modalities; ++k) {
    model.models.push_back(
        svm::BuildModel(modalities[k].kernel, *modalities[k].data, y,
                        solutions[k].alpha, solutions[k].bias));
    model.alphas.push_back(std::move(solutions[k].alpha));
  }
  model.unlabeled_labels.assign(y.begin() + static_cast<long>(nl), y.end());
  diag.visual_objective = solutions[0].objective;
  if (num_modalities >= 2) diag.log_objective = solutions[1].objective;
  return model;
}

}  // namespace cbir::core

// Two-modality coupled-SVM problems shared by the core tests. LRF-CSVM is
// MultiCoupledSvm with K = 2: modality 0 is the visual view, modality 1 the
// log view.
#ifndef CBIR_TESTS_CORE_TWO_MODALITY_PROBLEM_H_
#define CBIR_TESTS_CORE_TWO_MODALITY_PROBLEM_H_

#include <cstdint>
#include <vector>

#include "core/multi_coupled_svm.h"
#include "la/matrix.h"
#include "util/rng.h"

namespace cbir::core::testutil {

/// Rows 0..N_l-1 of both matrices are the labeled samples; the rest are the
/// unlabeled samples, in the order of `initial_unlabeled_labels`.
struct TwoModalityData {
  la::Matrix visual;  ///< (N_l + N') x 2
  la::Matrix log;     ///< (N_l + N') x 1
  std::vector<double> labels;
  std::vector<double> initial_unlabeled_labels;
  std::vector<double> initial_visual_alpha;  ///< empty = cold start
  std::vector<double> initial_log_alpha;     ///< empty = cold start
};

// Both views carry the class signal: visual = 2-D Gaussians at
// +-visual_gap, log = 1-D at +-log_gap.
inline TwoModalityData TwoModalityProblem(size_t nl_per_class, size_t nu,
                                          double visual_gap, double log_gap,
                                          uint64_t seed) {
  Rng rng(seed);
  const size_t nl = 2 * nl_per_class;
  TwoModalityData data;
  data.visual = la::Matrix(nl + nu, 2);
  data.log = la::Matrix(nl + nu, 1);
  for (size_t i = 0; i < nl; ++i) {
    const double y = (i < nl_per_class) ? 1.0 : -1.0;
    data.labels.push_back(y);
    data.visual.At(i, 0) = rng.Gaussian() + visual_gap * y;
    data.visual.At(i, 1) = rng.Gaussian();
    data.log.At(i, 0) = rng.Gaussian() * 0.3 + log_gap * y;
  }
  for (size_t j = 0; j < nu; ++j) {
    const double y = (j % 2 == 0) ? 1.0 : -1.0;
    data.visual.At(nl + j, 0) = rng.Gaussian() + visual_gap * y;
    data.visual.At(nl + j, 1) = rng.Gaussian();
    data.log.At(nl + j, 0) = rng.Gaussian() * 0.3 + log_gap * y;
    data.initial_unlabeled_labels.push_back(y);
  }
  return data;
}

inline MultiCsvmOptions TestOptions() {
  MultiCsvmOptions options;
  options.rho = 0.5;
  return options;
}

/// Views over `data`, both modalities with C = 10 and an RBF(0.5) kernel.
inline std::vector<ModalityView> Views(const TwoModalityData& data) {
  const svm::KernelParams kernel = svm::KernelParams::Rbf(0.5);
  return {ModalityView{&data.visual, kernel, 10.0, &data.initial_visual_alpha},
          ModalityView{&data.log, kernel, 10.0, &data.initial_log_alpha}};
}

inline Result<MultiCoupledModel> Train(const MultiCoupledSvm& csvm,
                                       const TwoModalityData& data) {
  return csvm.TrainViews(Views(data), data.labels,
                         data.initial_unlabeled_labels);
}

/// The coupled decision f_w(x_i) + f_u(r_i) on row i of `data`.
inline double Decision(const MultiCoupledModel& model,
                       const TwoModalityData& data, size_t i) {
  return model.Decision({data.visual.Row(i), data.log.Row(i)});
}

}  // namespace cbir::core::testutil

#endif  // CBIR_TESTS_CORE_TWO_MODALITY_PROBLEM_H_

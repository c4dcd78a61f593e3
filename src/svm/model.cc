#include "svm/model.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace cbir::svm {

SvmModel::SvmModel(KernelParams kernel, la::Matrix support_vectors,
                   std::vector<double> coefficients, double bias,
                   std::vector<size_t> support_rows)
    : kernel_(kernel),
      support_vectors_(std::move(support_vectors)),
      coefficients_(std::move(coefficients)),
      bias_(bias),
      support_rows_(std::move(support_rows)) {
  CBIR_CHECK_EQ(support_vectors_.rows(), coefficients_.size());
  if (!support_rows_.empty()) {
    CBIR_CHECK_EQ(support_rows_.size(), coefficients_.size());
  }
}

double SvmModel::Decision(const la::Vec& x) const {
  double sum = bias_;
  for (size_t s = 0; s < support_vectors_.rows(); ++s) {
    sum += coefficients_[s] * EvalKernelRow(kernel_, support_vectors_, s, x);
  }
  return sum;
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

#include "svm/model.h"

#include <utility>
#include <istream>
#include <ostream>
#include <string>

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

void SvmModel::Save(std::ostream& os) const {
  os << "svm_model v1\n";
  os << static_cast<int>(kernel_.type) << " " << kernel_.gamma << " "
     << kernel_.coef0 << " " << kernel_.degree << "\n";
  os << support_vectors_.rows() << " " << support_vectors_.cols() << "\n";
  os.precision(17);
  os << bias_ << "\n";
  for (size_t s = 0; s < support_vectors_.rows(); ++s) {
    os << coefficients_[s];
    const double* p = support_vectors_.RowPtr(s);
    for (size_t c = 0; c < support_vectors_.cols(); ++c) os << " " << p[c];
    os << "\n";
  }
}

Result<SvmModel> SvmModel::Load(std::istream& is) {
  std::string magic, version;
  if (!(is >> magic >> version) || magic != "svm_model" || version != "v1") {
    return Status::InvalidArgument("svm model: bad header");
  }
  int type = 0;
  KernelParams kernel;
  if (!(is >> type >> kernel.gamma >> kernel.coef0 >> kernel.degree)) {
    return Status::IoError("svm model: truncated kernel params");
  }
  if (type < 0 || type > 2) {
    return Status::InvalidArgument("svm model: unknown kernel type");
  }
  kernel.type = static_cast<KernelType>(type);

  size_t rows = 0, cols = 0;
  double bias = 0.0;
  if (!(is >> rows >> cols >> bias)) {
    return Status::IoError("svm model: truncated shape");
  }
  la::Matrix sv(rows, cols);
  std::vector<double> coeffs(rows);
  for (size_t s = 0; s < rows; ++s) {
    if (!(is >> coeffs[s])) return Status::IoError("svm model: truncated");
    double* p = sv.RowPtr(s);
    for (size_t c = 0; c < cols; ++c) {
      if (!(is >> p[c])) return Status::IoError("svm model: truncated");
    }
  }
  return SvmModel(kernel, std::move(sv), std::move(coeffs), bias);
}

}  // namespace cbir::svm

#ifndef CBIR_SVM_MODEL_H_
#define CBIR_SVM_MODEL_H_

#include <vector>

#include "la/matrix.h"
#include "la/vector_ops.h"
#include "svm/kernel.h"

namespace cbir::svm {

/// \brief A trained binary SVM decision function
///   f(x) = sum_s coeff_s * K(sv_s, x) + bias,
/// where coeff_s = alpha_s * y_s over the support vectors.
///
/// Models are value types: copyable and safe to use from multiple threads
/// concurrently (Decision is const). Batches are scored column by
/// column with DecisionLanes (core::KernelColumnStore over a scan space).
class SvmModel {
 public:
  SvmModel() = default;
  /// `support_rows`, when given, holds each support vector's row in the
  /// training matrix (BuildModel records it); empty for a model that was
  /// built without one.
  SvmModel(KernelParams kernel, la::Matrix support_vectors,
           std::vector<double> coefficients, double bias,
           std::vector<size_t> support_rows = {});

  bool empty() const { return support_vectors_.rows() == 0; }
  size_t num_support_vectors() const { return support_vectors_.rows(); }
  const KernelParams& kernel() const { return kernel_; }
  double bias() const { return bias_; }
  const la::Matrix& support_vectors() const { return support_vectors_; }
  const std::vector<double>& coefficients() const { return coefficients_; }
  /// Training-matrix row of each support vector (empty when unknown).
  const std::vector<size_t>& support_rows() const { return support_rows_; }

  /// Signed decision value; the paper's `SVM_Dist`.
  double Decision(const la::Vec& x) const;

  /// Predicted label in {+1, -1} (ties resolve to +1).
  double Predict(const la::Vec& x) const {
    return Decision(x) >= 0.0 ? 1.0 : -1.0;
  }

 private:
  KernelParams kernel_;
  la::Matrix support_vectors_;
  std::vector<double> coefficients_;  ///< alpha_s * y_s
  double bias_ = 0.0;
  std::vector<size_t> support_rows_;
};

/// The model of a solve: the rows of `data` with alpha > 1e-12 as support
/// vectors, in row order, with coefficients alpha * label; the model's
/// support_rows() records which rows they are.
SvmModel BuildModel(const KernelParams& kernel, const la::Matrix& data,
                    const std::vector<double>& labels,
                    const std::vector<double>& alpha, double bias);

}  // namespace cbir::svm

#endif  // CBIR_SVM_MODEL_H_

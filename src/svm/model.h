#ifndef CBIR_SVM_MODEL_H_
#define CBIR_SVM_MODEL_H_

#include <iosfwd>
#include <vector>

#include "la/matrix.h"
#include "la/sparse_rows.h"
#include "la/vector_ops.h"
#include "svm/kernel.h"
#include "util/result.h"

namespace cbir::svm {

/// \brief A trained binary SVM decision function
///   f(x) = sum_s coeff_s * K(sv_s, x) + bias,
/// where coeff_s = alpha_s * y_s over the support vectors.
///
/// Models are value types: copyable, serializable, safe to use from multiple
/// threads concurrently (Decision is const).
class SvmModel {
 public:
  SvmModel() = default;
  SvmModel(KernelParams kernel, la::Matrix support_vectors,
           std::vector<double> coefficients, double bias);

  bool empty() const { return support_vectors_.rows() == 0; }
  size_t num_support_vectors() const { return support_vectors_.rows(); }
  const KernelParams& kernel() const { return kernel_; }
  double bias() const { return bias_; }
  const la::Matrix& support_vectors() const { return support_vectors_; }
  const std::vector<double>& coefficients() const { return coefficients_; }

  /// Signed decision value; the paper's `SVM_Dist`.
  double Decision(const la::Vec& x) const;

  /// Decision value of a sparse sample whose columns lie below the support
  /// vectors' dims; bit-identical to Decision on its dense form.
  double Decision(la::SparseRowView x) const;

  /// Decision values for every row of `batch`.
  std::vector<double> DecisionBatch(const la::Matrix& batch) const;

  /// Decision values for every row of a sparse `batch`, bit-identical to
  /// DecisionBatch on its dense form; a kernel evaluation costs a merge of
  /// the two rows' nonzeros instead of a pass over every column.
  std::vector<double> DecisionBatch(const la::SparseRows& batch) const;

  /// Predicted label in {+1, -1} (ties resolve to +1).
  double Predict(const la::Vec& x) const {
    return Decision(x) >= 0.0 ? 1.0 : -1.0;
  }

  /// Text serialization round-trip.
  void Save(std::ostream& os) const;
  static Result<SvmModel> Load(std::istream& is);

 private:
  KernelParams kernel_;
  la::Matrix support_vectors_;
  /// The same rows as CSR, for scoring sparse samples.
  la::SparseRows sparse_support_vectors_;
  std::vector<double> coefficients_;  ///< alpha_s * y_s
  double bias_ = 0.0;
};

}  // namespace cbir::svm

#endif  // CBIR_SVM_MODEL_H_

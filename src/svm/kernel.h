#ifndef CBIR_SVM_KERNEL_H_
#define CBIR_SVM_KERNEL_H_

#include <string>

#include "la/matrix.h"
#include "la/sparse_rows.h"
#include "la/vector_ops.h"

namespace cbir::svm {

/// \brief Supported Mercer kernels.
enum class KernelType {
  kLinear,      ///< K(a,b) = <a,b>
  kRbf,         ///< K(a,b) = exp(-gamma * ||a-b||^2)
  kPolynomial,  ///< K(a,b) = (gamma * <a,b> + coef0)^degree
};

const char* KernelTypeToString(KernelType type);

/// \brief Kernel selection plus hyper-parameters.
///
/// The paper's experiments use the Gaussian RBF kernel for all SVM-based
/// schemes; linear and polynomial kernels are provided for tests, the
/// `experiment_driver --preset=ablation-logrep` comparison and as library
/// features.
struct KernelParams {
  KernelType type = KernelType::kRbf;
  double gamma = 1.0;
  double coef0 = 0.0;
  int degree = 3;

  static KernelParams Linear() { return {KernelType::kLinear, 0.0, 0.0, 0}; }
  static KernelParams Rbf(double gamma) {
    return {KernelType::kRbf, gamma, 0.0, 0};
  }
  static KernelParams Polynomial(double gamma, double coef0, int degree) {
    return {KernelType::kPolynomial, gamma, coef0, degree};
  }

  /// Exact parameter equality; a kernel column store keeps its columns
  /// across a re-bind only under an equal kernel.
  friend bool operator==(const KernelParams& a, const KernelParams& b) {
    return a.type == b.type && a.gamma == b.gamma && a.coef0 == b.coef0 &&
           a.degree == b.degree;
  }

  std::string ToString() const;
};

/// Evaluates K(a, b). Requires equal dimensions.
double EvalKernel(const KernelParams& params, const la::Vec& a,
                  const la::Vec& b);

/// Evaluates K(a, b) on two sparse rows of `dims` columns, bit-identical to
/// EvalKernel on their dense forms; costs a merge of their nonzeros.
double EvalKernel(const KernelParams& params, la::SparseRowView a,
                  la::SparseRowView b, size_t dims);

/// Evaluates K between row `i` of `rows` and vector `b`.
double EvalKernelRow(const KernelParams& params, const la::Matrix& rows,
                     size_t i, const la::Vec& b);

/// Evaluates out[r - begin] = K(rows[r], b) for r in [begin, end) in one
/// blocked pass; `b` holds `rows.cols()` doubles. The batched form fills
/// Gram rows and kernel columns without per-element dispatch.
void EvalKernelRowBatch(const KernelParams& params, const la::Matrix& rows,
                        const double* b, double* out, size_t begin,
                        size_t end);

/// LIBSVM-style default gamma: 1 / (dims * variance_of_all_entries); falls
/// back to 1/dims for (near-)constant data and returns 1.0 for an empty
/// matrix instead of crashing.
double DefaultGamma(const la::Matrix& data);

}  // namespace cbir::svm

#endif  // CBIR_SVM_KERNEL_H_

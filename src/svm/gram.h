#ifndef CBIR_SVM_GRAM_H_
#define CBIR_SVM_GRAM_H_

#include <cstddef>

#include "la/matrix.h"
#include "svm/kernel.h"
#include "util/result.h"

namespace cbir::svm {

/// Largest training set the SVM layer accepts. Its Gram is 128 MiB; a
/// larger set returns InvalidArgument before anything n^2 is allocated.
inline constexpr size_t kMaxTrainingRows = 4096;

/// \brief The dense n x n kernel matrix of one training set under one
/// kernel.
///
/// Relevance feedback trains on the N_l labeled plus N' pseudo-labeled
/// images, a few dozen rows, so the SMO solver reads every K(x_i, x_j)
/// from one precomputed matrix. The upper triangle is computed row by row
/// with EvalKernelRowBatch (row i against rows [i, n)) and mirrored: the
/// dot product and the squared distance are symmetric in their arguments,
/// so entry (j, i) is bit-identical to K(x_i, x_j) evaluated either way.
/// A coupled-SVM chain builds one per modality and every QP of the chain
/// reads it. A default-constructed Gram is empty (n() == 0).
class Gram {
 public:
  /// The Gram of `rows` under `kernel`; InvalidArgument above
  /// kMaxTrainingRows rows. `rows` is only read during the call.
  static Result<Gram> Of(const la::Matrix& rows, const KernelParams& kernel);

  size_t n() const { return values_.rows(); }
  /// Row i: K(x_i, x_j) for every j.
  const double* RowPtr(size_t i) const { return values_.RowPtr(i); }
  /// K(x_i, x_i); `i` must be below n().
  double Diag(size_t i) const { return values_.data()[i * n() + i]; }

 private:
  la::Matrix values_;  ///< n() x n()
};

}  // namespace cbir::svm

#endif  // CBIR_SVM_GRAM_H_

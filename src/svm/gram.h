#ifndef CBIR_SVM_GRAM_H_
#define CBIR_SVM_GRAM_H_

#include <cstddef>
#include <vector>

#include "la/matrix.h"
#include "svm/kernel.h"
#include "util/result.h"

namespace cbir::svm {

/// Largest training set the SVM layer accepts. Its Gram is 128 MiB; a
/// larger set returns InvalidArgument before anything n^2 is allocated.
inline constexpr size_t kMaxTrainingRows = 4096;

/// \brief The dense n x n kernel matrix of one training set under one
/// kernel, with the image id of every row.
///
/// Relevance feedback trains on the N_l labeled plus N' pseudo-labeled
/// images, a few dozen rows, so the SMO solver reads every K(x_i, x_j)
/// from one precomputed matrix. The upper triangle is computed row by row
/// with EvalKernelRowBatch (row i against rows [i, n)) and mirrored: the
/// dot product and the squared distance are symmetric in their arguments,
/// so entry (j, i) is bit-identical to K(x_i, x_j) evaluated either way.
///
/// A feedback session keeps its Gram between rounds. Bind() copies every
/// pair whose two images were both in the previous bind under an equal
/// kernel and computes the rest, so a round pays only for the pairs that
/// involve its new images; a fresh bind is the same code with nothing to
/// carry. Not thread-safe.
class Gram {
 public:
  /// A fresh Gram of `rows`, row i keyed by id i.
  static Result<Gram> Of(const la::Matrix& rows, const KernelParams& kernel);

  /// Binds the Gram to a training set: `ids[i]` is the image of row i of
  /// `rows` (unique). Returns InvalidArgument, and keeps the previous bind,
  /// when the sizes disagree or the set exceeds kMaxTrainingRows. `rows`
  /// is only read during the call.
  Status Bind(std::vector<int> ids, const la::Matrix& rows,
              const KernelParams& kernel);

  size_t n() const { return ids_.size(); }
  /// Row i: K(x_i, x_j) for every j.
  const double* RowPtr(size_t i) const { return values_.RowPtr(i); }
  /// K(x_i, x_i); `i` must be below n().
  double Diag(size_t i) const { return values_.data()[i * n() + i]; }
  const std::vector<int>& ids() const { return ids_; }
  const KernelParams& kernel() const { return kernel_; }

  /// Upper-triangle entries, diagonal included, that the last Bind
  /// computed and copied from the bind before it; a fresh n-row Gram
  /// computes n (n + 1) / 2.
  size_t computed() const { return computed_; }
  size_t carried() const { return carried_; }

  /// Bytes held (matrix and ids); a session charges them to its memory.
  size_t AllocatedBytes() const;

  /// Drops the matrix and ids; the next Bind carries nothing.
  void Clear();

 private:
  std::vector<int> ids_;
  KernelParams kernel_;
  la::Matrix values_;  ///< n() x n()
  size_t computed_ = 0;
  size_t carried_ = 0;
};

}  // namespace cbir::svm

#endif  // CBIR_SVM_GRAM_H_

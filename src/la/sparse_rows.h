#ifndef CBIR_LA_SPARSE_ROWS_H_
#define CBIR_LA_SPARSE_ROWS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "la/matrix.h"

namespace cbir::la {

/// \brief One row of a SparseRows: `nnz` (column, value) pairs with
/// strictly ascending columns. Borrowed; valid while its owner is alive and
/// unmodified. No default constructor, so a braced dense argument such as
/// `svm::EvalKernel(params, {}, {})` still means a la::Vec.
struct SparseRowView {
  SparseRowView(const uint32_t* index_in, const double* value_in,
                size_t nnz_in)
      : index(index_in), value(value_in), nnz(nnz_in) {}

  const uint32_t* index;
  const double* value;
  size_t nnz;
};

/// \brief Row-major compressed sparse rows (CSR) of doubles.
///
/// Holds the feedback log's per-image vectors r_i: one column per logged
/// session, nonzero only where that session judged the image, so a row
/// costs its marks rather than M doubles. Explicit zeros are never stored.
class SparseRows {
 public:
  SparseRows() = default;
  /// No rows, `cols` columns.
  explicit SparseRows(size_t cols) : cols_(cols) {}

  /// The nonzeros of every row of `dense`, in order.
  static SparseRows FromDense(const Matrix& dense);

  size_t rows() const { return row_end_.size(); }
  size_t cols() const { return cols_; }
  size_t nnz() const { return value_.size(); }
  bool empty() const { return rows() == 0 || cols_ == 0; }

  SparseRowView Row(size_t r) const;

  /// Rows `ids` (each in [0, rows())), in the order given.
  SparseRows Gather(const std::vector<int>& ids) const;

  /// Rows `ids` as a dense ids.size() x cols() matrix.
  Matrix GatherDense(const std::vector<int>& ids) const;

  /// The cols() x rows() transpose: row c lists, in ascending order, the
  /// rows holding a nonzero in column c (the inverted list of column c).
  SparseRows Transpose() const;

 private:
  size_t cols_ = 0;
  /// One past row r's last nonzero; row r starts where row r - 1 ends.
  std::vector<size_t> row_end_;
  std::vector<uint32_t> index_;
  std::vector<double> value_;
};

/// <a, b> over `dims`-column rows, bit-identical to DotN on their dense
/// forms: each product of two nonzeros goes to the accumulator DotN gives
/// its column, in the same order, and the skipped terms are exact zeros.
/// Costs a merge of the two rows' nonzeros, not `dims` multiplies.
double SparseDot(SparseRowView a, SparseRowView b, size_t dims);

/// ||a - b||^2 over `dims`-column rows, bit-identical to SquaredDistanceN
/// on their dense forms (same argument as SparseDot).
double SparseSquaredDistance(SparseRowView a, SparseRowView b, size_t dims);

}  // namespace cbir::la

#endif  // CBIR_LA_SPARSE_ROWS_H_

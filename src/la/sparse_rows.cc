#include "la/sparse_rows.h"

#include "util/logging.h"

namespace cbir::la {
namespace {

/// DotN/SquaredDistanceN's accumulator for column `col`: the unrolled body
/// covers columns below `body_end` = 4 * floor(dims / 4) round-robin, and the
/// remainder loop adds every later column to lane 0.
inline size_t Lane(uint32_t col, size_t body_end) {
  return col < body_end ? (col & 3u) : 0;
}

inline size_t BodyEnd(size_t dims) { return dims - dims % 4; }

}  // namespace

SparseRows SparseRows::FromDense(const Matrix& dense) {
  SparseRows out(dense.cols());
  out.row_end_.reserve(dense.rows());
  for (size_t r = 0; r < dense.rows(); ++r) {
    const double* row = dense.RowPtr(r);
    for (size_t c = 0; c < dense.cols(); ++c) {
      if (row[c] == 0.0) continue;
      out.index_.push_back(static_cast<uint32_t>(c));
      out.value_.push_back(row[c]);
    }
    out.row_end_.push_back(out.value_.size());
  }
  return out;
}

SparseRowView SparseRows::Row(size_t r) const {
  CBIR_CHECK_LT(r, rows());
  const size_t begin = r == 0 ? 0 : row_end_[r - 1];
  return {index_.data() + begin, value_.data() + begin, row_end_[r] - begin};
}

SparseRows SparseRows::Gather(const std::vector<int>& ids) const {
  SparseRows out(cols_);
  out.row_end_.reserve(ids.size());
  for (int id : ids) {
    const SparseRowView row = Row(static_cast<size_t>(id));
    out.index_.insert(out.index_.end(), row.index, row.index + row.nnz);
    out.value_.insert(out.value_.end(), row.value, row.value + row.nnz);
    out.row_end_.push_back(out.value_.size());
  }
  return out;
}

Matrix SparseRows::GatherDense(const std::vector<int>& ids) const {
  Matrix out(ids.size(), cols_, 0.0);
  for (size_t i = 0; i < ids.size(); ++i) {
    const SparseRowView row = Row(static_cast<size_t>(ids[i]));
    double* dst = out.RowPtr(i);
    for (size_t k = 0; k < row.nnz; ++k) dst[row.index[k]] = row.value[k];
  }
  return out;
}

SparseRows SparseRows::Transpose() const {
  SparseRows out(rows());
  // Counting sort by column: row_end_ first holds each column's count, then
  // its running end; scanning the rows in order fills every column's list
  // in ascending row order.
  out.row_end_.assign(cols_, 0);
  for (uint32_t c : index_) ++out.row_end_[c];
  for (size_t c = 1; c < cols_; ++c) out.row_end_[c] += out.row_end_[c - 1];
  out.index_.resize(nnz());
  out.value_.resize(nnz());
  std::vector<size_t> next(cols_, 0);
  for (size_t c = 1; c < cols_; ++c) next[c] = out.row_end_[c - 1];
  for (size_t r = 0; r < rows(); ++r) {
    const SparseRowView row = Row(r);
    for (size_t k = 0; k < row.nnz; ++k) {
      const size_t slot = next[row.index[k]]++;
      out.index_[slot] = static_cast<uint32_t>(r);
      out.value_[slot] = row.value[k];
    }
  }
  return out;
}

// Both merges add exactly the nonzero terms of the dense loops, to the same
// lanes in the same order. A term the dense loop adds that is skipped here
// is a product with a zero, i.e. +-0, and adding +-0 leaves a lane unchanged:
// a lane starts at +0 and a sum that cancels to zero is +0, so no lane is
// ever -0.
double SparseDot(SparseRowView a, SparseRowView b, size_t dims) {
  const size_t body_end = BodyEnd(dims);
  double s[4] = {0.0, 0.0, 0.0, 0.0};
  size_t i = 0, j = 0;
  while (i < a.nnz && j < b.nnz) {
    const uint32_t ca = a.index[i];
    const uint32_t cb = b.index[j];
    if (ca < cb) {
      ++i;
    } else if (cb < ca) {
      ++j;
    } else {
      s[Lane(ca, body_end)] += a.value[i] * b.value[j];
      ++i;
      ++j;
    }
  }
  return (s[0] + s[1]) + (s[2] + s[3]);
}

double SparseSquaredDistance(SparseRowView a, SparseRowView b, size_t dims) {
  const size_t body_end = BodyEnd(dims);
  double s[4] = {0.0, 0.0, 0.0, 0.0};
  size_t i = 0, j = 0;
  // A column only one row holds contributes x - 0 = x or 0 - x = -x; both
  // square to x * x exactly.
  while (i < a.nnz || j < b.nnz) {
    uint32_t col;
    double d;
    if (j == b.nnz || (i < a.nnz && a.index[i] < b.index[j])) {
      col = a.index[i];
      d = a.value[i++];
    } else if (i == a.nnz || b.index[j] < a.index[i]) {
      col = b.index[j];
      d = b.value[j++];
    } else {
      col = a.index[i];
      d = a.value[i++] - b.value[j++];
    }
    s[Lane(col, body_end)] += d * d;
  }
  return (s[0] + s[1]) + (s[2] + s[3]);
}

}  // namespace cbir::la

#ifndef CBIR_SVM_DECISION_LANES_H_
#define CBIR_SVM_DECISION_LANES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cbir::svm {

/// \brief K(x, row) of one sample x against every row of a scan space.
///
/// Dense: `values[r]` for every row r. Sparse: `values[i]` belongs to row
/// `rows[i]` (ascending) and every other row's value is `fill`. A
/// dot-product kernel of two sparse rows with disjoint supports is exactly
/// the kernel of two empty rows, so a log column under a linear or
/// polynomial kernel lists only the rows that share a session with x.
struct KernelColumn {
  std::vector<double> values;
  std::vector<uint32_t> rows;
  double fill = 0.0;
  bool sparse = false;

  /// K(x, row r) (tests and reference checks; scoring loops read
  /// `values` directly).
  double At(size_t r) const;

  /// Bytes of the column's buffers: 8 B a row when dense, 12 B a listed
  /// row when sparse.
  size_t AllocatedBytes() const {
    return values.capacity() * sizeof(double) +
           rows.capacity() * sizeof(uint32_t);
  }
};

/// \brief Decision values of one model over rows [begin, end) of a scan
/// space, summed column by column: bias + sum_s coef_s K(sv_s, row).
///
/// Add the support vectors' columns in support-vector order. Column s goes
/// to lane s mod 4 while s < 4 floor(n_sv / 4), every later one to lane 0,
/// and Finish returns bias + ((l0 + l1) + (l2 + l3)). That is exactly the
/// order in which la::DotN sums a row's kernel values against the
/// coefficients, so each value is bit-identical to
/// bias + DotN(kernel row, coefficients), the per-row scoring loop this
/// replaces. Row ranges are independent: a corpus-sized batch can score
/// disjoint ranges on different threads.
class DecisionLanes {
 public:
  DecisionLanes(size_t begin, size_t end, size_t num_sv);

  /// Adds the next support vector's column; `values[i]` is its kernel of
  /// row begin + i, for every row of the range.
  void Add(double coef, const double* values);

  /// Adds the next support vector's column, given over the whole scan
  /// space. A sparse column whose `coef * fill` is zero touches only its
  /// listed rows: the skipped terms are +-0 and a lane is never -0 (it
  /// starts at +0 and a sum that cancels is +0), so they change nothing.
  void Add(double coef, const KernelColumn& column);

  /// Writes each row's decision value to out[0, end - begin).
  void Finish(double bias, double* out) const;

 private:
  /// The lane the next column adds to.
  double* NextLane();

  size_t begin_;
  size_t size_;
  size_t num_sv_;
  size_t body_end_;  ///< 4 * floor(num_sv / 4)
  size_t next_ = 0;  ///< support vectors added so far
  std::vector<double> lanes_;  ///< 4 lanes of size_ rows each
};

}  // namespace cbir::svm

#endif  // CBIR_SVM_DECISION_LANES_H_

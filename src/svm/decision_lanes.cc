#include "svm/decision_lanes.h"

#include <algorithm>

#include "util/logging.h"

namespace cbir::svm {

double KernelColumn::At(size_t r) const {
  if (!sparse) return values[r];
  const auto it = std::lower_bound(rows.begin(), rows.end(), r);
  return it != rows.end() && *it == r ? values[it - rows.begin()] : fill;
}

DecisionLanes::DecisionLanes(size_t begin, size_t end, size_t num_sv)
    : begin_(begin),
      size_(end - begin),
      num_sv_(num_sv),
      body_end_(num_sv - num_sv % 4),
      lanes_(4 * (end - begin), 0.0) {
  CBIR_CHECK_LE(begin, end);
}

double* DecisionLanes::NextLane() {
  CBIR_CHECK_LT(next_, num_sv_) << "more columns than support vectors";
  const size_t s = next_++;
  const size_t lane = s < body_end_ ? s % 4 : 0;
  return lanes_.data() + lane * size_;
}

void DecisionLanes::Add(double coef, const double* values) {
  double* lane = NextLane();
  for (size_t i = 0; i < size_; ++i) lane[i] += coef * values[i];
}

void DecisionLanes::Add(double coef, const KernelColumn& column) {
  if (!column.sparse) {
    CBIR_CHECK_GE(column.values.size(), begin_ + size_);
    Add(coef, column.values.data() + begin_);
    return;
  }
  double* lane = NextLane();
  const size_t end = begin_ + size_;
  size_t k = static_cast<size_t>(
      std::lower_bound(column.rows.begin(), column.rows.end(), begin_) -
      column.rows.begin());
  if (coef * column.fill == 0.0) {
    for (; k < column.rows.size() && column.rows[k] < end; ++k) {
      lane[column.rows[k] - begin_] += coef * column.values[k];
    }
    return;
  }
  for (size_t r = begin_; r < end; ++r) {
    double value = column.fill;
    if (k < column.rows.size() && column.rows[k] == r) {
      value = column.values[k++];
    }
    lane[r - begin_] += coef * value;
  }
}

void DecisionLanes::Finish(double bias, double* out) const {
  CBIR_CHECK_EQ(next_, num_sv_) << "fewer columns than support vectors";
  if (num_sv_ == 0) {
    std::fill(out, out + size_, bias);
    return;
  }
  const double* l0 = lanes_.data();
  const double* l1 = l0 + size_;
  const double* l2 = l1 + size_;
  const double* l3 = l2 + size_;
  for (size_t i = 0; i < size_; ++i) {
    out[i] = bias + ((l0[i] + l1[i]) + (l2[i] + l3[i]));
  }
}

}  // namespace cbir::svm

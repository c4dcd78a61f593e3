#include "svm/kernel.h"

#include <cmath>

#include "util/logging.h"
#include "util/string_util.h"

namespace cbir::svm {

const char* KernelTypeToString(KernelType type) {
  switch (type) {
    case KernelType::kLinear:
      return "linear";
    case KernelType::kRbf:
      return "rbf";
    case KernelType::kPolynomial:
      return "polynomial";
  }
  return "?";
}

std::string KernelParams::ToString() const {
  std::string out = KernelTypeToString(type);
  switch (type) {
    case KernelType::kLinear:
      break;
    case KernelType::kRbf:
      out += "(gamma=" + FormatDouble(gamma, 6) + ")";
      break;
    case KernelType::kPolynomial:
      out += "(gamma=" + FormatDouble(gamma, 6) +
             ", coef0=" + FormatDouble(coef0, 6) +
             ", degree=" + std::to_string(degree) + ")";
      break;
  }
  return out;
}

namespace {

/// K from the one reduction it needs: the squared distance for RBF, the
/// inner product otherwise.
double KernelOf(const KernelParams& params, double reduced) {
  switch (params.type) {
    case KernelType::kLinear:
      return reduced;
    case KernelType::kRbf:
      return std::exp(-params.gamma * reduced);
    case KernelType::kPolynomial: {
      double base = params.gamma * reduced + params.coef0;
      double out = 1.0;
      for (int d = 0; d < params.degree; ++d) out *= base;
      return out;
    }
  }
  CBIR_LOG(Fatal) << "unreachable kernel type";
  return 0.0;
}

}  // namespace

double EvalKernel(const KernelParams& params, const la::Vec& a,
                  const la::Vec& b) {
  return KernelOf(params, params.type == KernelType::kRbf
                              ? la::SquaredDistance(a, b)
                              : la::Dot(a, b));
}

double EvalKernel(const KernelParams& params, la::SparseRowView a,
                  la::SparseRowView b, size_t dims) {
  return KernelOf(params, params.type == KernelType::kRbf
                              ? la::SparseSquaredDistance(a, b, dims)
                              : la::SparseDot(a, b, dims));
}

double EvalKernelRow(const KernelParams& params, const la::Matrix& rows,
                     size_t i, const la::Vec& b) {
  CBIR_CHECK_EQ(rows.cols(), b.size());
  const double* p = rows.RowPtr(i);
  const size_t d = b.size();
  return KernelOf(params, params.type == KernelType::kRbf
                              ? la::SquaredDistanceN(p, b.data(), d)
                              : la::DotN(p, b.data(), d));
}

void EvalKernelRowBatch(const KernelParams& params, const la::Matrix& rows,
                        const double* b, double* out, size_t begin,
                        size_t end) {
  CBIR_CHECK_LE(begin, end);
  CBIR_CHECK_LE(end, rows.rows());
  if (begin == end) return;
  const size_t dims = rows.cols();
  const double* base = rows.RowPtr(begin);
  const size_t count = end - begin;
  if (params.type == KernelType::kRbf) {
    la::SquaredDistanceToRows(base, count, dims, b, out);
  } else {
    la::DotToRows(base, count, dims, b, out);
  }
  if (params.type == KernelType::kLinear) return;
  for (size_t r = 0; r < count; ++r) out[r] = KernelOf(params, out[r]);
}

double DefaultGamma(const la::Matrix& data) {
  if (data.empty()) return 1.0;
  const size_t n = data.rows() * data.cols();
  double sum = 0.0, sum_sq = 0.0;
  for (double v : data.data()) {
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / static_cast<double>(n);
  // Guard the catastrophic-cancellation case: sum_sq/n and mean^2 can differ
  // by rounding noise for constant data, yielding a tiny negative variance.
  const double var =
      std::max(0.0, sum_sq / static_cast<double>(n) - mean * mean);
  double denom = static_cast<double>(data.cols()) * (var > 1e-12 ? var : 1.0);
  if (!std::isfinite(denom) || denom <= 0.0) {
    denom = static_cast<double>(data.cols());
  }
  return 1.0 / denom;
}

}  // namespace cbir::svm

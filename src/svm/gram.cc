#include "svm/gram.h"

#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace cbir::svm {

Result<Gram> Gram::Of(const la::Matrix& rows, const KernelParams& kernel) {
  const size_t n = rows.rows();
  if (n > kMaxTrainingRows) {
    return Status::InvalidArgument(
        "training set of " + std::to_string(n) + " rows exceeds the " +
        std::to_string(kMaxTrainingRows) + "-row limit");
  }
  Gram gram;
  gram.values_ = la::Matrix(n, n);
  for (size_t i = 0; i < n; ++i) {
    double* row = gram.values_.RowPtr(i);
    EvalKernelRowBatch(kernel, rows, rows.RowPtr(i), row + i, i, n);
    for (size_t j = i + 1; j < n; ++j) gram.values_.RowPtr(j)[i] = row[j];
  }
  // Every entry of the upper triangle, diagonal included, is computed.
  // The registry series (cached once, wait-free after that) and the
  // request's EXPLAIN profile sum them over every Gram built.
  const size_t computed = n * (n + 1) / 2;
  static obs::Counter* const misses =
      obs::MetricsRegistry::Default().GetCounter(
          "cbir_svm_kernel_cache_misses_total");
  misses->Increment(computed);
  if (obs::RequestTrace* trace = obs::CurrentTrace(); trace != nullptr) {
    trace->AddCounter("kernel_cache_misses", static_cast<int64_t>(computed));
  }
  return gram;
}

}  // namespace cbir::svm

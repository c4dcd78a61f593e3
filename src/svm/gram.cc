#include "svm/gram.h"

#include <numeric>
#include <string>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace cbir::svm {
namespace {

/// Registry series of the Gram binds: `_hits_total` counts entries carried
/// from a session's previous round, `_misses_total` entries computed.
struct GramMetrics {
  obs::Counter* carried;
  obs::Counter* computed;
};

const GramMetrics& Metrics() {
  static const GramMetrics metrics = [] {
    obs::MetricsRegistry& r = obs::MetricsRegistry::Default();
    return GramMetrics{r.GetCounter("cbir_svm_kernel_cache_hits_total"),
                       r.GetCounter("cbir_svm_kernel_cache_misses_total")};
  }();
  return metrics;
}

}  // namespace

Result<Gram> Gram::Of(const la::Matrix& rows, const KernelParams& kernel) {
  std::vector<int> ids(rows.rows());
  std::iota(ids.begin(), ids.end(), 0);
  Gram gram;
  CBIR_RETURN_NOT_OK(gram.Bind(std::move(ids), rows, kernel));
  return gram;
}

Status Gram::Bind(std::vector<int> ids, const la::Matrix& rows,
                  const KernelParams& kernel) {
  const size_t n = rows.rows();
  if (ids.size() != n) {
    return Status::InvalidArgument("Gram: one id per training row");
  }
  if (n > kMaxTrainingRows) {
    return Status::InvalidArgument(
        "training set of " + std::to_string(n) + " rows exceeds the " +
        std::to_string(kMaxTrainingRows) + "-row limit");
  }
  // prev[i]: row i's image's row in the previous bind, or -1. Only a pair
  // of two such rows is copied.
  std::vector<long> prev(n, -1);
  if (!ids_.empty() && kernel == kernel_) {
    std::unordered_map<int, long> prev_row;
    prev_row.reserve(ids_.size());
    for (size_t i = 0; i < ids_.size(); ++i) {
      prev_row.emplace(ids_[i], static_cast<long>(i));
    }
    for (size_t i = 0; i < n; ++i) {
      if (auto it = prev_row.find(ids[i]); it != prev_row.end()) {
        prev[i] = it->second;
      }
    }
  }

  la::Matrix values(n, n);
  size_t computed = 0;
  size_t carried = 0;
  for (size_t i = 0; i < n; ++i) {
    double* row = values.RowPtr(i);
    const double* prev_row =
        prev[i] >= 0 ? values_.RowPtr(static_cast<size_t>(prev[i])) : nullptr;
    // Row i against rows [i, n): copied pairs one by one, each run of
    // pairs to compute in one batch.
    for (size_t j = i; j < n;) {
      if (prev_row != nullptr && prev[j] >= 0) {
        row[j] = prev_row[prev[j]];
        ++carried;
        ++j;
        continue;
      }
      size_t end = j + 1;
      while (end < n && (prev_row == nullptr || prev[end] < 0)) ++end;
      EvalKernelRowBatch(kernel, rows, rows.RowPtr(i), row + j, j, end);
      computed += end - j;
      j = end;
    }
    for (size_t j = i + 1; j < n; ++j) values.RowPtr(j)[i] = row[j];
  }

  ids_ = std::move(ids);
  kernel_ = kernel;
  values_ = std::move(values);
  computed_ = computed;
  carried_ = carried;
  Metrics().carried->Increment(carried);
  Metrics().computed->Increment(computed);
  // A feedback round binds one Gram per modality; the request's EXPLAIN
  // profile sums them.
  if (obs::RequestTrace* trace = obs::CurrentTrace(); trace != nullptr) {
    trace->AddCounter("kernel_cache_hits", static_cast<int64_t>(carried));
    trace->AddCounter("kernel_cache_misses", static_cast<int64_t>(computed));
  }
  return Status::OK();
}

size_t Gram::AllocatedBytes() const {
  return values_.data().capacity() * sizeof(double) +
         ids_.capacity() * sizeof(int);
}

void Gram::Clear() {
  ids_.clear();
  ids_.shrink_to_fit();
  values_ = la::Matrix();
  computed_ = 0;
  carried_ = 0;
}

}  // namespace cbir::svm

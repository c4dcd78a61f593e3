#include "core/kernel_columns.h"

#include <algorithm>
#include <unordered_set>

#include "core/feedback_scheme.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace cbir::core {
namespace {

/// Registry series of the column store (cached once, wait-free after
/// that), summed over every round in the process.
struct ColumnMetrics {
  obs::Counter* computed;
  obs::Counter* reused;
  obs::Counter* log_pairs;
};

const ColumnMetrics& Metrics() {
  static const ColumnMetrics metrics = [] {
    obs::MetricsRegistry& r = obs::MetricsRegistry::Default();
    ColumnMetrics m;
    m.computed = r.GetCounter("cbir_core_kernel_columns_computed_total");
    m.reused = r.GetCounter("cbir_core_kernel_columns_reused_total");
    m.log_pairs = r.GetCounter("cbir_core_log_pairs_scored_total");
    return m;
  }();
  return metrics;
}

/// Counts columns computed (held or streamed) and reused (read from the
/// store), and log kernel pairs scored, into the registry and the request
/// being traced, if any.
void CountWork(size_t computed, size_t reused, size_t log_pairs) {
  Metrics().computed->Increment(computed);
  Metrics().reused->Increment(reused);
  Metrics().log_pairs->Increment(log_pairs);
  if (obs::RequestTrace* trace = obs::CurrentTrace(); trace != nullptr) {
    trace->AddCounter("kernel_columns_computed",
                      static_cast<int64_t>(computed));
    trace->AddCounter("kernel_columns_reused", static_cast<int64_t>(reused));
    trace->AddCounter("log_pairs_scored", static_cast<int64_t>(log_pairs));
  }
}

/// Runs fn(begin, end) over the rows [0, n): in one call below 2^20
/// multiply-adds of `work`, else in row blocks across threads. A candidate
/// pool (a few hundred rows) stays on the calling thread: with concurrent
/// sessions, starting and joining the workers costs more than splitting
/// the batch saves. Rows are independent, so the split changes no value.
template <class Fn>
void ForRowBlocks(size_t n, size_t work, const Fn& fn) {
  constexpr size_t kBlockRows = 256;
  if (work < (size_t{1} << 20) || n <= kBlockRows) {
    fn(size_t{0}, n);
    return;
  }
  ParallelFor((n + kBlockRows - 1) / kBlockRows, [&](size_t block) {
    const size_t begin = block * kBlockRows;
    fn(begin, std::min(n, begin + kBlockRows));
  });
}

}  // namespace

void KernelColumnStore::Bind(const FeedbackContext& ctx, size_t modality,
                             const svm::KernelParams& kernel) {
  CBIR_CHECK(modality == 0 || ctx.ScanLogRows() != nullptr)
      << "log columns need a log";
  if (!(kernel == kernel_) || modality != modality_ ||
      ctx.scan_size() != scan_size_ || ctx.scan_ids != scan_ids_) {
    columns_.clear();
    scan_ids_ = ctx.scan_ids;
  }
  ctx_ = &ctx;
  modality_ = modality;
  kernel_ = kernel;
  rbf_ = kernel.type == svm::KernelType::kRbf;
  scan_size_ = ctx.scan_size();
  if (sparse()) {
    const la::SparseRowView empty(nullptr, nullptr, 0);
    fill_ = svm::EvalKernel(kernel_, empty, empty, ctx.LogRows()->cols());
  }
}

size_t KernelColumnStore::ColumnWork() const {
  if (modality_ == 0) return scan_size_ * ctx_->ScanFeatures().cols();
  // Merge steps: every row walks both rows' nonzeros.
  return scan_size_ + ctx_->ScanLogRows()->nnz();
}

void KernelColumnStore::FillDense(int id, size_t begin, size_t end,
                                  double* out) const {
  if (modality_ == 0) {
    svm::EvalKernelRowBatch(
        kernel_, ctx_->ScanFeatures(),
        ctx_->db->features().RowPtr(static_cast<size_t>(id)), out, begin,
        end);
    return;
  }
  const la::SparseRows& scan_log = *ctx_->ScanLogRows();
  const la::SparseRowView x = ctx_->LogRows()->Row(static_cast<size_t>(id));
  for (size_t pos = begin; pos < end; ++pos) {
    out[pos - begin] =
        svm::EvalKernel(kernel_, x, scan_log.Row(pos), scan_log.cols());
  }
}

svm::KernelColumn KernelColumnStore::SparseColumn(int id) const {
  const la::SparseRows& scan_log = *ctx_->ScanLogRows();
  const la::SparseRows& sessions = *ctx_->ScanLogSessions();
  const la::SparseRowView x = ctx_->LogRows()->Row(static_cast<size_t>(id));
  svm::KernelColumn column;
  column.sparse = true;
  column.fill = fill_;
  for (size_t k = 0; k < x.nnz; ++k) {
    const la::SparseRowView judged = sessions.Row(x.index[k]);
    column.rows.insert(column.rows.end(), judged.index,
                       judged.index + judged.nnz);
  }
  std::sort(column.rows.begin(), column.rows.end());
  column.rows.erase(std::unique(column.rows.begin(), column.rows.end()),
                    column.rows.end());
  column.values.resize(column.rows.size());
  for (size_t i = 0; i < column.rows.size(); ++i) {
    column.values[i] = svm::EvalKernel(
        kernel_, x, scan_log.Row(column.rows[i]), scan_log.cols());
  }
  return column;
}

svm::KernelColumn KernelColumnStore::NewColumn(int id,
                                               size_t* log_pairs) const {
  if (sparse()) {
    svm::KernelColumn column = SparseColumn(id);
    *log_pairs += column.rows.size();
    return column;
  }
  if (modality_ != 0) *log_pairs += scan_size_;
  svm::KernelColumn column;
  column.values.resize(scan_size_);
  return column;
}

void KernelColumnStore::Hold(const std::vector<int>& ids) {
  CBIR_CHECK(ctx_ != nullptr) << "Bind before Hold";
  const std::unordered_set<int> wanted(ids.begin(), ids.end());
  std::erase_if(columns_, [&](const auto& entry) {
    return !wanted.contains(entry.first);
  });
  std::vector<int> missing;
  size_t log_pairs = 0;
  for (int id : wanted) {
    if (columns_.contains(id)) continue;
    missing.push_back(id);
    columns_.emplace(id, NewColumn(id, &log_pairs));
  }
  if (!sparse() && !missing.empty()) {
    // Look the columns up once: the map does not move its values while the
    // row blocks fill them.
    std::vector<double*> out;
    out.reserve(missing.size());
    for (int id : missing) out.push_back(columns_.at(id).values.data());
    ForRowBlocks(scan_size_, missing.size() * ColumnWork(),
                 [&](size_t begin, size_t end) {
                   for (size_t i = 0; i < missing.size(); ++i) {
                     FillDense(missing[i], begin, end, out[i] + begin);
                   }
                 });
  }
  CountWork(missing.size(), wanted.size() - missing.size(), log_pairs);
}

const svm::KernelColumn& KernelColumnStore::Column(int id) const {
  const auto it = columns_.find(id);
  CBIR_CHECK(it != columns_.end()) << "no column held for image " << id;
  return it->second;
}

std::vector<int> KernelColumnStore::SupportIds(
    const svm::SvmModel& model, const std::vector<int>& row_ids) const {
  const std::vector<size_t>& rows = model.support_rows();
  CBIR_CHECK_EQ(rows.size(), model.num_support_vectors())
      << "the model does not record its support vectors' training rows";
  std::vector<int> ids(rows.size());
  for (size_t s = 0; s < rows.size(); ++s) ids[s] = row_ids.at(rows[s]);
  return ids;
}

std::vector<double> KernelColumnStore::Decisions(
    const svm::SvmModel& model, const std::vector<int>& row_ids) const {
  const std::vector<int> ids = SupportIds(model, row_ids);
  const std::vector<double>& coef = model.coefficients();
  const size_t num_sv = ids.size();
  // Held columns are read; sparse log columns of the others are built here
  // (a few co-marked rows each), dense ones computed per row block below.
  std::vector<const svm::KernelColumn*> held(num_sv, nullptr);
  std::vector<svm::KernelColumn> streamed(num_sv);
  size_t computed = 0, log_pairs = 0;
  for (size_t s = 0; s < num_sv; ++s) {
    if (const auto it = columns_.find(ids[s]); it != columns_.end()) {
      held[s] = &it->second;
      continue;
    }
    ++computed;
    if (sparse()) {
      streamed[s] = NewColumn(ids[s], &log_pairs);
    } else if (modality_ != 0) {
      log_pairs += scan_size_;
    }
  }
  std::vector<double> out(scan_size_);
  const size_t dense_work = sparse() ? 0 : computed * ColumnWork();
  ForRowBlocks(
      scan_size_, dense_work + scan_size_ * num_sv,
      [&](size_t begin, size_t end) {
        svm::DecisionLanes lanes(begin, end, num_sv);
        std::vector<double> scratch;
        for (size_t s = 0; s < num_sv; ++s) {
          if (held[s] != nullptr) {
            lanes.Add(coef[s], *held[s]);
          } else if (sparse()) {
            lanes.Add(coef[s], streamed[s]);
          } else {
            scratch.resize(end - begin);
            FillDense(ids[s], begin, end, scratch.data());
            lanes.Add(coef[s], scratch.data());
          }
        }
        lanes.Finish(model.bias(), out.data() + begin);
      });
  CountWork(computed, num_sv - computed, log_pairs);
  return out;
}

std::vector<double> KernelColumnStore::SequentialDecisions(
    const svm::SvmModel& model, const std::vector<int>& row_ids) const {
  const std::vector<int> ids = SupportIds(model, row_ids);
  std::vector<double> out(scan_size_, model.bias());
  for (size_t s = 0; s < ids.size(); ++s) {
    const svm::KernelColumn& column = Column(ids[s]);
    const double coef = model.coefficients()[s];
    if (!column.sparse) {
      for (size_t pos = 0; pos < scan_size_; ++pos) {
        out[pos] += coef * column.values[pos];
      }
      continue;
    }
    // Every row adds a term, the unlisted ones coef * K(+0.0): the bias a
    // row starts from may be -0, which adding +0 would change.
    size_t k = 0;
    for (size_t pos = 0; pos < scan_size_; ++pos) {
      double value = column.fill;
      if (k < column.rows.size() && column.rows[k] == pos) {
        value = column.values[k++];
      }
      out[pos] += coef * value;
    }
  }
  CountWork(0, ids.size(), 0);
  return out;
}

size_t KernelColumnStore::AllocatedBytes() const {
  size_t bytes = scan_ids_.capacity() * sizeof(int);
  for (const auto& [id, column] : columns_) bytes += column.AllocatedBytes();
  return bytes;
}

}  // namespace cbir::core

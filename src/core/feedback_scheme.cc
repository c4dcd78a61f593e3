#include "core/feedback_scheme.h"

#include <algorithm>
#include <cmath>

#include "retrieval/ranker.h"
#include "util/logging.h"

namespace cbir::core {

Status CheckQueryFeature(const retrieval::ImageDatabase& db,
                         const la::Vec& feature, const char* who) {
  if (feature.size() != db.features().cols()) {
    return Status::InvalidArgument(
        std::string(who) + ": query feature has " +
        std::to_string(feature.size()) + " dims, corpus has " +
        std::to_string(db.features().cols()));
  }
  for (double v : feature) {
    if (!std::isfinite(v)) {
      return Status::InvalidArgument(
          std::string(who) + ": query feature contains a non-finite value");
    }
  }
  return Status::OK();
}

Status FeedbackContext::Prepare(const std::vector<int>* candidates) {
  if (db == nullptr) {
    return Status::InvalidArgument("feedback context: null database");
  }
  if (labeled_ids.size() != labels.size()) {
    return Status::InvalidArgument(
        "feedback context: labeled_ids/labels size mismatch");
  }
  if (query_id >= 0) {
    if (query_id >= db->num_images()) {
      return Status::InvalidArgument("feedback context: query id " +
                                     std::to_string(query_id) +
                                     " out of range [0, " +
                                     std::to_string(db->num_images()) + ")");
    }
    query_feature = db->feature(query_id);
  } else {
    // External query-by-example: the caller supplied the raw feature vector.
    CBIR_RETURN_NOT_OK(
        CheckQueryFeature(*db, query_feature, "feedback context"));
  }

  scan_ids.clear();
  ReleaseKernelColumns();
  scan_features_ = la::Matrix();
  scan_log_rows_ = la::SparseRows();
  scan_log_sessions_ = la::SparseRows();
  owned_log_rows_ = la::SparseRows();
  if (log_rows == nullptr && log_features != nullptr) {
    owned_log_rows_ = la::SparseRows::FromDense(*log_features);
  }
  if (const la::SparseRows* log = LogRows();
      log != nullptr &&
      log->rows() != static_cast<size_t>(db->num_images())) {
    return Status::InvalidArgument(
        "feedback context: log has " + std::to_string(log->rows()) +
        " rows, corpus has " + std::to_string(db->num_images()) + " images");
  }
  if (db->index() != nullptr && candidate_depth > 0) {
    // Exhaustive indexes return the "every row" sentinel (empty), keeping
    // the corpus-wide path below — and its bit-identical rankings.
    scan_ids = candidates != nullptr
                   ? *candidates
                   : db->index()->Candidates(query_feature, candidate_depth);
  }
  if (scan_ids.empty()) {
    query_distances =
        retrieval::AllSquaredDistances(db->features(), query_feature);
    if (const la::SparseRows* log = LogRows()) {
      scan_log_sessions_ = log->Transpose();
    }
    return Status::OK();
  }

  // Narrowed scan space: gather the candidate rows once so every scheme's
  // scoring loop (SVM decision batches, similarity sums, distance ranks)
  // touches only |scan_ids| rows instead of the whole corpus.
  const la::Matrix& all = db->features();
  scan_features_ = la::Matrix(scan_ids.size(), all.cols());
  for (size_t pos = 0; pos < scan_ids.size(); ++pos) {
    std::copy_n(all.RowPtr(static_cast<size_t>(scan_ids[pos])), all.cols(),
                scan_features_.RowPtr(pos));
  }
  query_distances =
      retrieval::AllSquaredDistances(scan_features_, query_feature);
  if (const la::SparseRows* log = LogRows()) {
    scan_log_rows_ = log->Gather(scan_ids);
    scan_log_sessions_ = scan_log_rows_.Transpose();
  }
  return Status::OK();
}

size_t FeedbackContext::scan_size() const {
  if (!scan_ids.empty()) return scan_ids.size();
  return db == nullptr ? 0 : static_cast<size_t>(db->num_images());
}

int FeedbackContext::ScanId(size_t pos) const {
  return scan_ids.empty() ? static_cast<int>(pos)
                          : scan_ids[pos];
}

const la::Matrix& FeedbackContext::ScanFeatures() const {
  return scan_ids.empty() ? db->features() : scan_features_;
}

const la::SparseRows* FeedbackContext::LogRows() const {
  const la::SparseRows* rows =
      log_rows != nullptr ? log_rows : &owned_log_rows_;
  return rows->empty() ? nullptr : rows;
}

const la::SparseRows* FeedbackContext::ScanLogRows() const {
  const la::SparseRows* log = LogRows();
  if (log == nullptr) return nullptr;
  return scan_ids.empty() ? log : &scan_log_rows_;
}

const la::SparseRows* FeedbackContext::ScanLogSessions() const {
  return ScanLogRows() == nullptr ? nullptr : &scan_log_sessions_;
}

KernelColumnStore& FeedbackContext::KernelColumns(size_t modality) const {
  return kernel_columns_.at(modality);
}

void FeedbackContext::ReleaseKernelColumns() { kernel_columns_ = {}; }

size_t FeedbackContext::KernelColumnBytes() const {
  size_t bytes = 0;
  for (const KernelColumnStore& store : kernel_columns_) {
    bytes += store.AllocatedBytes();
  }
  return bytes;
}

SchemeOptions MakeDefaultSchemeOptions(const retrieval::ImageDatabase& db,
                                       const la::Matrix* log_features) {
  SchemeOptions options;
  options.visual_kernel = svm::KernelParams::Rbf(
      svm::DefaultGamma(db.features()));
  // The log side defaults to a linear kernel: the paper's Section 4
  // formulation is literally linear in the log matrix (u'R assigns one
  // weight per session), and the inner product of two log vectors is the
  // signed co-marking count — the semantically meaningful similarity for
  // sparse ternary session data. This deviates from the paper, whose
  // experiments used RBF on both sides; `experiment_driver
  // --preset=ablation-logrep` compares the two.
  options.log_kernel = svm::KernelParams::Linear();
  options.c_log = 1.0;
  if (log_features != nullptr && !log_features->empty()) {
    // Keep a data-derived gamma on hand so callers flipping the log kernel
    // type to RBF (e.g. `experiment_driver --log-kernel=rbf`) get the LIBSVM
    // default instead of a stale placeholder.
    options.log_kernel.gamma = svm::DefaultGamma(*log_features);
  }
  return options;
}

std::vector<int> FeedbackScheme::FinalizeRanking(
    const FeedbackContext& ctx, const std::vector<double>& scores) {
  CBIR_CHECK_EQ(scores.size(), ctx.scan_size());
  std::vector<int> ranked = retrieval::RankByScoreDesc(
      scores, ctx.query_distances);
  // Map scan positions back to image ids and drop the query itself; every
  // scheme ranks the remaining scanned images.
  std::vector<int> out;
  out.reserve(ranked.size());
  for (int pos : ranked) {
    const int id = ctx.ScanId(static_cast<size_t>(pos));
    if (id != ctx.query_id) out.push_back(id);
  }
  return out;
}

}  // namespace cbir::core

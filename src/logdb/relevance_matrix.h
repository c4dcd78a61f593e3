#ifndef CBIR_LOGDB_RELEVANCE_MATRIX_H_
#define CBIR_LOGDB_RELEVANCE_MATRIX_H_

#include <vector>

#include "la/matrix.h"
#include "la/vector_ops.h"
#include "logdb/log_session.h"

namespace cbir::logdb {

/// \brief The paper's relevance matrix R (Section 2).
///
/// Rows are user log sessions, columns are images; entries are +1 (relevant),
/// -1 (irrelevant) or 0 (not judged). Only the columns are stored: an
/// inverted per-image list of (session, mark), from which a log vector r_i
/// is read directly.
///
/// Each image's log vector r_i has dimension M = number of sessions; that is
/// the representation the log-side SVM consumes.
class RelevanceMatrix {
 public:
  /// Creates an empty matrix over `num_images` columns.
  explicit RelevanceMatrix(int num_images);

  int num_images() const { return num_images_; }
  int num_sessions() const { return num_sessions_; }

  /// Appends one session (one row). Entries with out-of-range image ids or
  /// zero judgments are ignored; duplicate judgments for the same image in
  /// one session keep the last value.
  void AddSession(const LogSession& session);

  /// Rocchio-style default down-weighting of negative marks in the dense
  /// representation. Positive marks ("this image matches my query concept")
  /// are strong category evidence; negative marks only exclude one concept
  /// among many, so classical relevance feedback weights them lower
  /// (Rocchio 1971 — the root of the paper's Section 7 lineage). 1.0
  /// recovers the paper's literal +-1 matrix (compared by
  /// `experiment_driver --preset=ablation-logrep`).
  static constexpr double kRocchioNegativeWeight = 0.25;

  /// Dense M-dim log vector r_i for one image (column of R); -1 marks are
  /// scaled by `negative_weight`.
  la::Vec LogVector(int image_id,
                    double negative_weight = kRocchioNegativeWeight) const;

  /// Materializes all log vectors as an (num_images x M) row-major matrix;
  /// row i is r_i. The experiment harness builds this once and shares it.
  /// -1 marks are scaled by `negative_weight`.
  la::Matrix ToDenseMatrix(
      double negative_weight = kRocchioNegativeWeight) const;

  /// Number of images with at least one judgment.
  int CoveredImages() const;

  /// Total +1 and -1 marks.
  int64_t PositiveCount() const { return positive_count_; }
  int64_t NegativeCount() const { return negative_count_; }

 private:
  struct Mark {
    int session;
    int8_t value;
  };

  int num_images_;
  int num_sessions_ = 0;
  /// Inverted index: per-image list of (session, value).
  std::vector<std::vector<Mark>> image_marks_;
  int64_t positive_count_ = 0;
  int64_t negative_count_ = 0;
};

}  // namespace cbir::logdb

#endif  // CBIR_LOGDB_RELEVANCE_MATRIX_H_

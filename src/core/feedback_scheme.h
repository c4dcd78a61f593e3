#ifndef CBIR_CORE_FEEDBACK_SCHEME_H_
#define CBIR_CORE_FEEDBACK_SCHEME_H_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "core/kernel_columns.h"
#include "la/matrix.h"
#include "la/sparse_rows.h"
#include "la/vector_ops.h"
#include "retrieval/image_database.h"
#include "svm/kernel.h"
#include "util/result.h"

namespace cbir::core {

/// Empty and unused; kept only so perfbench builds unmodified.
struct SessionState {};

/// Checks an external query feature against the corpus: it must have the
/// corpus's dimensionality and only finite values, else InvalidArgument
/// whose message starts with `who` (e.g. "retrieval service").
Status CheckQueryFeature(const retrieval::ImageDatabase& db,
                         const la::Vec& feature, const char* who);

/// \brief Everything a relevance-feedback scheme sees for one query round.
///
/// `labeled_ids` / `labels` are the user's judgments on the initially
/// returned images (the paper's S_l with N_l = 20). The feedback log gives
/// every image i its log vector r_i, one weight per logged session (a row of
/// the paper's relevance matrix R); it is attached as `log_rows`, N sparse
/// rows of M columns, or through the dense `log_features` adapter. Both stay
/// null when no log store is attached; RF-SVM and Euclidean ignore the log.
struct FeedbackContext {
  const retrieval::ImageDatabase* db = nullptr;
  /// The corpus's log vectors as sparse rows, one per image. Every log
  /// kernel is scored from these: a session that did not judge both images
  /// costs nothing.
  const la::SparseRows* log_rows = nullptr;
  /// Dense N x M adapter for callers that hold only the dense matrix:
  /// when `log_rows` is null, Prepare() converts it to sparse rows the
  /// context owns. Nothing is scored from it directly.
  const la::Matrix* log_features = nullptr;
  /// Corpus id of the query image, or -1 for an external
  /// query-by-example: the caller then fills `query_feature` with the raw
  /// feature vector before Prepare() (the standard CBIR setting where the
  /// query is not part of the corpus). With an external query no corpus row
  /// is excluded from the ranking — an identical-feature corpus image ranks
  /// first instead of being dropped.
  int query_id = -1;
  std::vector<int> labeled_ids;
  std::vector<double> labels;  ///< +1 / -1, parallel to labeled_ids
  /// Read by no code; kept only so perfbench builds unmodified.
  SessionState* session_state = nullptr;
  /// Retrieval depth this session actually consumes (max evaluation scope
  /// plus the judgments it will request). When the database carries an
  /// approximate index, Prepare() narrows every corpus scan to the index's
  /// candidate set for this depth; 0 (or an exhaustive/absent index) keeps
  /// the scans corpus-wide.
  int candidate_depth = 0;
  /// Leading ids the caller reads from Rank(). When > 0, Rank() returns
  /// only the first min(rank_depth, scanned rows less the query) ids of the
  /// full ranking, selected without sorting the rest; 0 returns every
  /// scanned id except the query.
  int rank_depth = 0;

  // Derived values, filled by Prepare(). `query_feature` is an *input* when
  // query_id < 0 (external query); for in-corpus queries Prepare overwrites
  // it with the corpus row.
  la::Vec query_feature;
  /// Ids of the rows the schemes score, ascending (empty = every image).
  std::vector<int> scan_ids;
  /// Squared query distance per scanned row, parallel to the scan space.
  std::vector<double> query_distances;

  /// Computes the derived members and drops the held kernel columns; must
  /// be called once before Rank().
  /// Malformed input (null db, out-of-range query id, an external query
  /// feature CheckQueryFeature refuses, labeled/labels arity mismatch,
  /// a log without one row per image, a negative rank_depth) returns
  /// InvalidArgument instead of aborting — a bad request must never kill a
  /// serving process.
  /// `candidates`, when given, is the index's
  /// Candidates(query_feature, candidate_depth) set the caller already
  /// holds from the same scan (retrieval::ImageDatabase::TopK returns it
  /// with a first page); Prepare then narrows to it instead of scanning
  /// the index again.
  Status Prepare(const std::vector<int>* candidates = nullptr);

  /// The corpus's log rows (`log_rows`, or the context's conversion of
  /// `log_features`); null when no log, or an empty one, is attached.
  const la::SparseRows* LogRows() const;

  // --- Scan space: the rows corpus-wide scoring loops iterate over. -------
  /// Number of scanned rows (the whole corpus unless narrowed).
  size_t scan_size() const;
  /// Image id of scan position `pos`.
  int ScanId(size_t pos) const;
  /// Visual feature rows of the scan space; the full corpus matrix when the
  /// scan is exhaustive, otherwise a gathered candidate matrix.
  const la::Matrix& ScanFeatures() const;
  /// Log rows of the scan space (null when no log is attached).
  const la::SparseRows* ScanLogRows() const;
  /// The inverted lists of ScanLogRows(): row c holds the scan positions
  /// that logged session c judged, ascending (null when no log is
  /// attached). A log kernel column under a dot-product kernel is scored
  /// only on the positions it lists.
  const la::SparseRows* ScanLogSessions() const;

  // --- Kernel columns: derived from the scan space, like its rows. -------
  /// Modality `modality`'s kernel column store over the scan space
  /// ([0] visual features, [1] log rows). The SVM schemes bind and fill it
  /// from Rank() despite constness, so a labeled image's column computed
  /// for one scheme or round is read by every later one under the same
  /// kernel, until Prepare() or ReleaseKernelColumns() drops it. Hence one
  /// thread ranks a given context at a time.
  KernelColumnStore& KernelColumns(size_t modality) const;
  /// Drops every held kernel column.
  void ReleaseKernelColumns();
  /// Bytes of the held kernel columns; a session charges them to its
  /// memory.
  size_t KernelColumnBytes() const;

 private:
  la::Matrix scan_features_;      ///< gathered rows when scan_ids is set
  la::SparseRows scan_log_rows_;  ///< gathered log rows when scan_ids is set
  la::SparseRows scan_log_sessions_;  ///< ScanLogRows()->Transpose()
  la::SparseRows owned_log_rows_;  ///< log_features converted by Prepare()
  mutable std::array<KernelColumnStore, 2> kernel_columns_;
};

/// \brief Shared hyper-parameters for the SVM-based schemes.
struct SchemeOptions {
  double c_visual = 10.0;  ///< C_w
  double c_log = 10.0;     ///< C_u
  svm::KernelParams visual_kernel = svm::KernelParams::Rbf(1.0);
  svm::KernelParams log_kernel = svm::KernelParams::Rbf(1.0);
};

/// Fills kernel gammas with LIBSVM-style defaults computed from the data
/// (1 / (dims * variance)); log kernel falls back to visual defaults when no
/// log matrix is given.
SchemeOptions MakeDefaultSchemeOptions(const retrieval::ImageDatabase& db,
                                       const la::Matrix* log_features);

/// \brief Interface implemented by all four compared schemes.
///
/// Rank() returns the scanned image ids except the query itself, ordered
/// from most to least relevant: all of them, or only the first
/// ctx.rank_depth when that is > 0. Implementations must be
/// const-thread-safe: the experiment harness calls Rank concurrently for
/// different queries, each on its own context. A context is ranked by one thread at a time, since
/// Rank may fill its kernel columns.
class FeedbackScheme {
 public:
  virtual ~FeedbackScheme() = default;

  virtual std::string name() const = 0;

  virtual Result<std::vector<int>> Rank(const FeedbackContext& ctx) const = 0;

 protected:
  /// Ranks by descending `scores` with Euclidean-distance tie-breaking,
  /// excluding the query id and keeping at most ctx.rank_depth ids when
  /// that is > 0. `scores` is parallel to the context's scan space
  /// (ctx.ScanId maps positions to image ids). Shared by every scheme.
  static std::vector<int> FinalizeRanking(const FeedbackContext& ctx,
                                          const std::vector<double>& scores);
};

}  // namespace cbir::core

#endif  // CBIR_CORE_FEEDBACK_SCHEME_H_

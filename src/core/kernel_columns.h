#ifndef CBIR_CORE_KERNEL_COLUMNS_H_
#define CBIR_CORE_KERNEL_COLUMNS_H_

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "svm/decision_lanes.h"
#include "svm/kernel.h"
#include "svm/model.h"

namespace cbir::core {

struct FeedbackContext;

/// \brief One modality's kernel columns over a feedback context's scan
/// space, keyed by image id: column x holds K(x, row) for every scan row.
///
/// One relevance-feedback round reads the same kernel values twice: the
/// most-similar selection sums every scan row's kernels against the N_l
/// labeled images, and the ranking sums them against the support vectors,
/// most of which are those same labeled images. The store computes each
/// labeled image's column once and both read it; the columns of
/// pseudo-labeled support vectors are computed while ranking and streamed
/// into the decision lanes, never kept. Every value is bit-identical to
/// the per-row loops it replaces:
///  - visual columns come from svm::EvalKernelRowBatch over the scan
///    features (the squared distance and the dot product are symmetric);
///  - log columns under a dot-product kernel (linear, polynomial) hold
///    K(+0.0), computed once by svm::EvalKernel on two empty rows, and
///    score only the rows that share a session with x, found through
///    FeedbackContext::ScanLogSessions(): a pair with disjoint supports
///    gives exactly +0.0 from la::SparseDot. An RBF log kernel keeps full
///    columns.
///
/// Memory: held columns x scan size x 8 B for the visual modality (and an
/// RBF log kernel); a dot-product log column holds 12 B (value + row) per
/// co-marked row only. The stores live on their FeedbackContext
/// (FeedbackContext::KernelColumns), so every scheme and round that ranks
/// the context reads the same columns: a session keeps a candidate pool's
/// into its next round, and releases a corpus-wide scan's after each
/// round. Not thread-safe; one round uses it at a time.
class KernelColumnStore {
 public:
  /// Points the store at modality `modality` (0 = visual features, 1 = log
  /// rows) of `ctx`'s scan space under `kernel`. `ctx` must stay alive and
  /// unmodified until the next Bind. Held columns survive only when they
  /// were computed over the same scan ids with the same kernel.
  void Bind(const FeedbackContext& ctx, size_t modality,
            const svm::KernelParams& kernel);

  /// Afterwards the store holds exactly the columns of `ids`: the missing
  /// ones are computed (fanning out over row blocks for corpus-sized
  /// work), the others dropped.
  void Hold(const std::vector<int>& ids);

  /// The held column of image `id`.
  const svm::KernelColumn& Column(int id) const;

  /// Decision values of `model` for every scan row, bit-identical to
  /// bias + la::DotN(kernel row, coefficients): held columns are read, the
  /// other support vectors' columns computed and streamed into the lanes.
  /// `row_ids[i]` is the image of training row i (the model's
  /// support_rows() index it).
  std::vector<double> Decisions(const svm::SvmModel& model,
                                const std::vector<int>& row_ids) const;

  /// Decision values summed in support-vector order from the bias, exactly
  /// like svm::SvmModel::Decision on each row. Every support vector's
  /// column must be held (Fig. 1's labeled-only models).
  std::vector<double> SequentialDecisions(
      const svm::SvmModel& model, const std::vector<int>& row_ids) const;

  /// Bytes of the held columns; a session charges them to its memory.
  size_t AllocatedBytes() const;

 private:
  bool sparse() const { return modality_ != 0 && !rbf_; }
  /// K(id, row) for scan rows [begin, end) into out[0, end - begin).
  void FillDense(int id, size_t begin, size_t end, double* out) const;
  /// The co-marked rows of `id` and their log kernels.
  svm::KernelColumn SparseColumn(int id) const;
  /// A fresh column of `id`: dense (allocated, filled later by FillDense)
  /// or complete when sparse. Adds its log pairs to `*log_pairs`.
  svm::KernelColumn NewColumn(int id, size_t* log_pairs) const;
  /// Kernel work of one dense column, in multiply-adds or merge steps.
  size_t ColumnWork() const;
  /// Image ids of `model`'s support vectors.
  std::vector<int> SupportIds(const svm::SvmModel& model,
                              const std::vector<int>& row_ids) const;

  const FeedbackContext* ctx_ = nullptr;
  size_t modality_ = 0;
  svm::KernelParams kernel_;
  bool rbf_ = false;
  double fill_ = 0.0;  ///< K(+0.0) of a sparse log column
  size_t scan_size_ = 0;
  std::vector<int> scan_ids_;  ///< the scan the held columns cover
  std::unordered_map<int, svm::KernelColumn> columns_;
};

}  // namespace cbir::core

#endif  // CBIR_CORE_KERNEL_COLUMNS_H_

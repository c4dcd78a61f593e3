#ifndef CBIR_INDEX_INDEX_H_
#define CBIR_INDEX_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "la/matrix.h"
#include "la/vector_ops.h"

namespace cbir::retrieval {

/// \brief Snapshot of an index's lifetime work counters.
///
/// All counters accumulate across Query/QueryBatch/Candidates calls (which
/// may run concurrently); ResetStats() zeroes them. `recall_proxy` is a
/// cheap online quality signal for approximate indexes: the mean fraction of
/// returned results lying strictly inside the Hamming candidate cutoff.
/// Results sitting exactly at the cutoff could have been displaced by an
/// excluded row with the same signature distance, so a proxy near 1.0 means
/// the candidate set was comfortably wide. Exhaustive indexes report 1.0.
/// It is a proxy only — use retrieval::RecallAtK against an exact ranking
/// for a ground-truth measurement.
struct IndexStats {
  uint64_t queries = 0;
  /// Rows fully scanned by exhaustive Euclidean passes.
  uint64_t rows_scanned = 0;
  /// Packed signatures Hamming-compared by approximate candidate scans.
  uint64_t signatures_scanned = 0;
  /// Candidate rows exactly re-ranked by Euclidean distance.
  uint64_t candidates_reranked = 0;
  double recall_proxy = 1.0;
};

/// \brief Sub-linear (or exhaustive) top-k Euclidean retrieval over a corpus
/// feature matrix.
///
/// The contract every implementation honors:
///  - Query(q, k) returns row ids ordered by ascending exact Euclidean
///    distance to `q`, ties broken on the smaller id — the same order
///    RankByEuclidean produces, restricted to the index's candidate set.
///    Exhaustive indexes reproduce RankByEuclidean bit-for-bit.
///  - Build() must be called once before any query; it does NOT copy the
///    feature matrix. The caller keeps the matrix's storage alive and
///    unmodified for the index's lifetime (moving the owning object is fine —
///    the index holds the heap buffer, not the Matrix object).
///  - All query entry points are const-thread-safe.
class Index {
 public:
  virtual ~Index() = default;

  virtual std::string name() const = 0;

  /// Indexes `features` (one row per image). Replaces any previous build.
  virtual void Build(const la::Matrix& features) = 0;

  /// Number of indexed rows (0 before Build).
  virtual size_t num_rows() const = 0;

  /// Top-k row ids by ascending Euclidean distance (see class contract).
  /// `k <= 0` requests the full ranking, which always takes the exhaustive
  /// path — an approximate ranking of everything approximates nothing.
  virtual std::vector<int> Query(const la::Vec& query, int k) const = 0;

  /// One ranking per row of `queries`; element i equals Query(row i, k).
  /// The default implementation loops; SignatureIndex fans out across
  /// threads.
  virtual std::vector<std::vector<int>> QueryBatch(const la::Matrix& queries,
                                                   int k) const;

  /// The row ids whose exact scores a downstream ranker (SVM decision
  /// values, selection heuristics, ...) should compute for a depth-k
  /// retrieval, in ascending id order. An empty return means "every row" —
  /// exhaustive indexes narrow nothing. Approximate indexes return an
  /// oversampled superset of Query(query, k)'s results.
  virtual std::vector<int> Candidates(const la::Vec& query, int k) const = 0;

  /// Query(query, k) that also writes to `candidates` (when non-null) the
  /// set Candidates(query, k) returns, from the same scan: a caller that
  /// needs both a first page and its candidate pool scans once. The
  /// default calls both; SignatureIndex returns the set it reranked.
  virtual std::vector<int> QueryWithCandidates(
      const la::Vec& query, int k, std::vector<int>* candidates) const;

  virtual IndexStats stats() const = 0;
  virtual void ResetStats() = 0;
};

}  // namespace cbir::retrieval

#endif  // CBIR_INDEX_INDEX_H_

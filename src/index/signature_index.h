#ifndef CBIR_INDEX_SIGNATURE_INDEX_H_
#define CBIR_INDEX_SIGNATURE_INDEX_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "index/index.h"

namespace cbir::retrieval {

/// \brief Knobs for the random-hyperplane signature index.
struct SignatureIndexOptions {
  /// Signature width B in bits. More bits sharpen the Hamming ordering at
  /// the cost of build time and scan bandwidth; 256 (4 words) keeps the
  /// whole 20k-corpus signature block inside L2.
  int bits = 256;
  /// Oversampling: a depth-k retrieval Hamming-scans for k * candidate_factor
  /// candidates before the exact rerank. Raising it trades speed for recall.
  int candidate_factor = 8;
  /// Seed for the hyperplane draw. Same seed + same data = bit-identical
  /// signatures across rebuilds, machines, and thread counts.
  uint64_t seed = 0x51673;
  /// Worker threads for Build (0 = hardware concurrency).
  int num_threads = 0;
};

/// \brief Approximate top-k Euclidean retrieval via packed binary signatures
/// (TopSig-style random hyperplane LSH).
///
/// Build() draws B Gaussian hyperplanes through the corpus centroid and
/// encodes every row into a B-bit signature (bit b = which side of
/// hyperplane b the centered row falls on), packed into uint64_t words.
/// A query Hamming-scans all signatures with popcount, keeps the
/// k * candidate_factor rows with the smallest signature distance (ties on
/// smaller id), and exactly re-ranks only those by Euclidean distance — the
/// returned prefix therefore orders exactly like RankByEuclidean restricted
/// to the candidate set. Centering on the corpus mean makes the angular
/// signature distance track Euclidean proximity on z-scored features.
///
/// `k <= 0` (full-ranking requests) falls back to the exhaustive scan and
/// reproduces RankByEuclidean bit-for-bit.
class SignatureIndex final : public Index {
 public:
  explicit SignatureIndex(const SignatureIndexOptions& options);

  std::string name() const override { return "signature"; }

  void Build(const la::Matrix& features) override;

  /// Rebuilds the cheap derived state (hyperplanes, offsets) from the seed
  /// and `features`, then installs previously computed `signatures` instead
  /// of re-encoding every row — the expensive part of Build. `signatures`
  /// must be the packed block of a Build over the same options and data
  /// (ImageDatabase persistence uses this to skip the rebuild after load).
  void RestoreSignatures(const la::Matrix& features,
                         std::vector<uint64_t> signatures);

  size_t num_rows() const override { return rows_; }

  std::vector<int> Query(const la::Vec& query, int k) const override;

  /// Parallelizes across queries (one thread per block of queries; the
  /// per-query scan stays serial so threads never nest).
  std::vector<std::vector<int>> QueryBatch(const la::Matrix& queries,
                                           int k) const override;

  std::vector<int> Candidates(const la::Vec& query, int k) const override;

  /// Query's own Hamming scan supplies the candidates: one scan, not two.
  std::vector<int> QueryWithCandidates(
      const la::Vec& query, int k,
      std::vector<int>* candidates) const override;

  IndexStats stats() const override;
  void ResetStats() override;

  // Introspection (tests and benches).
  int bits() const { return options_.bits; }
  size_t words_per_row() const { return words_; }
  const SignatureIndexOptions& options() const { return options_; }
  /// Packed signatures, row-major `num_rows() x words_per_row()`.
  const std::vector<uint64_t>& signatures() const { return signatures_; }
  /// Encodes an arbitrary vector with the index's hyperplanes.
  std::vector<uint64_t> Encode(const la::Vec& v) const;

 private:
  /// Hamming-selects up to k * candidate_factor candidate ids (ascending).
  /// `cutoff` gets the largest included Hamming distance and `truncated`
  /// whether any row was excluded; `hamming` (optional) gets the per-
  /// candidate distances, parallel to the returned ids.
  std::vector<int> SelectCandidates(const la::Vec& query, int k,
                                    std::vector<uint32_t>* hamming,
                                    uint32_t* cutoff, bool* truncated) const;

  std::vector<int> ExhaustiveQuery(const la::Vec& query, int k) const;

  /// Shared prefix of Build/RestoreSignatures: binds `features` and derives
  /// the hyperplane family (everything except the per-row encoding).
  void BuildPlanes(const la::Matrix& features);

  SignatureIndexOptions options_;
  const double* data_ = nullptr;  ///< caller-owned row-major feature storage
  size_t rows_ = 0;
  size_t dims_ = 0;
  size_t words_ = 0;

  std::vector<double> hyperplanes_;  ///< bits x dims, row-major
  std::vector<double> plane_offsets_;  ///< <centroid, hyperplane b> per bit
  std::vector<uint64_t> signatures_;   ///< rows x words, row-major

  mutable std::atomic<uint64_t> queries_{0};
  mutable std::atomic<uint64_t> rows_scanned_{0};
  mutable std::atomic<uint64_t> signatures_scanned_{0};
  mutable std::atomic<uint64_t> candidates_reranked_{0};
  // recall_proxy bookkeeping: results returned vs. results sitting exactly
  // at the Hamming candidate cutoff (displaceable by excluded rows).
  mutable std::atomic<uint64_t> results_returned_{0};
  mutable std::atomic<uint64_t> results_at_cutoff_{0};
};

}  // namespace cbir::retrieval

#endif  // CBIR_INDEX_SIGNATURE_INDEX_H_

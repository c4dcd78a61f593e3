#include "index/signature_index.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "retrieval/ranker.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace cbir::retrieval {

namespace {

// Hamming scan with a compile-time word count so the XOR+popcount loop fully
// unrolls; the per-row histogram update feeds the O(n) candidate cutoff.
template <size_t W>
void HammingScanFixed(const uint64_t* sigs, size_t rows, const uint64_t* q,
                      uint16_t* dist, uint32_t* histogram) {
  for (size_t r = 0; r < rows; ++r, sigs += W) {
    uint32_t d = 0;
    for (size_t w = 0; w < W; ++w) {
      d += static_cast<uint32_t>(std::popcount(sigs[w] ^ q[w]));
    }
    dist[r] = static_cast<uint16_t>(d);
    ++histogram[d];
  }
}

void HammingScan(const uint64_t* sigs, size_t rows, size_t words,
                 const uint64_t* q, uint16_t* dist, uint32_t* histogram) {
  switch (words) {
    case 1:
      return HammingScanFixed<1>(sigs, rows, q, dist, histogram);
    case 2:
      return HammingScanFixed<2>(sigs, rows, q, dist, histogram);
    case 3:
      return HammingScanFixed<3>(sigs, rows, q, dist, histogram);
    case 4:
      return HammingScanFixed<4>(sigs, rows, q, dist, histogram);
    case 8:
      return HammingScanFixed<8>(sigs, rows, q, dist, histogram);
    default:
      for (size_t r = 0; r < rows; ++r, sigs += words) {
        uint32_t d = 0;
        for (size_t w = 0; w < words; ++w) {
          d += static_cast<uint32_t>(std::popcount(sigs[w] ^ q[w]));
        }
        dist[r] = static_cast<uint16_t>(d);
        ++histogram[d];
      }
  }
}

}  // namespace

SignatureIndex::SignatureIndex(const SignatureIndexOptions& options)
    : options_(options) {
  CBIR_CHECK_GT(options_.bits, 0);
  CBIR_CHECK_LE(options_.bits, 65535);  // Hamming distances live in uint16_t
  CBIR_CHECK_GT(options_.candidate_factor, 0);
  words_ = (static_cast<size_t>(options_.bits) + 63) / 64;
}

void SignatureIndex::BuildPlanes(const la::Matrix& features) {
  rows_ = features.rows();
  dims_ = features.cols();
  data_ = features.empty() ? nullptr : features.RowPtr(0);
  const size_t bits = static_cast<size_t>(options_.bits);

  // Centroid of the corpus: hyperplanes pass through it so signature bits
  // split the data roughly in half instead of all agreeing on the far side
  // of the origin.
  std::vector<double> centroid(dims_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    const double* row = data_ + r * dims_;
    for (size_t c = 0; c < dims_; ++c) centroid[c] += row[c];
  }
  if (rows_ > 0) {
    for (size_t c = 0; c < dims_; ++c) centroid[c] /= static_cast<double>(rows_);
  }

  // Gaussian hyperplane directions, drawn serially from the seed so the
  // signature family never depends on the thread count.
  Rng rng(options_.seed);
  hyperplanes_.assign(bits * dims_, 0.0);
  for (double& h : hyperplanes_) h = rng.Gaussian();
  plane_offsets_.assign(bits, 0.0);
  for (size_t b = 0; b < bits; ++b) {
    plane_offsets_[b] = la::DotN(hyperplanes_.data() + b * dims_,
                                 centroid.data(), dims_);
  }
}

void SignatureIndex::Build(const la::Matrix& features) {
  BuildPlanes(features);
  const size_t bits = static_cast<size_t>(options_.bits);
  signatures_.assign(rows_ * words_, 0);
  ParallelFor(
      rows_,
      [&](size_t r) {
        const double* row = data_ + r * dims_;
        uint64_t* sig = signatures_.data() + r * words_;
        for (size_t b = 0; b < bits; ++b) {
          const double proj =
              la::DotN(row, hyperplanes_.data() + b * dims_, dims_);
          if (proj >= plane_offsets_[b]) sig[b / 64] |= uint64_t{1} << (b % 64);
        }
      },
      options_.num_threads);
  ResetStats();
}

void SignatureIndex::RestoreSignatures(const la::Matrix& features,
                                       std::vector<uint64_t> signatures) {
  BuildPlanes(features);
  CBIR_CHECK_EQ(signatures.size(), rows_ * words_)
      << "RestoreSignatures: packed block does not match rows x words";
  signatures_ = std::move(signatures);
  ResetStats();
}

std::vector<uint64_t> SignatureIndex::Encode(const la::Vec& v) const {
  CBIR_CHECK_EQ(v.size(), dims_);
  std::vector<uint64_t> sig(words_, 0);
  for (size_t b = 0; b < static_cast<size_t>(options_.bits); ++b) {
    const double proj = la::DotN(v.data(), hyperplanes_.data() + b * dims_,
                                 dims_);
    if (proj >= plane_offsets_[b]) sig[b / 64] |= uint64_t{1} << (b % 64);
  }
  return sig;
}

std::vector<int> SignatureIndex::SelectCandidates(
    const la::Vec& query, int k, std::vector<uint32_t>* hamming,
    uint32_t* cutoff, bool* truncated) const {
  CBIR_CHECK(data_ != nullptr) << "SignatureIndex: Build() before querying";
  CBIR_CHECK_GT(k, 0);
  const std::vector<uint64_t> qsig = Encode(query);

  // Popcount Hamming scan over the packed signature block, accumulating the
  // distance histogram on the fly. Hamming distances are bounded by `bits`,
  // so the top-C selection below is two O(n) passes (histogram cutoff)
  // instead of a comparison sort — the scan stays the only hot loop.
  std::vector<uint16_t> dist(rows_);
  std::vector<uint32_t> histogram(static_cast<size_t>(options_.bits) + 1, 0);
  HammingScan(signatures_.data(), rows_, words_, qsig.data(), dist.data(),
              histogram.data());
  signatures_scanned_.fetch_add(rows_, std::memory_order_relaxed);

  const size_t want = std::min(
      rows_, static_cast<size_t>(k) *
                 static_cast<size_t>(options_.candidate_factor));

  // Smallest h with |{d <= h}| >= want: rows below the cutoff are all taken,
  // rows at the cutoff fill the remaining quota in ascending-id order — the
  // same set a full (hamming, id) sort would keep.
  uint32_t h_star = static_cast<uint32_t>(options_.bits);
  size_t below_cutoff = 0;
  for (size_t h = 0, cum = 0; h < histogram.size(); ++h) {
    if (cum + histogram[h] >= want) {
      h_star = static_cast<uint32_t>(h);
      below_cutoff = cum;
      break;
    }
    cum += histogram[h];
  }
  size_t cutoff_quota = want - below_cutoff;

  std::vector<int> ids;
  ids.reserve(want);
  for (size_t r = 0; r < rows_ && ids.size() < want; ++r) {
    const uint32_t d = dist[r];
    if (d < h_star) {
      ids.push_back(static_cast<int>(r));
    } else if (d == h_star && cutoff_quota > 0) {
      ids.push_back(static_cast<int>(r));
      --cutoff_quota;
    }
  }

  if (cutoff != nullptr) *cutoff = h_star;
  if (truncated != nullptr) *truncated = want < rows_;
  if (hamming != nullptr) {
    hamming->resize(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      (*hamming)[i] = dist[static_cast<size_t>(ids[i])];
    }
  }
  return ids;
}

std::vector<int> SignatureIndex::ExhaustiveQuery(const la::Vec& query,
                                                 int k) const {
  rows_scanned_.fetch_add(rows_, std::memory_order_relaxed);
  return RankByEuclidean(data_, rows_, dims_, query.data(), k);
}

std::vector<int> SignatureIndex::Query(const la::Vec& query, int k) const {
  return QueryWithCandidates(query, k, nullptr);
}

std::vector<int> SignatureIndex::QueryWithCandidates(
    const la::Vec& query, int k, std::vector<int>* candidates) const {
  CBIR_CHECK_EQ(query.size(), dims_);
  if (candidates != nullptr) candidates->clear();
  queries_.fetch_add(1, std::memory_order_relaxed);
  if (rows_ == 0) return {};
  if (k <= 0) return ExhaustiveQuery(query, k);

  std::vector<uint32_t> hamming;
  uint32_t cutoff = 0;
  bool truncated = false;
  std::vector<int> cand =
      SelectCandidates(query, k, &hamming, &cutoff, &truncated);

  // Exact Euclidean rerank of the candidate set; ties break on the smaller
  // id exactly like RankByEuclidean.
  std::vector<double> exact(cand.size());
  for (size_t i = 0; i < cand.size(); ++i) {
    exact[i] = la::SquaredDistanceN(
        data_ + static_cast<size_t>(cand[i]) * dims_, query.data(), dims_);
  }
  candidates_reranked_.fetch_add(cand.size(), std::memory_order_relaxed);

  std::vector<size_t> order(cand.size());
  std::iota(order.begin(), order.end(), size_t{0});
  auto cmp = [&](size_t a, size_t b) {
    if (exact[a] != exact[b]) return exact[a] < exact[b];
    return cand[a] < cand[b];  // cand is ascending, but be explicit
  };
  const size_t keep = std::min(cand.size(), static_cast<size_t>(k));
  if (keep < order.size()) {
    std::nth_element(order.begin(), order.begin() + keep, order.end(), cmp);
    order.resize(keep);
  }
  std::sort(order.begin(), order.end(), cmp);

  std::vector<int> out;
  out.reserve(order.size());
  uint64_t at_cutoff = 0;
  for (size_t pos : order) {
    out.push_back(cand[pos]);
    if (truncated && hamming[pos] == cutoff) ++at_cutoff;
  }
  results_returned_.fetch_add(out.size(), std::memory_order_relaxed);
  results_at_cutoff_.fetch_add(at_cutoff, std::memory_order_relaxed);
  if (candidates != nullptr) *candidates = std::move(cand);
  return out;
}

std::vector<std::vector<int>> SignatureIndex::QueryBatch(
    const la::Matrix& queries, int k) const {
  std::vector<std::vector<int>> out(queries.rows());
  ParallelFor(queries.rows(), [&](size_t q) { out[q] = Query(queries.Row(q), k); });
  return out;
}

std::vector<int> SignatureIndex::Candidates(const la::Vec& query,
                                            int k) const {
  CBIR_CHECK_EQ(query.size(), dims_);
  if (rows_ == 0) return {};
  if (k <= 0) return {};  // full-depth request: every row is a candidate
  queries_.fetch_add(1, std::memory_order_relaxed);
  return SelectCandidates(query, k, nullptr, nullptr, nullptr);
}

IndexStats SignatureIndex::stats() const {
  IndexStats s;
  s.queries = queries_.load(std::memory_order_relaxed);
  s.rows_scanned = rows_scanned_.load(std::memory_order_relaxed);
  s.signatures_scanned = signatures_scanned_.load(std::memory_order_relaxed);
  s.candidates_reranked = candidates_reranked_.load(std::memory_order_relaxed);
  const uint64_t returned = results_returned_.load(std::memory_order_relaxed);
  const uint64_t risky = results_at_cutoff_.load(std::memory_order_relaxed);
  s.recall_proxy =
      returned == 0
          ? 1.0
          : 1.0 - static_cast<double>(risky) / static_cast<double>(returned);
  return s;
}

void SignatureIndex::ResetStats() {
  queries_.store(0, std::memory_order_relaxed);
  rows_scanned_.store(0, std::memory_order_relaxed);
  signatures_scanned_.store(0, std::memory_order_relaxed);
  candidates_reranked_.store(0, std::memory_order_relaxed);
  results_returned_.store(0, std::memory_order_relaxed);
  results_at_cutoff_.store(0, std::memory_order_relaxed);
}

}  // namespace cbir::retrieval

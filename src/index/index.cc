#include "index/index.h"

#include "util/logging.h"

namespace cbir::retrieval {

std::vector<std::vector<int>> Index::QueryBatch(const la::Matrix& queries,
                                                int k) const {
  std::vector<std::vector<int>> out(queries.rows());
  for (size_t q = 0; q < queries.rows(); ++q) {
    out[q] = Query(queries.Row(q), k);
  }
  return out;
}

std::vector<int> Index::QueryWithCandidates(
    const la::Vec& query, int k, std::vector<int>* candidates) const {
  if (candidates != nullptr) *candidates = Candidates(query, k);
  return Query(query, k);
}

}  // namespace cbir::retrieval

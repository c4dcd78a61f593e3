#include "core/unlabeled_selection.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_set>

#include "util/logging.h"
#include "util/rng.h"

namespace cbir::core {

const char* SelectionStrategyToString(SelectionStrategy strategy) {
  switch (strategy) {
    case SelectionStrategy::kMostSimilar:
      return "most-similar";
    case SelectionStrategy::kMaxMin:
      return "max-min";
    case SelectionStrategy::kBoundaryClosest:
      return "boundary-closest";
    case SelectionStrategy::kRandom:
      return "random";
  }
  return "?";
}

Result<SelectionStrategy> ParseSelectionStrategy(const std::string& name) {
  for (SelectionStrategy strategy :
       {SelectionStrategy::kMostSimilar, SelectionStrategy::kMaxMin,
        SelectionStrategy::kBoundaryClosest, SelectionStrategy::kRandom}) {
    if (name == SelectionStrategyToString(strategy)) return strategy;
  }
  return Status::InvalidArgument(
      "unknown selection strategy: '" + name +
      "' (expected most-similar|max-min|boundary-closest|random)");
}

namespace {

// The first `count` candidate positions by `keys` descending, ties by
// candidate id ascending; `reversed` reads that order backwards (ascending
// key, descending id). Ids are unique, so the order is total, and selecting
// with nth_element, then sorting only the winners, keeps a full sort's picks.
std::vector<size_t> OrderByDesc(const std::vector<double>& keys,
                                const std::vector<int>& ids, size_t count,
                                bool reversed = false) {
  const auto desc = [&](size_t a, size_t b) {
    if (keys[a] != keys[b]) return keys[a] > keys[b];
    return ids[a] < ids[b];
  };
  const auto before = [&](size_t a, size_t b) {
    return reversed ? desc(b, a) : desc(a, b);
  };
  std::vector<size_t> order(keys.size());
  std::iota(order.begin(), order.end(), size_t{0});
  if (count < order.size()) {
    std::nth_element(order.begin(), order.begin() + count, order.end(),
                     before);
    order.resize(count);
  }
  std::sort(order.begin(), order.end(), before);
  return order;
}

}  // namespace

SelectionResult SelectUnlabeled(SelectionStrategy strategy,
                                const SelectionInputs& inputs, int n_prime,
                                uint64_t seed) {
  CBIR_CHECK_GE(n_prime, 0);
  const std::vector<int>& ids = inputs.candidate_ids;
  const size_t available = ids.size();

  SelectionResult out;
  const size_t want = std::min<size_t>(static_cast<size_t>(n_prime),
                                       available);
  if (want == 0) return out;

  switch (strategy) {
    case SelectionStrategy::kMostSimilar: {
      CBIR_CHECK_EQ(inputs.similarity_to_positives.size(), available);
      CBIR_CHECK_EQ(inputs.similarity_to_negatives.size(), available);
      const size_t top = want / 2 + (want % 2);
      // At most `top` positives are taken before the negatives, so the
      // first `want` of by_neg always hold enough untaken ones.
      const auto by_pos =
          OrderByDesc(inputs.similarity_to_positives, ids, top);
      const auto by_neg =
          OrderByDesc(inputs.similarity_to_negatives, ids, want);
      std::unordered_set<int> taken;
      for (size_t i = 0; i < by_pos.size() && out.ids.size() < top; ++i) {
        const int id = ids[by_pos[i]];
        if (!taken.insert(id).second) continue;
        out.ids.push_back(id);
        out.initial_labels.push_back(1.0);
      }
      for (size_t i = 0; i < by_neg.size() && out.ids.size() < want; ++i) {
        const int id = ids[by_neg[i]];
        if (!taken.insert(id).second) continue;
        out.ids.push_back(id);
        out.initial_labels.push_back(-1.0);
      }
      break;
    }
    case SelectionStrategy::kMaxMin: {
      CBIR_CHECK_EQ(inputs.combined_decisions.size(), available);
      const size_t top = want / 2 + (want % 2);  // odd N' favors positives
      const size_t bottom = want - top;
      for (size_t pos : OrderByDesc(inputs.combined_decisions, ids, top)) {
        out.ids.push_back(ids[pos]);
        out.initial_labels.push_back(1.0);
      }
      for (size_t pos : OrderByDesc(inputs.combined_decisions, ids, bottom,
                                    /*reversed=*/true)) {
        out.ids.push_back(ids[pos]);
        out.initial_labels.push_back(-1.0);
      }
      break;
    }
    case SelectionStrategy::kBoundaryClosest: {
      CBIR_CHECK_EQ(inputs.combined_decisions.size(), available);
      std::vector<double> neg_abs(available);
      for (size_t i = 0; i < available; ++i) {
        neg_abs[i] = -std::fabs(inputs.combined_decisions[i]);
      }
      for (size_t pos : OrderByDesc(neg_abs, ids, want)) {
        out.ids.push_back(ids[pos]);
        out.initial_labels.push_back(
            inputs.combined_decisions[pos] >= 0.0 ? 1.0 : -1.0);
      }
      break;
    }
    case SelectionStrategy::kRandom: {
      CBIR_CHECK_EQ(inputs.combined_decisions.size(), available);
      std::vector<size_t> order(available);
      std::iota(order.begin(), order.end(), size_t{0});
      Rng rng(seed);
      rng.Shuffle(&order);
      for (size_t i = 0; i < want; ++i) {
        const size_t pos = order[i];
        out.ids.push_back(ids[pos]);
        out.initial_labels.push_back(
            inputs.combined_decisions[pos] >= 0.0 ? 1.0 : -1.0);
      }
      break;
    }
  }
  return out;
}

}  // namespace cbir::core

#include "logdb/simulated_user.h"

#include <algorithm>
#include <numeric>

#include "la/vector_ops.h"
#include "util/logging.h"

namespace cbir::logdb {

SimulatedUser::SimulatedUser(std::vector<int> categories,
                             const UserModel& model)
    : categories_(std::move(categories)), model_(model) {
  CBIR_CHECK(!categories_.empty());
  CBIR_CHECK_GE(model_.noise_rate, 0.0);
  CBIR_CHECK_LE(model_.noise_rate, 1.0);
}

int SimulatedUser::category(int image_id) const {
  CBIR_CHECK_GE(image_id, 0);
  CBIR_CHECK_LT(image_id, num_images());
  return categories_[static_cast<size_t>(image_id)];
}

bool SimulatedUser::IsRelevant(int image_id, int query_category) const {
  return category(image_id) == query_category;
}

int8_t SimulatedUser::Judge(int image_id, int query_category,
                            Rng* rng) const {
  int8_t truth = IsRelevant(image_id, query_category) ? int8_t{1} : int8_t{-1};
  if (rng->Bernoulli(model_.noise_rate)) {
    truth = static_cast<int8_t>(-truth);
  }
  return truth;
}

std::vector<LogEntry> SimulatedUser::JudgeRound(
    const std::vector<int>& ranking, int query_category, int n,
    std::unordered_set<int>* judged, Rng* rng) const {
  std::vector<LogEntry> round;
  for (int id : ranking) {
    if (static_cast<int>(round.size()) >= n) break;
    if (!judged->insert(id).second) continue;
    round.push_back(LogEntry{id, Judge(id, query_category, rng)});
  }
  return round;
}

LogStore CollectLogs(const la::Matrix& features,
                     const std::vector<int>& categories,
                     const LogCollectionOptions& options) {
  CBIR_CHECK_EQ(features.rows(), categories.size());
  CBIR_CHECK_GT(options.num_sessions, 0);
  CBIR_CHECK_GT(options.session_size, 0);
  const int n = static_cast<int>(features.rows());

  SimulatedUser user(categories, options.user);
  Rng rng(options.seed);
  LogStore store;

  std::vector<int> order(static_cast<size_t>(n));
  std::vector<double> dist(static_cast<size_t>(n));

  for (int s = 0; s < options.num_sessions; ++s) {
    const int query = static_cast<int>(rng.UniformInt(
        static_cast<uint64_t>(n)));
    const la::Vec q = features.Row(static_cast<size_t>(query));

    for (int i = 0; i < n; ++i) {
      dist[static_cast<size_t>(i)] = la::SquaredDistance(
          features.Row(static_cast<size_t>(i)), q);
    }
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      if (dist[static_cast<size_t>(a)] != dist[static_cast<size_t>(b)]) {
        return dist[static_cast<size_t>(a)] < dist[static_cast<size_t>(b)];
      }
      return a < b;
    });

    LogSession session;
    session.query_image_id = query;
    const int qcat = categories[static_cast<size_t>(query)];
    int taken = 0;
    for (int rank = 0; rank < n && taken < options.session_size; ++rank) {
      const int candidate = order[static_cast<size_t>(rank)];
      if (candidate == query) continue;  // the query itself is not judged
      session.entries.push_back(
          LogEntry{candidate, user.Judge(candidate, qcat, &rng)});
      ++taken;
    }
    store.Append(std::move(session));
  }
  return store;
}

}  // namespace cbir::logdb

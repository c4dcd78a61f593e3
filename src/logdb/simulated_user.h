#ifndef CBIR_LOGDB_SIMULATED_USER_H_
#define CBIR_LOGDB_SIMULATED_USER_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "la/matrix.h"
#include "logdb/log_store.h"
#include "util/rng.h"

namespace cbir::logdb {

/// \brief Noise model for simulated relevance judgments.
///
/// The paper collected logs from real users and notes the data "contain more
/// or less noise" from subjectivity differences. We model that as an i.i.d.
/// label-flip probability, an explicit knob swept by
/// `experiment_driver --preset=ablation-noise`.
struct UserModel {
  double noise_rate = 0.10;
};

/// \brief Simulates a user judging images against a query's category.
class SimulatedUser {
 public:
  /// `categories[i]` is the ground-truth category of image i.
  SimulatedUser(std::vector<int> categories, const UserModel& model);

  /// Judges one image for a query of category `query_category`: returns +1
  /// for same-category (relevant), -1 otherwise, with the noise model's flip
  /// probability applied. Deterministic given `rng` state.
  int8_t Judge(int image_id, int query_category, Rng* rng) const;

  /// One feedback round: judges the first `n` ids of `ranking` not yet in
  /// `judged` (which holds the query too) and adds them to it. One RNG draw
  /// per judged image, in ranking order.
  std::vector<LogEntry> JudgeRound(const std::vector<int>& ranking,
                                   int query_category, int n,
                                   std::unordered_set<int>* judged,
                                   Rng* rng) const;

  /// Noise-free ground-truth relevance (used by the evaluation protocol,
  /// which the paper runs with automatic category-based judgments).
  bool IsRelevant(int image_id, int query_category) const;

  int category(int image_id) const;
  int num_images() const { return static_cast<int>(categories_.size()); }

 private:
  std::vector<int> categories_;
  UserModel model_;
};

/// \brief Options for replaying the paper's log-collection protocol (§6.3).
struct LogCollectionOptions {
  int num_sessions = 150;  ///< paper: 150 per dataset
  int session_size = 20;   ///< paper: 20 returned images judged per round
  UserModel user;
  uint64_t seed = 7;
};

/// \brief Runs the §6.3 protocol against a feature database:
/// for each session, draw a random query image, rank the corpus by Euclidean
/// distance on `features`, present the top `session_size` images (excluding
/// the query itself) and record the simulated user's judgments.
///
/// `features` must hold one (normalized) row per image; `categories` the
/// ground truth. Deterministic in `options.seed`.
LogStore CollectLogs(const la::Matrix& features,
                     const std::vector<int>& categories,
                     const LogCollectionOptions& options);

}  // namespace cbir::logdb

#endif  // CBIR_LOGDB_SIMULATED_USER_H_

#ifndef CBIR_CORE_EXPERIMENT_H_
#define CBIR_CORE_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "core/feedback_scheme.h"
#include "la/matrix.h"
#include "retrieval/evaluator.h"
#include "retrieval/image_database.h"

namespace cbir::core {

/// \brief Configuration of the paper's evaluation protocol (Section 6.4).
struct ExperimentOptions {
  int num_queries = 200;  ///< paper: 200 random queries
  int num_labeled = 20;   ///< paper: top-20 initial results judged
  uint64_t seed = 123;
  std::vector<int> scopes = retrieval::PaperScopes();
  int num_threads = 0;    ///< 0 = hardware concurrency
  /// Retrieval depth requested from an approximate database index
  /// (0 = auto: max scope + num_labeled + 1); a positive value must exceed
  /// the deepest scope. Ignored when the database has no index or an
  /// exhaustive one.
  int candidate_depth = 0;
};

/// \brief One scheme's row block in a results table.
struct SchemeResult {
  std::string name;
  std::vector<double> precision;  ///< mean precision per scope
  double map = 0.0;               ///< mean over scopes (the paper's MAP row)
};

/// \brief Full experiment output.
struct ExperimentResult {
  std::vector<int> scopes;
  std::vector<SchemeResult> schemes;
  int num_queries = 0;
};

/// \brief Runs the Section 6.4 protocol:
///
/// For each of `num_queries` randomly drawn query images: rank the corpus by
/// Euclidean distance, auto-judge the top `num_labeled` results against
/// category ground truth (the paper simulates noise-free user judgments for
/// evaluation), hand the labeled set to every scheme, and accumulate
/// precision at each scope over the schemes' re-rankings. The query image is
/// excluded from returned rankings.
///
/// Deterministic in `options.seed`; queries run in parallel. Empty
/// schemes or scopes, a scope the corpus cannot fill, or a positive
/// `candidate_depth` not above the deepest scope abort.
ExperimentResult RunExperiment(
    const retrieval::ImageDatabase& db, const la::Matrix* log_features,
    const std::vector<std::shared_ptr<FeedbackScheme>>& schemes,
    const ExperimentOptions& options);

/// Renders the result in the paper's table layout (one row per scope, one
/// column per scheme, improvement percentages versus `baseline_column`
/// appended to later columns, and a final MAP row).
std::string FormatPaperTable(const ExperimentResult& result,
                             int baseline_column = 1);

}  // namespace cbir::core

#endif  // CBIR_CORE_EXPERIMENT_H_

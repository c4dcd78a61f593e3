#include "core/experiment.h"

#include <algorithm>
#include <sstream>

#include "util/logging.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace cbir::core {

ExperimentResult RunExperiment(
    const retrieval::ImageDatabase& db, const la::Matrix* log_features,
    const std::vector<std::shared_ptr<FeedbackScheme>>& schemes,
    const ExperimentOptions& options) {
  CBIR_CHECK(!schemes.empty());
  CBIR_CHECK_GT(options.num_queries, 0);
  CBIR_CHECK_GT(options.num_labeled, 0);
  CBIR_CHECK(!options.scopes.empty());
  const int n = db.num_images();
  CBIR_CHECK_GT(n, options.num_labeled + 1);
  for (int scope : options.scopes) {
    CBIR_CHECK_LT(scope, n)
        << "scope " << scope << " exceeds the " << n - 1
        << " images a ranking can return (corpus of " << n << ")";
  }

  // Draw distinct query images (falls back to the full corpus when more
  // queries than images are requested).
  Rng rng(options.seed);
  std::vector<size_t> query_pool = rng.SampleWithoutReplacement(
      static_cast<size_t>(n),
      static_cast<size_t>(std::min(options.num_queries, n)));
  const size_t num_queries = query_pool.size();

  // Depth an approximate index must serve: the deepest scope consumers read
  // plus the judged prefix and the query itself.
  int max_scope = 0;
  for (int scope : options.scopes) max_scope = std::max(max_scope, scope);
  const int candidate_depth = options.candidate_depth > 0
                                  ? options.candidate_depth
                                  : max_scope + options.num_labeled + 1;

  // precision[s][q] = precision vector of scheme s on query q.
  std::vector<std::vector<std::vector<double>>> precision(
      schemes.size(),
      std::vector<std::vector<double>>(num_queries));

  // Every query scores the log from one sparse copy of it.
  const la::SparseRows log_rows = log_features != nullptr
                                      ? la::SparseRows::FromDense(*log_features)
                                      : la::SparseRows();

  ParallelFor(
      num_queries,
      [&](size_t q) {
        FeedbackContext ctx;
        ctx.db = &db;
        ctx.log_rows = log_rows.empty() ? nullptr : &log_rows;
        ctx.query_id = static_cast<int>(query_pool[q]);
        ctx.candidate_depth = candidate_depth;
        // Queries come from the validated pool, so a failure here is a
        // programming error, not user input.
        CBIR_CHECK_OK(ctx.Prepare());

        // Initial retrieval: top-N_l Euclidean results (query excluded),
        // auto-judged against ground-truth categories (noise-free, per the
        // paper's automatic evaluation protocol). Routed through the
        // database index when one is attached.
        const std::vector<int> initial =
            db.TopK(ctx.query_feature, options.num_labeled + 1);
        const int query_category = db.category(ctx.query_id);
        for (int id : initial) {
          if (id == ctx.query_id) continue;
          if (static_cast<int>(ctx.labeled_ids.size()) >=
              options.num_labeled) {
            break;
          }
          ctx.labeled_ids.push_back(id);
          ctx.labels.push_back(db.category(id) == query_category ? 1.0 : -1.0);
        }

        // Every scheme ranks this one context, so the SVM schemes share its
        // labeled images' kernel columns: each is computed once per query.
        for (size_t s = 0; s < schemes.size(); ++s) {
          Result<std::vector<int>> ranked = schemes[s]->Rank(ctx);
          CBIR_CHECK(ranked.ok())
              << schemes[s]->name() << ": " << ranked.status().ToString();
          precision[s][q] = retrieval::PrecisionAtScopes(
              ranked.value(), db.categories(), query_category, options.scopes);
        }
      },
      options.num_threads);

  ExperimentResult result;
  result.scopes = options.scopes;
  result.num_queries = static_cast<int>(num_queries);
  for (size_t s = 0; s < schemes.size(); ++s) {
    retrieval::PrecisionAccumulator acc(options.scopes);
    for (size_t q = 0; q < num_queries; ++q) acc.Add(precision[s][q]);
    SchemeResult sr;
    sr.name = schemes[s]->name();
    sr.precision = acc.MeanPrecision();
    sr.map = acc.MeanAveragePrecision();
    result.schemes.push_back(std::move(sr));
  }
  return result;
}

std::string FormatPaperTable(const ExperimentResult& result,
                             int baseline_column) {
  CBIR_CHECK_GE(baseline_column, 0);
  CBIR_CHECK_LT(static_cast<size_t>(baseline_column), result.schemes.size());

  std::vector<std::string> header{"#TOP"};
  for (const SchemeResult& s : result.schemes) header.push_back(s.name);
  TablePrinter table(header);

  const SchemeResult& base = result.schemes[
      static_cast<size_t>(baseline_column)];
  auto format_cell = [&](size_t col, double value, double base_value) {
    std::string cell = FormatDouble(value, 3);
    if (static_cast<int>(col) > baseline_column) {
      cell += " (" +
              FormatPercent(retrieval::RelativeImprovement(value, base_value)) +
              ")";
    }
    return cell;
  };

  for (size_t i = 0; i < result.scopes.size(); ++i) {
    std::vector<std::string> row{std::to_string(result.scopes[i])};
    for (size_t s = 0; s < result.schemes.size(); ++s) {
      row.push_back(format_cell(s, result.schemes[s].precision[i],
                                base.precision[i]));
    }
    table.AddRow(std::move(row));
  }
  table.AddSeparator();
  std::vector<std::string> map_row{"MAP"};
  for (size_t s = 0; s < result.schemes.size(); ++s) {
    map_row.push_back(format_cell(s, result.schemes[s].map, base.map));
  }
  table.AddRow(std::move(map_row));

  std::ostringstream oss;
  oss << "queries=" << result.num_queries << "\n";
  table.Print(oss);
  return oss.str();
}

}  // namespace cbir::core

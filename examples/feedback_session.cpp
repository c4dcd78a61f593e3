// Multi-round relevance feedback session: demonstrates how precision climbs
// across feedback rounds for the paper's LRF-CSVM versus classical RF-SVM,
// and surfaces the coupled SVM's diagnostics (rho annealing steps, label
// flips) after each round.
//
// Each round the simulated user judges the current top-20 unjudged results,
// which extends the labeled set for the next round — the standard iterative
// relevance-feedback protocol the paper describes in Section 2.
#include <algorithm>
#include <iostream>
#include <set>

#include "core/scheme_factory.h"
#include "logdb/simulated_user.h"
#include "retrieval/evaluator.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace {

constexpr const char* kHelp =
    R"(feedback_session — multi-round LRF-CSVM vs RF-SVM session

  --index=M             exact | signature (default exact)
  --signature_bits=N    signature width in bits (default 256)
  --candidate_factor=N  Hamming candidates per requested result (default 8)
  --index-seed=N        hyperplane seed (default 333427)
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace cbir;

  auto flags_or = Flags::Parse(argc - 1, argv + 1);
  if (!flags_or.ok()) {
    std::cerr << flags_or.status() << "\n" << kHelp;
    return 1;
  }
  const Flags& flags = flags_or.value();
  if (flags.GetBool("help", false)) {
    std::cout << kHelp;
    return 0;
  }
  std::vector<std::string> known = retrieval::IndexFlagNames();
  known.push_back("help");
  if (Status s = flags.RequireKnown(known); !s.ok()) {
    std::cerr << s << "\n" << kHelp;
    return 1;
  }
  auto index_options = retrieval::IndexOptionsFromFlags(flags);
  if (!index_options.ok()) {
    std::cerr << index_options.status() << "\n" << kHelp;
    return 1;
  }

  retrieval::DatabaseOptions db_options;
  db_options.corpus.num_categories = 8;
  db_options.corpus.images_per_category = 40;
  db_options.corpus.width = 64;
  db_options.corpus.height = 64;
  db_options.corpus.seed = 21;
  std::cout << "building corpus (8 categories x 40 images)...\n";
  retrieval::ImageDatabase db = retrieval::ImageDatabase::Build(db_options);
  db.BuildIndex(index_options.value());
  std::cout << "retrieval index: " << db.index()->name() << "\n";

  logdb::LogCollectionOptions log_options;
  log_options.num_sessions = 60;
  log_options.session_size = 15;
  log_options.seed = 9;
  const logdb::LogStore store =
      logdb::CollectLogs(db.features(), db.categories(), log_options);
  const la::Matrix log_features =
      store.BuildMatrix(db.num_images()).ToDenseMatrix();

  const core::SchemeOptions scheme_options =
      core::MakeDefaultSchemeOptions(db, &log_features);
  const auto rf_svm = core::MakeScheme("RF-SVM", scheme_options).value();
  const auto lrf_csvm_scheme =
      core::MakeScheme("LRF-CSVM", scheme_options).value();
  // MakeScheme builds every SVM scheme as a CoupledSvmScheme; its
  // TrainForContext exposes the coupled model's diagnostics.
  const auto& lrf_csvm =
      static_cast<const core::CoupledSvmScheme&>(*lrf_csvm_scheme);

  // Pick a genuinely hard query: the one with the worst initial Euclidean
  // P@20 among the first 60 images (easy queries saturate at 1.0 in round
  // one and show nothing).
  int query_id = 0;
  double worst_p20 = 2.0;
  for (int candidate = 0; candidate < 60; ++candidate) {
    auto ranked = db.TopK(db.feature(candidate), 21);
    ranked.erase(std::remove(ranked.begin(), ranked.end(), candidate),
                 ranked.end());
    const double p20 = retrieval::PrecisionAtN(
        ranked, db.categories(), db.category(candidate), 20);
    if (p20 < worst_p20) {
      worst_p20 = p20;
      query_id = candidate;
    }
  }
  const int query_category = db.category(query_id);
  std::cout << "query image " << query_id << " (category '"
            << db.category_name(query_category)
            << "', initial Euclidean P@20 = " << FormatDouble(worst_p20, 2)
            << ")\n\n";

  // Run the two schemes through 4 feedback rounds each, independently.
  for (const bool use_csvm : {false, true}) {
    std::cout << (use_csvm ? "LRF-CSVM" : "RF-SVM") << " session:\n";

    core::FeedbackContext ctx;
    ctx.db = &db;
    ctx.log_features = &log_features;
    ctx.query_id = query_id;
    // 4 rounds x 20 judgments plus the P@20 reads.
    ctx.candidate_depth = 128;
    CBIR_CHECK_OK(ctx.Prepare());

    std::set<int> judged{query_id};
    // Round 0: the user judges the top-20 Euclidean results.
    std::vector<int> current = db.TopK(ctx.query_feature,
                                       ctx.candidate_depth);
    for (int round = 1; round <= 4; ++round) {
      int added = 0;
      for (int id : current) {
        if (judged.count(id) > 0) continue;
        judged.insert(id);
        ctx.labeled_ids.push_back(id);
        ctx.labels.push_back(db.category(id) == query_category ? 1.0 : -1.0);
        if (++added == 20) break;
      }

      Result<std::vector<int>> ranked =
          use_csvm ? lrf_csvm.Rank(ctx) : rf_svm->Rank(ctx);
      if (!ranked.ok()) {
        std::cout << "  round " << round << " failed: "
                  << ranked.status().ToString() << "\n";
        break;
      }
      current = ranked.value();
      const double p20 = retrieval::PrecisionAtN(current, db.categories(),
                                                 query_category, 20);
      std::cout << "  round " << round << ": labeled=" << ctx.labels.size()
                << "  P@20=" << FormatDouble(p20, 3);
      if (use_csvm) {
        auto model = lrf_csvm.TrainForContext(ctx);
        if (model.ok()) {
          std::cout << "  [csvm: " << model->diagnostics.outer_iterations
                    << " rho steps, " << model->diagnostics.total_flips
                    << " label flips]";
        }
      }
      std::cout << "\n";
    }
    std::cout << "\n";
  }

  std::cout << "Expected: both schemes improve across rounds; LRF-CSVM "
               "starts higher thanks to the log prior.\n";
  return 0;
}

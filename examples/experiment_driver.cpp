// Configurable experiment driver: runs the paper's evaluation protocol with
// every knob exposed as a command-line flag, so new corpus / log / scheme
// configurations can be explored without recompiling.
//
//   ./experiment_driver --categories=20 --images=100 --sessions=150
//       --noise=0.1 --queries=200 --nprime=20 --rho=0.08 --csv=out.csv
//
// The paper's tables, figures and ablations are presets: named flag lists,
// e.g. `--preset=table2` or `--preset=ablation-rho`. Run with --help for the
// full flag list.
#include <functional>
#include <iostream>

#include "core/experiment.h"
#include "core/scheme_factory.h"
#include "logdb/simulated_user.h"
#include "util/csv_writer.h"
#include "util/flags.h"
#include "util/string_util.h"

namespace {

using namespace cbir;

constexpr const char* kHelp = R"(experiment_driver — paper evaluation with configurable knobs

Corpus:
  --categories=N     semantic categories (default 20)
  --images=N         images per category (default 100)
  --size=N           image raster size (default 96)
  --difficulty=X     appearance jitter scale (default 2.5)
  --corpus-seed=N    corpus seed (default 42)

Feedback log:
  --sessions=N       log sessions to collect (default 150)
  --session-size=N   judgments per session (default 20)
  --noise=X          judgment flip probability (default 0.1)
  --neg-weight=X     negative-mark weight in log vectors (default 0.25)
  --log-kernel=K     linear | rbf (default linear; rbf is the paper's
                     RBF-on-both-sides setting with the data-derived gamma
                     and C = 10)
  --log-seed=N       log collection seed (default 7)

Evaluation:
  --queries=N        random queries (default 200)
  --labeled=N        judged initial results per query (default 20)
  --query-seed=N     query sampling seed (default 123)

LRF-CSVM:
  --nprime=N         unlabeled samples N' (default 20)
  --rho=X            final unlabeled weight (default 0.08)
  --delta=X          label-flip threshold (default 2.0)
  --selection=S      most-similar | max-min | boundary-closest | random

Index:
  --index=M          exact | signature (default exact; exact reproduces the
                     exhaustive scan bit-for-bit)
  --signature_bits=N signature width in bits (default 256)
  --candidate_factor=N  Hamming candidates per requested result (default 8)
  --candidate-depth=N   depth requested from an approximate index
                        (default: max scope + labeled + 1)
  --index-seed=N     hyperplane seed (default 333427)

Output:
  --csv=PATH         also write the precision series as CSV (with a leading
                     point column when a preset has several points)

Presets (a preset's flags come first, so flags given here override them):
  --preset=NAME      one of:
)";

constexpr const char* kKnownFlags[] = {
    "categories", "images",       "size",       "difficulty", "corpus-seed",
    "sessions",   "session-size", "noise",      "neg-weight", "log-kernel",
    "log-seed",   "queries",      "labeled",    "query-seed", "nprime",
    "rho",        "delta",        "selection",  "candidate-depth",
    "csv",        "preset",       "help",
};

/// A paper experiment as data: flag assignments parsed ahead of the command
/// line, plus optional points, each a few more assignments. The corpus is
/// built once; each point collects its own log and runs all four schemes.
struct Preset {
  const char* name;
  std::vector<std::string> flags;
  /// Flags a point may set: log, scheme and evaluation, never corpus.
  std::vector<std::vector<std::string>> points;
  const char* title;
  /// The paper's reference text, printed after the last table.
  const char* reference;
};

// The ablations run at reduced scale (50 images per category, 100 log
// sessions, 80 queries) so each point stays cheap; the qualitative effects
// survive the downscaling.
const std::vector<std::string> kAblationFlags = {"--images=50",
                                                 "--sessions=100",
                                                 "--queries=80"};

const Preset kPresets[] = {
    {"table1",
     {},
     {},
     "=== Table 1 and Figure 3: quantitative evaluation on the 20-Category "
     "dataset ===",
     R"(Paper reference (Hoi, Lyu & Jin, ICDE'05, Table 1; COREL corpus):
  #TOP  Euclidean  RF-SVM  LRF-2SVMs        LRF-CSVM
  20    0.398      0.491   0.603 (+22.9%)   0.699 (+42.4%)
  50    0.287      0.379   0.426 (+12.5%)   0.484 (+27.8%)
  100   0.221      0.289   0.310 (+7.2%)    0.336 (+16.1%)
  MAP   0.283      0.370   0.418 (+12.3%)   0.471 (+25.9%)
  Expected shape: Euclidean < RF-SVM < LRF-2SVMs < LRF-CSVM at
  every scope; LRF-CSVM's improvement roughly double LRF-2SVMs'.

Paper reference (Fig. 3 shape):
  All four curves decline monotonically from scope 20 to 100.
  Order at every scope: LRF-CSVM > LRF-2SVMs > RF-SVM > Euclidean.
  At scope 20 the curves span roughly 0.40 (Euclidean) to 0.70
  (LRF-CSVM); at scope 100 roughly 0.22 to 0.34.

)"},
    {"table2",
     {"--categories=50", "--corpus-seed=43", "--log-seed=8",
      "--query-seed=321"},
     {},
     "=== Table 2 and Figure 4: quantitative evaluation on the 50-Category "
     "dataset ===",
     R"(Paper reference (Hoi, Lyu & Jin, ICDE'05, Table 2; COREL corpus):
  #TOP  Euclidean  RF-SVM  LRF-2SVMs        LRF-CSVM
  20    0.342      0.399   0.475 (+18.9%)   0.522 (+30.6%)
  50    0.244      0.296   0.331 (+11.7%)   0.355 (+19.8%)
  100   0.189      0.226   0.241 (+6.7%)    0.258 (+14.4%)
  MAP   0.242      0.291   0.325 (+11.2%)   0.351 (+20.0%)
  Expected shape: same ordering as Table 1, with smaller
  improvements than the 20-Category run (log diversity effect).

Paper reference (Fig. 4 shape):
  Same ordering as Fig. 3 (LRF-CSVM on top, Euclidean at bottom),
  with all curves lower than the 20-Category run: at scope 20 the
  span is roughly 0.34 to 0.52, at scope 100 roughly 0.19 to 0.26.
  Relative gains of log-based schemes shrink versus Fig. 3.

)"},
    {"ablation-rho",
     kAblationFlags,
     {{"--rho=0.01"}, {"--rho=0.05"}, {"--rho=0.1"}, {"--rho=0.5"},
      {"--rho=1"}},
     "=== Ablation: coupled-SVM rho (unlabeled weight) ===",
     "Paper reference (Section 6.5): whether an optimal rho exists is posed "
     "as an open question; small rho should behave like LRF-2SVMs "
     "(unlabeled data ignored), large rho risks letting pseudo-labels "
     "dominate.\n"},
    {"ablation-nprime",
     kAblationFlags,
     {{"--nprime=0"}, {"--nprime=10"}, {"--nprime=20"}, {"--nprime=40"},
      {"--nprime=80"}},
     "=== Ablation: number of unlabeled samples N' (LRF-CSVM) ===",
     "Paper reference: Fig. 1 uses N' unlabeled samples split half "
     "max-distance / half min-distance; the paper runs N' = 20 and leaves "
     "the selection size open.\n"},
    {"ablation-selection",
     kAblationFlags,
     {{"--selection=most-similar"}, {"--selection=max-min"},
      {"--selection=boundary-closest"}, {"--selection=random"}},
     "=== Ablation: unlabeled-selection strategy (LRF-CSVM) ===",
     "Paper reference (Section 6.5): 'choose unlabeled images closest to "
     "the positive labeled images for half the samples, and those closest "
     "to the negative labeled images for the other half' (= most-similar); "
     "max-min is Fig. 1's literal pseudo-code; boundary-closest (active "
     "learning) was tried by the authors and found unpromising.\n"},
    {"ablation-noise",
     kAblationFlags,
     {{"--noise=0"}, {"--noise=0.05"}, {"--noise=0.1"}, {"--noise=0.2"},
      {"--noise=0.3"}},
     "=== Ablation: user-log label noise ===",
     "Expected shape: RF-SVM is flat (no log); the log-based schemes decay "
     "as noise grows, staying above RF-SVM at the paper's ~10% regime.\n"},
    {"ablation-sessions",
     kAblationFlags,
     {{"--sessions=25"}, {"--sessions=50"}, {"--sessions=100"},
      {"--sessions=150"}, {"--sessions=300"}},
     "=== Ablation: log volume (number of sessions) ===",
     "Expected shape: MAP grows with session count and begins to saturate "
     "once most frequently-retrieved images carry marks; gains persist even "
     "at 25-50 sessions (the paper's 'limited log' claim).\n"},
    {"ablation-logrep",
     kAblationFlags,
     {{"--log-kernel=linear", "--neg-weight=1"},
      {"--log-kernel=linear", "--neg-weight=0.5"},
      {"--log-kernel=linear", "--neg-weight=0.25"},
      {"--log-kernel=linear", "--neg-weight=0"},
      {"--log-kernel=rbf", "--neg-weight=1"},
      {"--log-kernel=rbf", "--neg-weight=0.5"},
      {"--log-kernel=rbf", "--neg-weight=0.25"},
      {"--log-kernel=rbf", "--neg-weight=0"}},
     "=== Ablation: log representation (negative-mark weight, kernel) ===",
     "Expected shape: the linear session-weighting kernel beats RBF on "
     "sparse ternary log vectors, and down-weighting negative marks (beta ~ "
     "0.25-0.5) beats the raw +-1 matrix — positive marks carry the "
     "category signal, negative marks mostly encode 'not this particular "
     "concept'.\n"},
};

std::string PresetNames() {
  std::string names;
  for (const Preset& preset : kPresets) {
    names += names.empty() ? "" : " | ";
    names += preset.name;
  }
  return names;
}

void PrintHelp(std::ostream& out) {
  out << kHelp << "    " << PresetNames() << "\n";
}

/// One point's run: collects the log, builds the schemes, runs the
/// evaluation and prints its table.
using PointRun =
    std::function<core::ExperimentResult(const retrieval::ImageDatabase&)>;

/// Reads every flag a point may set, so a bad value fails before the
/// (expensive) corpus build rather than after it.
Result<PointRun> ReadPoint(const Flags& flags) {
  logdb::LogCollectionOptions log_options;
  log_options.num_sessions = flags.GetInt("sessions", 150);
  log_options.session_size = flags.GetInt("session-size", 20);
  log_options.user.noise_rate = flags.GetDouble("noise", 0.10);
  log_options.seed = static_cast<uint64_t>(flags.GetInt("log-seed", 7));
  const double neg_weight = flags.GetDouble(
      "neg-weight", logdb::RelevanceMatrix::kRocchioNegativeWeight);
  const std::string log_kernel = flags.GetString("log-kernel", "linear");
  if (log_kernel != "linear" && log_kernel != "rbf") {
    return Status::InvalidArgument("unknown log kernel: '" + log_kernel +
                                   "' (expected linear|rbf)");
  }

  core::LrfCsvmOptions csvm_options;
  csvm_options.n_prime = flags.GetInt("nprime", 20);
  csvm_options.csvm.rho = flags.GetDouble("rho", 0.08);
  csvm_options.csvm.delta = flags.GetDouble("delta", 2.0);
  CBIR_ASSIGN_OR_RETURN(
      csvm_options.selection,
      core::ParseSelectionStrategy(flags.GetString("selection",
                                                   "most-similar")));
  if (Status s = core::MakeScheme("LRF-CSVM", {}, csvm_options).status();
      !s.ok()) {
    return Status::InvalidArgument("bad --nprime, --rho or --delta: " +
                                   s.message());
  }

  core::ExperimentOptions exp_options;
  exp_options.num_queries = flags.GetInt("queries", 200);
  exp_options.num_labeled = flags.GetInt("labeled", 20);
  exp_options.seed = static_cast<uint64_t>(flags.GetInt("query-seed", 123));
  exp_options.candidate_depth = flags.GetInt("candidate-depth", 0);

  return PointRun([=](const retrieval::ImageDatabase& db) mutable {
    const logdb::RelevanceMatrix matrix =
        logdb::CollectLogs(db.features(), db.categories(), log_options)
            .BuildMatrix(db.num_images());
    std::cerr << "log: " << matrix.num_sessions() << " sessions covering "
              << matrix.CoveredImages() << "/" << db.num_images()
              << " images (" << matrix.PositiveCount() << " positive / "
              << matrix.NegativeCount() << " negative marks)" << std::endl;
    const la::Matrix log_features = matrix.ToDenseMatrix(neg_weight);

    core::SchemeOptions scheme_options =
        core::MakeDefaultSchemeOptions(db, &log_features);
    if (log_kernel == "rbf") {
      // The paper's experiments: RBF on the log side too, with the same C
      // as the visual side.
      scheme_options.log_kernel.type = svm::KernelType::kRbf;
      scheme_options.c_log = 10.0;
    }
    // Small corpora cannot fill the paper's 20..100 scopes; keep the ones a
    // ranking of num_images - 1 entries can satisfy.
    std::erase_if(exp_options.scopes,
                  [&](int scope) { return scope >= db.num_images(); });
    if (exp_options.scopes.empty()) {
      exp_options.scopes = {std::min(10, db.num_images() - 1)};
    }

    std::cerr << "running " << exp_options.num_queries << " queries..."
              << std::endl;
    const std::vector<std::shared_ptr<core::FeedbackScheme>> schemes =
        core::MakePaperSchemes(scheme_options, csvm_options);
    core::ExperimentResult result =
        core::RunExperiment(db, &log_features, schemes, exp_options);
    std::cout << core::FormatPaperTable(result);

    // Solver work of the coupled-SVM chains, summed over every query's
    // training run.
    for (const auto& scheme : schemes) {
      if (scheme->name() != "LRF-CSVM") continue;
      const core::CsvmDiagnostics diag =
          static_cast<const core::CoupledSvmScheme&>(*scheme)
              .AggregatedDiagnostics();
      std::cerr << "csvm cache stats: smo_iters=" << diag.total_smo_iterations
                << std::endl;
    }
    return result;
  });
}

}  // namespace

int main(int argc, char** argv) {
  auto command_line_or = Flags::Parse(argc - 1, argv + 1);
  if (!command_line_or.ok()) {
    std::cerr << command_line_or.status() << "\n";
    PrintHelp(std::cerr);
    return 1;
  }
  const Flags& command_line = command_line_or.value();
  if (command_line.GetBool("help", false)) {
    PrintHelp(std::cout);
    return 0;
  }
  const Preset* preset = nullptr;
  if (command_line.Has("preset")) {
    const std::string name = command_line.GetString("preset", "");
    for (const Preset& candidate : kPresets) {
      if (name == candidate.name) preset = &candidate;
    }
    if (preset == nullptr) {
      std::cerr << "unknown preset: '" << name << "' (expected "
                << PresetNames() << ")\n";
      return 1;
    }
  }
  std::vector<std::string> known{std::begin(kKnownFlags),
                                 std::end(kKnownFlags)};
  for (const std::string& name : retrieval::IndexFlagNames()) {
    known.push_back(name);
  }

  // Each point's flags: the preset's, then the point's, then the command
  // line's; Flags::Parse keeps the last assignment, so explicit flags win.
  std::vector<std::vector<std::string>> points{{}};
  if (preset != nullptr && !preset->points.empty()) points = preset->points;
  Flags flags;  // corpus, index and output flags, which no point sets
  std::vector<PointRun> runs;
  for (const std::vector<std::string>& point : points) {
    std::vector<std::string> args;
    if (preset != nullptr) args = preset->flags;
    args.insert(args.end(), point.begin(), point.end());
    args.insert(args.end(), argv + 1, argv + argc);
    std::vector<const char*> arg_ptrs;
    for (const std::string& arg : args) arg_ptrs.push_back(arg.c_str());
    Flags point_flags =
        Flags::Parse(static_cast<int>(arg_ptrs.size()), arg_ptrs.data())
            .value();
    if (Status s = point_flags.RequireKnown(known); !s.ok()) {
      std::cerr << s << "\n";
      PrintHelp(std::cerr);
      return 1;
    }
    auto run_or = ReadPoint(point_flags);
    if (!run_or.ok()) {
      std::cerr << run_or.status() << "\n";
      return 1;
    }
    runs.push_back(std::move(run_or).value());
    flags = std::move(point_flags);
  }

  retrieval::DatabaseOptions db_options;
  db_options.corpus.num_categories = flags.GetInt("categories", 20);
  db_options.corpus.images_per_category = flags.GetInt("images", 100);
  db_options.corpus.width = flags.GetInt("size", 96);
  db_options.corpus.height = db_options.corpus.width;
  db_options.corpus.difficulty = flags.GetDouble("difficulty", 2.5);
  db_options.corpus.seed =
      static_cast<uint64_t>(flags.GetInt("corpus-seed", 42));
  auto index_options_or = retrieval::IndexOptionsFromFlags(flags);
  if (!index_options_or.ok()) {
    std::cerr << index_options_or.status() << "\n";
    return 1;
  }
  const retrieval::IndexOptions index_options = index_options_or.value();
  const std::string csv_path = flags.GetString("csv", "");

  std::cerr << "building " << db_options.corpus.num_categories
            << "-category corpus ("
            << db_options.corpus.num_categories *
                   db_options.corpus.images_per_category
            << " images)..." << std::endl;
  retrieval::ImageDatabase db = retrieval::ImageDatabase::Build(db_options);
  db.BuildIndex(index_options);
  std::cerr << "index: " << db.index()->name();
  if (index_options.mode == retrieval::IndexMode::kSignature) {
    std::cerr << " (" << index_options.signature.bits << " bits, factor "
              << index_options.signature.candidate_factor << ")";
  }
  std::cerr << std::endl;

  if (preset != nullptr) std::cout << preset->title << "\n";
  const bool several = points.size() > 1;
  std::vector<core::ExperimentResult> results;
  for (size_t p = 0; p < runs.size(); ++p) {
    if (several) {
      std::cout << "\n--- point " << p + 1 << ":";
      for (const std::string& flag : points[p]) std::cout << " " << flag;
      std::cout << "\n";
    }
    results.push_back(runs[p](db));
  }
  if (preset != nullptr) std::cout << "\n" << preset->reference;

  const retrieval::IndexStats index_stats = db.index()->stats();
  std::cerr << "index stats: queries=" << index_stats.queries
            << " rows_scanned=" << index_stats.rows_scanned
            << " signatures_scanned=" << index_stats.signatures_scanned
            << " candidates_reranked=" << index_stats.candidates_reranked
            << " recall_proxy=" << FormatDouble(index_stats.recall_proxy, 3)
            << std::endl;

  if (!csv_path.empty()) {
    std::vector<std::string> header{"scope"};
    if (several) header.insert(header.begin(), "point");
    for (const auto& s : results.front().schemes) header.push_back(s.name);
    CsvWriter csv(header);
    for (size_t p = 0; p < results.size(); ++p) {
      const core::ExperimentResult& result = results[p];
      for (size_t i = 0; i < result.scopes.size(); ++i) {
        std::vector<double> row{static_cast<double>(result.scopes[i])};
        if (several) row.insert(row.begin(), static_cast<double>(p + 1));
        for (const auto& s : result.schemes) row.push_back(s.precision[i]);
        csv.AddNumericRow(row);
      }
    }
    if (Status s = csv.WriteToFile(csv_path); !s.ok()) {
      std::cerr << s << std::endl;
      return 1;
    }
    std::cerr << "series written to " << csv_path << std::endl;
  }
  return 0;
}

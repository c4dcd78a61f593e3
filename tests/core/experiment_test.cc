#include "core/experiment.h"

#include <gtest/gtest.h>

#include "core/scheme_factory.h"
#include "logdb/simulated_user.h"

namespace cbir::core {
namespace {

class ExperimentTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    retrieval::DatabaseOptions options;
    options.corpus.num_categories = 3;
    options.corpus.images_per_category = 15;
    options.corpus.width = 64;
    options.corpus.height = 64;
    options.corpus.seed = 101;
    db_ = new retrieval::ImageDatabase(
        retrieval::ImageDatabase::Build(options));

    logdb::LogCollectionOptions log_options;
    log_options.num_sessions = 25;
    log_options.session_size = 10;
    log_options.seed = 6;
    const logdb::LogStore store =
        logdb::CollectLogs(db_->features(), db_->categories(), log_options);
    log_features_ = new la::Matrix(
        store.BuildMatrix(db_->num_images()).ToDenseMatrix());
  }

  static void TearDownTestSuite() {
    delete log_features_;
    delete db_;
  }

  static retrieval::ImageDatabase* db_;
  static la::Matrix* log_features_;
};

retrieval::ImageDatabase* ExperimentTest::db_ = nullptr;
la::Matrix* ExperimentTest::log_features_ = nullptr;

ExperimentOptions SmallExperiment() {
  ExperimentOptions options;
  options.num_queries = 6;
  options.num_labeled = 8;
  options.scopes = {10, 20};
  options.seed = 9;
  return options;
}

TEST_F(ExperimentTest, ShapeOfResults) {
  const SchemeOptions scheme_options =
      MakeDefaultSchemeOptions(*db_, log_features_);
  const auto schemes = MakePaperSchemes(scheme_options);
  const ExperimentResult result =
      RunExperiment(*db_, log_features_, schemes, SmallExperiment());

  EXPECT_EQ(result.num_queries, 6);
  ASSERT_EQ(result.schemes.size(), 4u);
  for (const SchemeResult& s : result.schemes) {
    ASSERT_EQ(s.precision.size(), 2u);
    for (double p : s.precision) {
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
    EXPECT_GE(s.map, 0.0);
    EXPECT_LE(s.map, 1.0);
  }
}

TEST_F(ExperimentTest, DeterministicAcrossRunsAndThreadCounts) {
  const SchemeOptions scheme_options =
      MakeDefaultSchemeOptions(*db_, log_features_);
  const auto schemes = MakePaperSchemes(scheme_options);

  ExperimentOptions serial = SmallExperiment();
  serial.num_threads = 1;
  ExperimentOptions parallel = SmallExperiment();
  parallel.num_threads = 4;

  const ExperimentResult a =
      RunExperiment(*db_, log_features_, schemes, serial);
  const ExperimentResult b =
      RunExperiment(*db_, log_features_, schemes, parallel);
  for (size_t s = 0; s < a.schemes.size(); ++s) {
    EXPECT_EQ(a.schemes[s].precision, b.schemes[s].precision)
        << a.schemes[s].name;
  }
}

TEST_F(ExperimentTest, SeedChangesQuerySample) {
  const SchemeOptions scheme_options =
      MakeDefaultSchemeOptions(*db_, log_features_);
  std::vector<std::shared_ptr<FeedbackScheme>> schemes{
      MakeScheme("Euclidean", scheme_options).value()};
  ExperimentOptions o1 = SmallExperiment();
  ExperimentOptions o2 = SmallExperiment();
  o2.seed = 1234;
  const ExperimentResult a = RunExperiment(*db_, log_features_, schemes, o1);
  const ExperimentResult b = RunExperiment(*db_, log_features_, schemes, o2);
  EXPECT_NE(a.schemes[0].precision, b.schemes[0].precision);
}

TEST_F(ExperimentTest, MapIsMeanOfPrecisionRow) {
  const SchemeOptions scheme_options =
      MakeDefaultSchemeOptions(*db_, log_features_);
  std::vector<std::shared_ptr<FeedbackScheme>> schemes{
      MakeScheme("Euclidean", scheme_options).value()};
  const ExperimentResult result =
      RunExperiment(*db_, log_features_, schemes, SmallExperiment());
  const auto& s = result.schemes[0];
  double mean = 0.0;
  for (double p : s.precision) mean += p;
  mean /= static_cast<double>(s.precision.size());
  EXPECT_NEAR(s.map, mean, 1e-12);
}

TEST_F(ExperimentTest, FormatPaperTableLayout) {
  const SchemeOptions scheme_options =
      MakeDefaultSchemeOptions(*db_, log_features_);
  const auto schemes = MakePaperSchemes(scheme_options);
  const ExperimentResult result =
      RunExperiment(*db_, log_features_, schemes, SmallExperiment());
  const std::string table = FormatPaperTable(result);
  EXPECT_NE(table.find("#TOP"), std::string::npos);
  EXPECT_NE(table.find("Euclidean"), std::string::npos);
  EXPECT_NE(table.find("RF-SVM"), std::string::npos);
  EXPECT_NE(table.find("LRF-2SVMs"), std::string::npos);
  EXPECT_NE(table.find("LRF-CSVM"), std::string::npos);
  EXPECT_NE(table.find("MAP"), std::string::npos);
  // Improvement percentages relative to the RF-SVM baseline column appear.
  EXPECT_NE(table.find("%"), std::string::npos);
  EXPECT_NE(table.find("queries=6"), std::string::npos);
}

TEST_F(ExperimentTest, RejectsScopesBeyondCorpus) {
  const SchemeOptions scheme_options =
      MakeDefaultSchemeOptions(*db_, log_features_);
  std::vector<std::shared_ptr<FeedbackScheme>> schemes{
      MakeScheme("Euclidean", scheme_options).value()};
  ExperimentOptions options = SmallExperiment();
  options.scopes = {10, 4500};  // corpus has 45 images
  EXPECT_DEATH(
      (void)RunExperiment(*db_, log_features_, schemes, options),
      "exceeds");
}

TEST_F(ExperimentTest, RejectsCandidateDepthNotAboveDeepestScope) {
  // Under an approximate index a pool of 20 rows, the query among them,
  // ranks 19 ids: too few for scope 20. Refused up front, before any query.
  retrieval::ImageDatabase indexed(*db_);
  retrieval::IndexOptions index_options;
  index_options.mode = retrieval::IndexMode::kSignature;
  indexed.BuildIndex(index_options);
  const SchemeOptions scheme_options =
      MakeDefaultSchemeOptions(indexed, log_features_);
  std::vector<std::shared_ptr<FeedbackScheme>> schemes{
      MakeScheme("Euclidean", scheme_options).value()};
  ExperimentOptions options = SmallExperiment();
  options.candidate_depth = 20;  // deepest scope is 20
  EXPECT_DEATH(
      (void)RunExperiment(indexed, log_features_, schemes, options),
      "candidate_depth 20 must exceed the deepest scope, 20");
  options.candidate_depth = 21;
  EXPECT_EQ(RunExperiment(indexed, log_features_, schemes, options)
                .num_queries,
            options.num_queries);
}

TEST_F(ExperimentTest, QueriesClampToCorpusSize) {
  const SchemeOptions scheme_options =
      MakeDefaultSchemeOptions(*db_, log_features_);
  std::vector<std::shared_ptr<FeedbackScheme>> schemes{
      MakeScheme("Euclidean", scheme_options).value()};
  ExperimentOptions options = SmallExperiment();
  options.num_queries = 10000;
  const ExperimentResult result =
      RunExperiment(*db_, log_features_, schemes, options);
  EXPECT_EQ(result.num_queries, db_->num_images());
}

}  // namespace
}  // namespace cbir::core

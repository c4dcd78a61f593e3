#include "index/index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/euclidean_scheme.h"
#include "core/scheme_factory.h"
#include "index/exact_index.h"
#include "index/index_factory.h"
#include "index/signature_index.h"
#include "retrieval/image_database.h"
#include "retrieval/ranker.h"
#include "util/rng.h"

namespace cbir::retrieval {
namespace {

la::Matrix RandomCorpus(size_t n, size_t dims, uint64_t seed) {
  Rng rng(seed);
  la::Matrix m(n, dims);
  for (size_t r = 0; r < n; ++r) {
    // Quantized values create plenty of exact distance ties.
    for (size_t c = 0; c < dims; ++c) {
      m.At(r, c) = std::round(rng.Gaussian() * 2.0) / 2.0;
    }
  }
  return m;
}

TEST(ExactIndexTest, MatchesRankByEuclideanIncludingTieBreaks) {
  const la::Matrix corpus = RandomCorpus(300, 6, 1);
  ExactIndex index;
  index.Build(corpus);
  EXPECT_EQ(index.num_rows(), 300u);
  const la::Vec query = corpus.Row(7);
  for (int k : {1, 10, 50, 299, 300, 500, -1}) {
    EXPECT_EQ(index.Query(query, k), RankByEuclidean(corpus, query, k))
        << "k=" << k;
  }
}

TEST(ExactIndexTest, CandidatesIsEveryRowSentinel) {
  const la::Matrix corpus = RandomCorpus(50, 4, 2);
  ExactIndex index;
  index.Build(corpus);
  EXPECT_TRUE(index.Candidates(corpus.Row(0), 10).empty());
}

TEST(ExactIndexTest, StatsCountQueriesAndRows) {
  const la::Matrix corpus = RandomCorpus(40, 4, 3);
  ExactIndex index;
  index.Build(corpus);
  (void)index.Query(corpus.Row(0), 5);
  (void)index.Query(corpus.Row(1), 5);
  IndexStats s = index.stats();
  EXPECT_EQ(s.queries, 2u);
  EXPECT_EQ(s.rows_scanned, 80u);
  EXPECT_EQ(s.signatures_scanned, 0u);
  EXPECT_DOUBLE_EQ(s.recall_proxy, 1.0);
  index.ResetStats();
  EXPECT_EQ(index.stats().queries, 0u);
}

TEST(IndexTest, QueryBatchDefaultEqualsLoopedQuery) {
  const la::Matrix corpus = RandomCorpus(120, 5, 4);
  ExactIndex index;
  index.Build(corpus);
  la::Matrix queries(3, 5);
  for (size_t q = 0; q < 3; ++q) queries.SetRow(q, corpus.Row(10 * q));
  const auto batch = index.QueryBatch(queries, 7);
  ASSERT_EQ(batch.size(), 3u);
  for (size_t q = 0; q < 3; ++q) {
    EXPECT_EQ(batch[q], index.Query(queries.Row(q), 7));
  }
}

TEST(IndexFactoryTest, OptionsFromFlags) {
  const char* argv[] = {"--index=signature", "--signature_bits=64",
                        "--candidate-factor=3", "--index-seed=9"};
  const Flags flags = Flags::Parse(4, argv).value();
  ASSERT_TRUE(flags.RequireKnown(IndexFlagNames()).ok());
  auto options = IndexOptionsFromFlags(flags);
  ASSERT_TRUE(options.ok());
  EXPECT_EQ(options->mode, IndexMode::kSignature);
  EXPECT_EQ(options->signature.bits, 64);
  EXPECT_EQ(options->signature.candidate_factor, 3);
  EXPECT_EQ(options->signature.seed, 9u);

  const char* bad[] = {"--index=faiss"};
  EXPECT_FALSE(IndexOptionsFromFlags(Flags::Parse(1, bad).value()).ok());

  // No flags: the defaults (exact mode).
  auto defaults = IndexOptionsFromFlags(Flags::Parse(0, nullptr).value());
  ASSERT_TRUE(defaults.ok());
  EXPECT_EQ(defaults->mode, IndexMode::kExact);
  EXPECT_EQ(defaults->signature.bits, 256);
}

TEST(IndexFactoryTest, ParseAndMake) {
  ASSERT_TRUE(ParseIndexMode("exact").ok());
  EXPECT_EQ(ParseIndexMode("exact").value(), IndexMode::kExact);
  ASSERT_TRUE(ParseIndexMode("signature").ok());
  EXPECT_EQ(ParseIndexMode("signature").value(), IndexMode::kSignature);
  EXPECT_FALSE(ParseIndexMode("annoy").ok());

  IndexOptions options;
  EXPECT_EQ(MakeIndex(options)->name(), "exact");
  options.mode = IndexMode::kSignature;
  EXPECT_EQ(MakeIndex(options)->name(), "signature");
  EXPECT_STREQ(IndexModeToString(IndexMode::kSignature), "signature");
}

class IndexDatabaseTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatabaseOptions options;
    options.corpus.num_categories = 4;
    options.corpus.images_per_category = 25;
    options.corpus.width = 48;
    options.corpus.height = 48;
    options.corpus.seed = 5;
    db_ = new ImageDatabase(ImageDatabase::Build(options));
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }
  static ImageDatabase* db_;
};

ImageDatabase* IndexDatabaseTest::db_ = nullptr;

TEST_F(IndexDatabaseTest, TopKWithoutIndexIsExhaustive) {
  const la::Vec query = db_->feature(3);
  EXPECT_EQ(db_->index(), nullptr);
  EXPECT_EQ(db_->TopK(query, 10),
            RankByEuclidean(db_->features(), query, 10));
}

TEST_F(IndexDatabaseTest, CopyingDropsTheIndex) {
  // An index references the feature storage of the database it was built
  // over; a copy must not share it (dangling once the original dies).
  ImageDatabase original = *db_;
  original.BuildIndex(IndexOptions{});
  ASSERT_NE(original.index(), nullptr);
  const ImageDatabase copy = original;
  EXPECT_EQ(copy.index(), nullptr);
  ImageDatabase assigned = *db_;
  assigned.BuildIndex(IndexOptions{});
  assigned = original;
  EXPECT_EQ(assigned.index(), nullptr);
}

TEST_F(IndexDatabaseTest, ExactIndexKeepsTopKBitIdentical) {
  ImageDatabase db = *db_;
  const la::Vec query = db.feature(3);
  const auto before = db.TopK(query, -1);
  db.BuildIndex(IndexOptions{});
  ASSERT_NE(db.index(), nullptr);
  EXPECT_EQ(db.TopK(query, -1), before);
  EXPECT_EQ(db.index()->stats().queries, 1u);
}

TEST_F(IndexDatabaseTest, SignatureIndexTopKIsRerankedSubset) {
  ImageDatabase db = *db_;
  IndexOptions options;
  options.mode = IndexMode::kSignature;
  options.signature.candidate_factor = 2;
  db.BuildIndex(options);
  const la::Vec query = db.feature(3);
  const auto approx = db.TopK(query, 10);
  ASSERT_EQ(approx.size(), 10u);
  // The returned prefix must be ordered exactly like the exact ranking
  // restricted to the returned ids.
  const auto exact = RankByEuclidean(db.features(), query, -1);
  std::vector<int> restricted;
  for (int id : exact) {
    for (int a : approx) {
      if (a == id) restricted.push_back(id);
    }
  }
  EXPECT_EQ(approx, restricted);
}

TEST_F(IndexDatabaseTest, ExactIndexLeavesSchemeRankingsUnchanged) {
  ImageDatabase db = *db_;
  core::FeedbackContext ctx;
  ctx.db = &db;
  ctx.query_id = 3;
  ctx.candidate_depth = 20;
  ASSERT_TRUE(ctx.Prepare().ok());
  const auto initial = db.TopK(ctx.query_feature, 11);
  const int query_category = db.category(ctx.query_id);
  for (int id : initial) {
    if (id == ctx.query_id) continue;
    ctx.labeled_ids.push_back(id);
    ctx.labels.push_back(db.category(id) == query_category ? 1.0 : -1.0);
  }
  const core::SchemeOptions scheme_options =
      core::MakeDefaultSchemeOptions(db, nullptr);

  const core::EuclideanScheme euclidean;
  const auto rf_svm = core::MakeScheme("RF-SVM", scheme_options).value();
  auto euclidean_before = euclidean.Rank(ctx);
  auto rf_before = rf_svm->Rank(ctx);
  ASSERT_TRUE(euclidean_before.ok());
  ASSERT_TRUE(rf_before.ok());
  EXPECT_EQ(ctx.scan_size(), static_cast<size_t>(db.num_images()));

  db.BuildIndex(IndexOptions{});  // exact: the sentinel keeps scans full
  ASSERT_TRUE(ctx.Prepare().ok());
  auto euclidean_after = euclidean.Rank(ctx);
  auto rf_after = rf_svm->Rank(ctx);
  ASSERT_TRUE(euclidean_after.ok());
  ASSERT_TRUE(rf_after.ok());
  EXPECT_EQ(euclidean_after.value(), euclidean_before.value());
  EXPECT_EQ(rf_after.value(), rf_before.value());
}

TEST_F(IndexDatabaseTest, SignatureIndexNarrowsSchemeScans) {
  ImageDatabase db = *db_;
  IndexOptions options;
  options.mode = IndexMode::kSignature;
  options.signature.candidate_factor = 2;
  db.BuildIndex(options);

  core::FeedbackContext ctx;
  ctx.db = &db;
  ctx.query_id = 3;
  ctx.candidate_depth = 15;  // 30 candidates of 100 rows
  ASSERT_TRUE(ctx.Prepare().ok());
  ASSERT_FALSE(ctx.scan_ids.empty());
  EXPECT_EQ(ctx.scan_ids.size(), 30u);
  EXPECT_EQ(ctx.scan_size(), 30u);
  EXPECT_EQ(ctx.ScanFeatures().rows(), 30u);
  EXPECT_TRUE(std::is_sorted(ctx.scan_ids.begin(), ctx.scan_ids.end()));

  const auto initial = db.TopK(ctx.query_feature, 11);
  const int query_category = db.category(ctx.query_id);
  for (int id : initial) {
    if (id == ctx.query_id) continue;
    ctx.labeled_ids.push_back(id);
    ctx.labels.push_back(db.category(id) == query_category ? 1.0 : -1.0);
  }

  const core::EuclideanScheme euclidean;
  auto ranked = euclidean.Rank(ctx);
  ASSERT_TRUE(ranked.ok());
  // The Euclidean scheme over the narrowed scan equals the exact ranking
  // restricted to the candidate set (minus the query).
  std::vector<int> expected;
  for (int id : RankByEuclidean(db.features(), ctx.query_feature, -1)) {
    if (id == ctx.query_id) continue;
    if (std::find(ctx.scan_ids.begin(), ctx.scan_ids.end(), id) !=
        ctx.scan_ids.end()) {
      expected.push_back(id);
    }
  }
  EXPECT_EQ(ranked.value(), expected);

  const auto rf_svm =
      core::MakeScheme("RF-SVM", core::MakeDefaultSchemeOptions(db, nullptr))
          .value();
  auto rf_ranked = rf_svm->Rank(ctx);
  ASSERT_TRUE(rf_ranked.ok());
  // SVM scoring ranks exactly the scanned candidates (query excluded).
  EXPECT_EQ(rf_ranked.value().size(), expected.size());
  for (int id : rf_ranked.value()) {
    EXPECT_TRUE(std::find(ctx.scan_ids.begin(), ctx.scan_ids.end(), id) !=
                ctx.scan_ids.end());
  }
}

}  // namespace
}  // namespace cbir::retrieval

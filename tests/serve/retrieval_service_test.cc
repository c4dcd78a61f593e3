#include "serve/retrieval_service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "core/feedback_loop.h"
#include "core/scheme_factory.h"
#include "logdb/simulated_user.h"
#include "retrieval/evaluator.h"

namespace cbir::serve {
namespace {

retrieval::DatabaseOptions SmallCorpus() {
  retrieval::DatabaseOptions options;
  options.corpus.num_categories = 5;
  options.corpus.images_per_category = 24;
  options.corpus.width = 48;
  options.corpus.height = 48;
  options.corpus.seed = 77;
  return options;
}

/// Shared fixture state: one rendered corpus + log matrix, reused by every
/// test (building it is the expensive part).
class RetrievalServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new retrieval::ImageDatabase(
        retrieval::ImageDatabase::Build(SmallCorpus()));
    logdb::LogCollectionOptions log_options;
    log_options.num_sessions = 40;
    log_options.session_size = 12;
    log_options.seed = 5;
    logdb::LogStore store =
        logdb::CollectLogs(db_->features(), db_->categories(), log_options);
    log_features_ =
        new la::Matrix(store.BuildMatrix(db_->num_images()).ToDenseMatrix());
    log_rows_ = new la::SparseRows(la::SparseRows::FromDense(*log_features_));
  }
  static void TearDownTestSuite() {
    delete log_rows_;
    log_rows_ = nullptr;
    delete log_features_;
    log_features_ = nullptr;
    delete db_;
    db_ = nullptr;
  }

  static core::SchemeOptions SchemeOpts() {
    return core::MakeDefaultSchemeOptions(*db_, log_features_);
  }

  static std::unique_ptr<RetrievalService> MakeService(
      logdb::LogStore* store, ServiceOptions options) {
    auto service = RetrievalService::Create(db_, log_features_, store,
                                            SchemeOpts(), options);
    EXPECT_TRUE(service.ok()) << service.status();
    return std::move(service).value();
  }

  static retrieval::ImageDatabase* db_;
  static la::Matrix* log_features_;
  static la::SparseRows* log_rows_;  ///< log_features_, converted once
};

retrieval::ImageDatabase* RetrievalServiceTest::db_ = nullptr;
la::Matrix* RetrievalServiceTest::log_features_ = nullptr;
la::SparseRows* RetrievalServiceTest::log_rows_ = nullptr;

TEST_F(RetrievalServiceTest, StartQueryEndBasics) {
  ServiceOptions options;
  options.scheme = "Euclidean";
  auto service = MakeService(nullptr, options);

  auto sid = service->StartSession(3);
  ASSERT_TRUE(sid.ok()) << sid.status();
  auto top = service->Query(sid.value(), 10);
  ASSERT_TRUE(top.ok()) << top.status();
  EXPECT_EQ(top->size(), 10u);
  // Matches the database ranking with the query excluded.
  std::vector<int> expected = db_->TopK(db_->feature(3), 11);
  expected.erase(std::remove(expected.begin(), expected.end(), 3),
                 expected.end());
  expected.resize(10);
  EXPECT_EQ(top.value(), expected);

  EXPECT_TRUE(service->EndSession(sid.value()).ok());
  // Every further request on the ended session fails NotFound.
  EXPECT_EQ(service->Query(sid.value()).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service->EndSession(sid.value()).code(), StatusCode::kNotFound);
}

TEST_F(RetrievalServiceTest, RejectsBadInputs) {
  ServiceOptions options;
  options.scheme = "Euclidean";
  auto service = MakeService(nullptr, options);
  EXPECT_EQ(service->StartSession(-1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service->StartSession(db_->num_images()).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service->Query(99999).status().code(), StatusCode::kNotFound);

  auto sid = service->StartSession(0);
  ASSERT_TRUE(sid.ok());
  EXPECT_EQ(service
                ->Feedback(sid.value(),
                           {logdb::LogEntry{1, 3}})  // judgment not +-1
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service
                ->Feedback(sid.value(), {logdb::LogEntry{db_->num_images(), 1}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  ServiceOptions bad;
  bad.scheme = "NoSuchScheme";
  EXPECT_FALSE(
      RetrievalService::Create(db_, log_features_, nullptr, SchemeOpts(), bad)
          .ok());

  // The log is converted to sparse rows once, at Create: one that does not
  // have a row per image is refused there.
  const la::Matrix short_log(3, log_features_->cols(), 1.0);
  EXPECT_EQ(RetrievalService::Create(db_, &short_log, nullptr, SchemeOpts(),
                                     ServiceOptions{})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// The acceptance-critical property: a single-threaded service session is
// rank-identical to core::RunFeedbackSession — same first-round ranking,
// same narrowed scan space, same re-rankings — and hands the
// log store the same recorded rounds.
TEST_F(RetrievalServiceTest, MatchesRunFeedbackSessionExactly) {
  for (const char* scheme_name : {"RF-SVM", "LRF-CSVM"}) {
    SCOPED_TRACE(scheme_name);
    for (const bool signature_index : {false, true}) {
      SCOPED_TRACE(signature_index ? "signature" : "no index");
      retrieval::ImageDatabase db(*db_);  // copy: private index config
      if (signature_index) {
        retrieval::IndexOptions index_options;
        index_options.mode = retrieval::IndexMode::kSignature;
        db.BuildIndex(index_options);
      }

      core::FeedbackLoopOptions loop;
      loop.rounds = 3;
      loop.judgments_per_round = 8;
      loop.scopes = {10};
      loop.seed = 11;
      const int query_id = 17;
      const int depth =
          10 + loop.rounds * loop.judgments_per_round + 1;  // loop's auto

      auto scheme =
          core::MakeScheme(scheme_name, core::MakeDefaultSchemeOptions(
                                            db, log_features_));
      ASSERT_TRUE(scheme.ok());
      auto reference = core::RunFeedbackSession(db, log_rows_,
                                                *scheme.value(), query_id, loop);
      ASSERT_TRUE(reference.ok()) << reference.status();

      ServiceOptions options;
      options.scheme = scheme_name;
      options.candidate_depth = depth;
      logdb::LogStore store;
      auto service = RetrievalService::Create(
          &db, log_features_, &store,
          core::MakeDefaultSchemeOptions(db, log_features_), options);
      ASSERT_TRUE(service.ok());

      // Drive the service with the same simulated user stream the loop
      // used, and check the per-round precision trace matches exactly.
      logdb::SimulatedUser user(db.categories(),
                                logdb::UserModel{loop.judgment_noise});
      Rng rng(loop.seed);
      const int query_category = db.category(query_id);
      auto sid = service.value()->StartSession(query_id);
      ASSERT_TRUE(sid.ok());
      auto ranking = service.value()->Query(sid.value(), depth);
      ASSERT_TRUE(ranking.ok());
      EXPECT_EQ(retrieval::PrecisionAtScopes(ranking.value(), db.categories(),
                                             query_category, loop.scopes),
                reference->precision[0]);

      std::unordered_set<int> judged{query_id};
      for (int round = 1; round <= loop.rounds; ++round) {
        SCOPED_TRACE(round);
        const std::vector<logdb::LogEntry> entries =
            user.JudgeRound(ranking.value(), query_category,
                            loop.judgments_per_round, &judged, &rng);
        ranking = service.value()->Feedback(sid.value(), entries, depth);
        ASSERT_TRUE(ranking.ok()) << ranking.status();
        EXPECT_EQ(
            retrieval::PrecisionAtScopes(ranking.value(), db.categories(),
                                         query_category, loop.scopes),
            reference->precision[static_cast<size_t>(round)]);
      }

      // The log store receives exactly the rounds the reference recorded:
      // query id and entries, in order.
      ASSERT_TRUE(service.value()->EndSession(sid.value()).ok());
      const std::vector<logdb::LogSession>& logged = store.sessions();
      ASSERT_EQ(logged.size(), reference->recorded_sessions.size());
      for (size_t r = 0; r < logged.size(); ++r) {
        SCOPED_TRACE("recorded round " + std::to_string(r));
        const logdb::LogSession& want = reference->recorded_sessions[r];
        EXPECT_EQ(logged[r].query_image_id, want.query_image_id);
        ASSERT_EQ(logged[r].entries.size(), want.entries.size());
        for (size_t e = 0; e < want.entries.size(); ++e) {
          EXPECT_EQ(logged[r].entries[e].image_id, want.entries[e].image_id);
          EXPECT_EQ(logged[r].entries[e].judgment, want.entries[e].judgment);
        }
      }
    }
  }
}

TEST_F(RetrievalServiceTest, FeedbackImprovesAndRecordsLog) {
  logdb::LogStore store;
  ServiceOptions options;
  options.scheme = "RF-SVM";
  options.candidate_depth = 60;
  auto service = MakeService(&store, options);

  const int query_id = 2;
  const int query_category = db_->category(query_id);
  auto sid = service->StartSession(query_id);
  ASSERT_TRUE(sid.ok());
  auto ranking = service->Query(sid.value(), 60);
  ASSERT_TRUE(ranking.ok());

  // Two noise-free feedback rounds.
  logdb::SimulatedUser user(db_->categories(), logdb::UserModel{0.0});
  Rng rng(3);
  std::unordered_set<int> judged{query_id};
  for (int round = 0; round < 2; ++round) {
    std::vector<logdb::LogEntry> entries;
    for (int id : ranking.value()) {
      if (static_cast<int>(entries.size()) >= 15) break;
      if (!judged.insert(id).second) continue;
      entries.push_back(
          logdb::LogEntry{id, user.Judge(id, query_category, &rng)});
    }
    ranking = service->Feedback(sid.value(), entries, 60);
    ASSERT_TRUE(ranking.ok()) << ranking.status();
  }

  // Nothing lands in the log until the session ends.
  EXPECT_EQ(store.num_sessions(), 0);
  ASSERT_TRUE(service->EndSession(sid.value()).ok());
  EXPECT_EQ(store.num_sessions(), 2);  // one LogSession per feedback round
  EXPECT_EQ(store.sessions()[0].query_image_id, query_id);
  EXPECT_EQ(store.sessions()[0].entries.size(), 15u);

  const ServiceStats stats = service->stats();
  EXPECT_EQ(stats.queries, 1u);
  EXPECT_EQ(stats.feedbacks, 2u);
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.sessions_started, 1u);
  EXPECT_EQ(stats.sessions_ended, 1u);
  EXPECT_EQ(stats.log_sessions_appended, 2u);
  EXPECT_EQ(stats.latency.count, 3u);
  EXPECT_GT(stats.latency.p95_us, 0.0);
}

TEST_F(RetrievalServiceTest, DuplicateAndSelfJudgmentsAreIgnored) {
  ServiceOptions options;
  options.scheme = "RF-SVM";
  options.candidate_depth = 40;
  logdb::LogStore store;
  auto service = MakeService(&store, options);

  auto sid = service->StartSession(4);
  ASSERT_TRUE(sid.ok());
  auto first = service->Query(sid.value(), 40);
  ASSERT_TRUE(first.ok());
  const int other = first.value()[0];
  // The query itself and a repeated id are dropped; the duplicate round
  // re-judging `other` contributes nothing.
  auto r1 = service->Feedback(
      sid.value(), {logdb::LogEntry{4, 1}, logdb::LogEntry{other, 1},
                    logdb::LogEntry{other, -1}, logdb::LogEntry{first.value()[1], -1}});
  ASSERT_TRUE(r1.ok()) << r1.status();
  auto r2 = service->Feedback(sid.value(), {logdb::LogEntry{other, -1}});
  ASSERT_TRUE(r2.ok()) << r2.status();
  ASSERT_TRUE(service->EndSession(sid.value()).ok());
  // Round 1 kept two judgments; round 2 kept none (all duplicates).
  ASSERT_EQ(store.num_sessions(), 1);
  EXPECT_EQ(store.sessions()[0].entries.size(), 2u);
}

TEST_F(RetrievalServiceTest, QueryCacheHitsAcrossSessions) {
  // First-round caching only engages for bounded-depth serving over an
  // index (full-corpus rankings are deliberately not cached).
  retrieval::ImageDatabase db(*db_);
  db.BuildIndex(retrieval::IndexOptions{});  // exact
  ServiceOptions options;
  options.scheme = "Euclidean";
  options.candidate_depth = 30;
  auto service_or = RetrievalService::Create(
      &db, log_features_, nullptr,
      core::MakeDefaultSchemeOptions(db, log_features_), options);
  ASSERT_TRUE(service_or.ok());
  auto& service = service_or.value();

  auto first = service->StartSession(6);
  ASSERT_TRUE(first.ok());
  auto r1 = service->Query(first.value(), 30);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(service->stats().cache_misses, 1u);

  auto second = service->StartSession(6);
  ASSERT_TRUE(second.ok());
  auto r2 = service->Query(second.value(), 30);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value(), r2.value());
  EXPECT_EQ(service->stats().cache_hits, 1u);
  EXPECT_EQ(service->stats().cache_misses, 1u);
}

TEST_F(RetrievalServiceTest, CapacityEvictionFlushesToLog) {
  logdb::LogStore store;
  ServiceOptions options;
  options.scheme = "Euclidean";
  options.candidate_depth = 30;
  options.sessions.max_sessions = 2;
  auto service = MakeService(&store, options);

  auto s1 = service->StartSession(1);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(service->Query(s1.value()).ok());
  ASSERT_TRUE(
      service->Feedback(s1.value(), {logdb::LogEntry{2, 1}}).ok());
  auto s2 = service->StartSession(2);
  ASSERT_TRUE(s2.ok());
  // Session 3 exceeds capacity: s1 (LRU) is evicted and its round flushed.
  auto s3 = service->StartSession(3);
  ASSERT_TRUE(s3.ok());
  EXPECT_EQ(service->stats().sessions_evicted_capacity, 1u);
  EXPECT_EQ(service->stats().active_sessions, 2u);
  EXPECT_EQ(store.num_sessions(), 1);
  EXPECT_EQ(service->Query(s1.value()).status().code(), StatusCode::kNotFound);
  // The survivors still work.
  EXPECT_TRUE(service->Query(s2.value()).ok());
  EXPECT_TRUE(service->Query(s3.value()).ok());
}

TEST_F(RetrievalServiceTest, TtlEvictionExpiresIdleSessions) {
  ServiceOptions options;
  options.scheme = "Euclidean";
  options.sessions.ttl_seconds = 0.02;
  auto service = MakeService(nullptr, options);

  auto sid = service->StartSession(1);
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(service->Query(sid.value()).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_EQ(service->EvictExpiredSessions(), 1u);
  EXPECT_EQ(service->Query(sid.value()).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service->stats().sessions_evicted_ttl, 1u);
}

// Sessions accumulate cross-round kernel memory (Grams and kernel columns)
// as they run feedback rounds; the service accounts for it, and ending or
// evicting a session must release its share — eviction has to actually
// bound memory.
TEST_F(RetrievalServiceTest, SessionKernelCacheMemoryIsAccountedAndFreed) {
  // On a signature-indexed database a session scans a candidate pool,
  // whose kernel columns carry between rounds and count as session memory.
  retrieval::ImageDatabase db(*db_);
  retrieval::IndexOptions index_options;
  index_options.mode = retrieval::IndexMode::kSignature;
  db.BuildIndex(index_options);
  ServiceOptions options;
  options.scheme = "LRF-CSVM";
  options.csvm.n_prime = 10;
  options.candidate_depth = 60;
  options.sessions.max_sessions = 2;
  auto service_or = RetrievalService::Create(
      &db, log_features_, nullptr,
      core::MakeDefaultSchemeOptions(db, log_features_), options);
  ASSERT_TRUE(service_or.ok()) << service_or.status();
  RetrievalService* service = service_or.value().get();
  EXPECT_EQ(service->stats().session_kernel_cache_bytes, 0u);

  logdb::SimulatedUser user(db_->categories(), logdb::UserModel{0.0});
  Rng rng(7);
  const auto run_round = [&](RetrievalService* on, uint64_t sid,
                             int query_id) {
    auto ranking = on->Query(sid, 60);
    ASSERT_TRUE(ranking.ok());
    std::vector<logdb::LogEntry> entries;
    for (int id : ranking.value()) {
      if (entries.size() >= 10) break;
      if (id == query_id) continue;
      entries.push_back(
          logdb::LogEntry{id, user.Judge(id, db_->category(query_id), &rng)});
    }
    ASSERT_TRUE(on->Feedback(sid, entries, 60).ok());
  };

  auto s1 = service->StartSession(1);
  ASSERT_TRUE(s1.ok());
  run_round(service, s1.value(), 1);
  const uint64_t after_one = service->stats().session_kernel_cache_bytes;
  EXPECT_GT(after_one, 0u);

  auto s2 = service->StartSession(2);
  ASSERT_TRUE(s2.ok());
  run_round(service, s2.value(), 2);
  const uint64_t after_two = service->stats().session_kernel_cache_bytes;
  EXPECT_GT(after_two, after_one);

  // Ending a session refunds exactly its share ...
  ASSERT_TRUE(service->EndSession(s1.value()).ok());
  EXPECT_EQ(service->stats().session_kernel_cache_bytes,
            after_two - after_one);

  // ... and capacity eviction refunds the victim's share too.
  auto s3 = service->StartSession(3);
  ASSERT_TRUE(s3.ok());
  auto s4 = service->StartSession(4);  // evicts s2 (LRU)
  ASSERT_TRUE(s4.ok());
  EXPECT_EQ(service->stats().sessions_evicted_capacity, 1u);
  EXPECT_EQ(service->stats().session_kernel_cache_bytes, 0u);

  // Without an index every round scans the whole corpus, and a session
  // holds no kernel columns once its round is ranked.
  auto corpus_wide = MakeService(nullptr, options);
  auto s5 = corpus_wide->StartSession(5);
  ASSERT_TRUE(s5.ok());
  run_round(corpus_wide.get(), s5.value(), 5);
  EXPECT_EQ(corpus_wide->stats().session_kernel_cache_bytes, 0u);
}

// Tentpole gate: a session opened with a raw feature vector (an image the
// corpus has never seen — here, a corpus image's feature re-submitted
// externally) reproduces the matching in-corpus session's ranking; the only
// difference is the identical-feature image itself, which the external
// session keeps (it has no corpus row to exclude).
TEST_F(RetrievalServiceTest, ExternalFeatureSessionReproducesCorpusSession) {
  retrieval::ImageDatabase db(*db_);
  retrieval::IndexOptions index_options;
  index_options.mode = retrieval::IndexMode::kSignature;
  db.BuildIndex(index_options);

  ServiceOptions options;
  options.scheme = "RF-SVM";
  options.candidate_depth = 50;
  auto service_or = RetrievalService::Create(
      &db, log_features_, nullptr,
      core::MakeDefaultSchemeOptions(db, log_features_), options);
  ASSERT_TRUE(service_or.ok());
  auto& service = *service_or.value();

  const int query_id = 31;
  auto by_id = service.StartSession(query_id);
  auto by_feature = service.StartSession(db.feature(query_id));
  ASSERT_TRUE(by_id.ok());
  ASSERT_TRUE(by_feature.ok()) << by_feature.status();

  auto strip_query = [&](std::vector<int> ranking) {
    ranking.erase(std::remove(ranking.begin(), ranking.end(), query_id),
                  ranking.end());
    return ranking;
  };

  auto id_ranking = service.Query(by_id.value(), 50);
  auto feature_ranking = service.Query(by_feature.value(), 50);
  ASSERT_TRUE(id_ranking.ok());
  ASSERT_TRUE(feature_ranking.ok());
  // Distance zero: the identical-feature corpus image leads the external
  // session's first round.
  ASSERT_FALSE(feature_ranking->empty());
  EXPECT_EQ(feature_ranking->front(), query_id);
  // Stripping may shorten the fixed-size top-k by one (the query image sat
  // inside it); the surviving prefix must match the by-id session exactly.
  std::vector<int> stripped = strip_query(feature_ranking.value());
  ASSERT_GE(stripped.size() + 1, id_ranking->size());
  std::vector<int> expected = id_ranking.value();
  expected.resize(std::min(stripped.size(), expected.size()));
  stripped.resize(expected.size());
  EXPECT_EQ(stripped, expected);

  // Identical judgments (never the query image) across feedback rounds keep
  // the two sessions rank-identical modulo the query image's own position.
  logdb::SimulatedUser user(db_->categories(), logdb::UserModel{0.0});
  Rng rng(7);
  const int category = db.category(query_id);
  std::unordered_set<int> judged{query_id};
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    std::vector<logdb::LogEntry> entries;
    for (int id : id_ranking.value()) {
      if (static_cast<int>(entries.size()) >= 10) break;
      if (!judged.insert(id).second) continue;
      entries.push_back(logdb::LogEntry{id, user.Judge(id, category, &rng)});
    }
    id_ranking = service.Feedback(by_id.value(), entries, 50);
    feature_ranking = service.Feedback(by_feature.value(), entries, 50);
    ASSERT_TRUE(id_ranking.ok());
    ASSERT_TRUE(feature_ranking.ok()) << feature_ranking.status();
    std::vector<int> stripped_round = strip_query(feature_ranking.value());
    ASSERT_GE(stripped_round.size() + 1, id_ranking->size());
    std::vector<int> expected_round = id_ranking.value();
    expected_round.resize(
        std::min(stripped_round.size(), expected_round.size()));
    stripped_round.resize(expected_round.size());
    EXPECT_EQ(stripped_round, expected_round);
  }
  EXPECT_TRUE(service.EndSession(by_id.value()).ok());
  EXPECT_TRUE(service.EndSession(by_feature.value()).ok());
}

TEST_F(RetrievalServiceTest, ExternalFeatureSessionValidatesInput) {
  ServiceOptions options;
  options.scheme = "Euclidean";
  auto service = MakeService(nullptr, options);
  // Wrong dimensionality.
  EXPECT_EQ(service->StartSession(la::Vec{1.0, 2.0}).status().code(),
            StatusCode::kInvalidArgument);
  // Empty.
  EXPECT_EQ(service->StartSession(la::Vec{}).status().code(),
            StatusCode::kInvalidArgument);
  // Non-finite values.
  la::Vec nan_feature = db_->feature(0);
  nan_feature[3] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(service->StartSession(nan_feature).status().code(),
            StatusCode::kInvalidArgument);
  // A perturbed (not identical to any corpus row) feature still serves.
  la::Vec perturbed = db_->feature(0);
  for (double& v : perturbed) v += 0.01;
  auto sid = service->StartSession(perturbed);
  ASSERT_TRUE(sid.ok()) << sid.status();
  auto ranking = service->Query(sid.value(), 10);
  ASSERT_TRUE(ranking.ok());
  EXPECT_EQ(ranking->size(), 10u);
  EXPECT_TRUE(service->EndSession(sid.value()).ok());
}

TEST_F(RetrievalServiceTest, DefaultKAndClamping) {
  ServiceOptions options;
  options.scheme = "Euclidean";
  options.default_k = 7;
  auto service = MakeService(nullptr, options);
  auto sid = service->StartSession(0);
  ASSERT_TRUE(sid.ok());
  auto by_default = service->Query(sid.value());
  ASSERT_TRUE(by_default.ok());
  EXPECT_EQ(by_default->size(), 7u);
  auto huge = service->Query(sid.value(), db_->num_images() * 2);
  ASSERT_TRUE(huge.ok());
  EXPECT_EQ(huge->size(), static_cast<size_t>(db_->num_images() - 1));
}

TEST_F(RetrievalServiceTest, FeedbackSeqIsIdempotent) {
  ServiceOptions options;
  options.scheme = "RF-SVM";
  logdb::LogStore store;
  auto service = MakeService(&store, options);

  // Two sessions on the same query: A applies each round once, B replays
  // its first round (the wire retry whose original actually landed). If the
  // dedup works, B's state never diverges from A's.
  const int query_id = 7;
  auto a = service->StartSession(query_id);
  auto b = service->StartSession(query_id);
  ASSERT_TRUE(a.ok() && b.ok());
  const std::vector<int> ranking_a = service->Query(a.value(), 15).value();
  const std::vector<int> ranking_b = service->Query(b.value(), 15).value();
  ASSERT_EQ(ranking_a, ranking_b);

  std::vector<logdb::LogEntry> round1 = {logdb::LogEntry{ranking_a[0], 1},
                                         logdb::LogEntry{ranking_a[1], -1}};
  const auto once = service->Feedback(a.value(), round1, 15, /*seq=*/1);
  ASSERT_TRUE(once.ok());
  const auto first = service->Feedback(b.value(), round1, 15, /*seq=*/1);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value(), once.value());
  // The duplicate: same session, same seq — answered from the idempotency
  // cache, not applied a second time.
  const auto replay = service->Feedback(b.value(), round1, 15, /*seq=*/1);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay.value(), first.value());
  EXPECT_EQ(service->stats().feedback_replays, 1u);

  // A later round on both sessions: identical inputs must produce identical
  // rankings — proof the replayed round was applied exactly once.
  std::vector<logdb::LogEntry> round2 = {logdb::LogEntry{ranking_a[2], 1}};
  const auto a2 = service->Feedback(a.value(), round2, 15, /*seq=*/2);
  const auto b2 = service->Feedback(b.value(), round2, 15, /*seq=*/2);
  ASSERT_TRUE(a2.ok() && b2.ok());
  EXPECT_EQ(a2.value(), b2.value());

  // A seq below the session's high-water mark is a protocol error, not a
  // replay (only the latest response is cached).
  const auto stale = service->Feedback(b.value(), round1, 15, /*seq=*/1);
  EXPECT_EQ(stale.status().code(), StatusCode::kFailedPrecondition);

  // seq 0 (an unsequenced client) bypasses the dedup entirely.
  EXPECT_TRUE(service->Feedback(b.value(), round2, 15, /*seq=*/0).ok());

  EXPECT_TRUE(service->EndSession(a.value()).ok());
  EXPECT_TRUE(service->EndSession(b.value()).ok());
}

TEST_F(RetrievalServiceTest, AdmissionControlShedsOverCapacity) {
  ServiceOptions options;
  options.scheme = "RF-SVM";
  options.max_inflight = 1;
  auto service = MakeService(nullptr, options);

  // Occupy the single admission slot with slow work — each RF-SVM Feedback
  // trains an SVM, so the slot is held for milliseconds at a time — while
  // query threads hammer the valve. Some queries must be shed with
  // kUnavailable (reject-not-queue), every shed must carry the typed code,
  // and the service must keep serving normally afterwards.
  constexpr int kQueryThreads = 4;
  constexpr int kHeavyRounds = 12;
  std::atomic<int> served{0};
  std::atomic<int> shed{0};
  std::atomic<int> unexpected{0};
  std::atomic<bool> heavy_done{false};

  std::thread heavy([&] {
    auto sid = service->StartSession(0);
    if (!sid.ok()) {
      unexpected.fetch_add(1);
      heavy_done.store(true);
      return;
    }
    // The query threads may already hold the slot, so the first Query can
    // be shed too; retry and count it like the Feedback sheds below.
    auto ranking = service->Query(sid.value(), 20);
    while (!ranking.ok() &&
           ranking.status().code() == StatusCode::kUnavailable) {
      shed.fetch_add(1);
      std::this_thread::yield();
      ranking = service->Query(sid.value(), 20);
    }
    EXPECT_TRUE(ranking.ok()) << ranking.status();
    for (int i = 0; ranking.ok() && i < kHeavyRounds; ++i) {
      const std::vector<int>& ids = ranking.value();
      std::vector<logdb::LogEntry> round = {logdb::LogEntry{ids[1], 1},
                                            logdb::LogEntry{ids[2], -1}};
      while (true) {  // the heavy thread itself retries its own sheds
        auto r = service->Feedback(sid.value(), round, 20);
        if (r.ok()) {
          ranking = std::move(r);
          break;
        }
        if (r.status().code() != StatusCode::kUnavailable) {
          unexpected.fetch_add(1);
          break;
        }
        shed.fetch_add(1);
        std::this_thread::yield();
      }
      // Breathe between rounds so query threads get a turn at the slot.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    (void)service->EndSession(sid.value());
    heavy_done.store(true);
  });

  std::vector<std::thread> pool;
  for (int t = 0; t < kQueryThreads; ++t) {
    pool.emplace_back([&, t] {
      auto sid = service->StartSession(1 + t);
      if (!sid.ok()) {
        // StartSession is admission-free; it must never shed.
        unexpected.fetch_add(1);
        return;
      }
      while (!heavy_done.load()) {
        auto r = service->Query(sid.value(), 10);
        if (r.ok()) {
          served.fetch_add(1);
        } else if (r.status().code() == StatusCode::kUnavailable) {
          shed.fetch_add(1);
        } else {
          unexpected.fetch_add(1);
        }
      }
      (void)service->EndSession(sid.value());
    });
  }
  heavy.join();
  for (auto& t : pool) t.join();

  EXPECT_EQ(unexpected.load(), 0);
  // served may be 0 on a scheduler that lets the heavy thread monopolize
  // the slot; the serve path is proven by the post-storm query below.
  EXPECT_GT(shed.load(), 0)
      << "queries never collided with a millisecond-scale SVM train";
  EXPECT_EQ(service->stats().requests_shed_overload,
            static_cast<uint64_t>(shed.load()));

  // After the storm: the valve reopens completely.
  auto sid = service->StartSession(1);
  ASSERT_TRUE(sid.ok());
  EXPECT_TRUE(service->Query(sid.value(), 10).ok());
  EXPECT_TRUE(service->EndSession(sid.value()).ok());
}

TEST_F(RetrievalServiceTest, DeadlineShedsAreCounted) {
  ServiceOptions options;
  options.scheme = "Euclidean";
  auto service = MakeService(nullptr, options);
  EXPECT_EQ(service->stats().requests_shed_deadline, 0u);
  service->RecordDeadlineShed();
  service->RecordDeadlineShed();
  EXPECT_EQ(service->stats().requests_shed_deadline, 2u);
  const std::string formatted = FormatServiceStats(service->stats());
  EXPECT_NE(formatted.find("deadline=2"), std::string::npos) << formatted;
}

/// Every `cbir_serve_*` counter and gauge plus every stage histogram's
/// count in `snapshot`, keyed by "name{label}".
std::map<std::string, int64_t> ServeSeries(const obs::MetricsSnapshot& snap) {
  std::map<std::string, int64_t> out;
  const auto key = [](const auto& sample) {
    return sample.name + "{" + sample.label_value + "}";
  };
  for (const obs::CounterSample& c : snap.counters) {
    if (c.name.rfind("cbir_serve_", 0) == 0) {
      out[key(c)] = static_cast<int64_t>(c.value);
    }
  }
  for (const obs::GaugeSample& g : snap.gauges) {
    if (g.name.rfind("cbir_serve_", 0) == 0) out[key(g)] = g.value;
  }
  for (const obs::HistogramSample& h : snap.histograms) {
    if (h.name.rfind("cbir_serve_", 0) == 0 ||
        h.name == "cbir_request_stage_us") {
      out[key(h)] = static_cast<int64_t>(h.summary.count);
    }
  }
  return out;
}

TEST_F(RetrievalServiceTest, CountsEachEventOnceInItsOwnRegistry) {
  const std::map<std::string, int64_t> default_before =
      ServeSeries(obs::MetricsRegistry::Default().Snapshot());
  logdb::LogStore store;
  ServiceOptions options;
  options.scheme = "RF-SVM";
  auto service = MakeService(&store, options);

  auto sid = service->StartSession(3);
  ASSERT_TRUE(sid.ok());
  auto first = service->Query(sid.value(), 10);
  ASSERT_TRUE(first.ok());
  const std::vector<logdb::LogEntry> round = {{(*first)[0], 1},
                                              {(*first)[1], -1}};
  ASSERT_TRUE(service->Feedback(sid.value(), round, 10).ok());
  ASSERT_TRUE(service->FirstRoundCandidates(db_->feature(5), 10, 5).ok());
  ASSERT_TRUE(service->EndSession(sid.value()).ok());

  // Nothing the service did landed in the process-wide registry.
  EXPECT_EQ(ServeSeries(obs::MetricsRegistry::Default().Snapshot()),
            default_before);

  // The candidate call is a candidate query, not a session query.
  const ServiceStats stats = service->stats();
  EXPECT_EQ(stats.queries, 1u);
  EXPECT_EQ(stats.candidate_queries, 1u);
  EXPECT_EQ(stats.feedbacks, 1u);
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.log_sessions_appended, 1u);

  // stats() is a view of the registry: every series equals its field.
  std::map<std::string, int64_t> series =
      ServeSeries(service->metrics().Snapshot());
  const auto field = [](uint64_t v) { return static_cast<int64_t>(v); };
  EXPECT_EQ(series["cbir_serve_queries_total{}"], field(stats.queries));
  EXPECT_EQ(series["cbir_serve_candidate_queries_total{}"],
            field(stats.candidate_queries));
  EXPECT_EQ(series["cbir_serve_feedbacks_total{}"], field(stats.feedbacks));
  EXPECT_EQ(series["cbir_serve_log_sessions_appended_total{}"],
            field(stats.log_sessions_appended));
  EXPECT_EQ(series["cbir_serve_shed_overload_total{}"],
            field(stats.requests_shed_overload));
  EXPECT_EQ(series["cbir_serve_shed_deadline_total{}"],
            field(stats.requests_shed_deadline));
  EXPECT_EQ(series["cbir_serve_feedback_replays_total{}"],
            field(stats.feedback_replays));
  EXPECT_EQ(series["cbir_serve_session_kernel_cache_bytes{}"],
            field(stats.session_kernel_cache_bytes));
  EXPECT_EQ(series["cbir_serve_request_us{}"], field(stats.latency.count));
  EXPECT_EQ(stats.latency.count, 3u);
  EXPECT_EQ(series["cbir_request_stage_us{admission}"], 3);
  EXPECT_EQ(series["cbir_request_stage_us{solve}"], 1);
}

}  // namespace
}  // namespace cbir::serve

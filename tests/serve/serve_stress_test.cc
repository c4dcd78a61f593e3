// Multi-threaded stress tests for the serving subsystem. These are the
// binaries the ThreadSanitizer CI job runs: the assertions matter less than
// the interleavings — sessions started / fed / ended / evicted from many
// threads, first-round cache hit/insert/evict races, and concurrent log-store
// appends.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "core/feedback_scheme.h"
#include "logdb/simulated_user.h"
#include "serve/retrieval_service.h"
#include "util/rng.h"

namespace cbir::serve {
namespace {

constexpr int kThreads = 8;

// Feature-injected corpus: big enough for contention, no rendering cost.
retrieval::ImageDatabase StressCorpus(int rows) {
  constexpr size_t kDims = 12;
  Rng rng(99);
  const int categories = 8;
  la::Matrix features(static_cast<size_t>(rows), kDims);
  std::vector<int> labels(static_cast<size_t>(rows));
  for (size_t r = 0; r < features.rows(); ++r) {
    labels[r] = static_cast<int>(r) % categories;
    for (size_t c = 0; c < kDims; ++c) {
      features.At(r, c) = rng.Gaussian() + (labels[r] == static_cast<int>(c)
                                                ? 2.0
                                                : 0.0);
    }
  }
  return retrieval::ImageDatabase::FromFeatures(std::move(features),
                                                std::move(labels), categories);
}

TEST(ServeStressTest, ConcurrentSessionsFullLifecycle) {
  retrieval::ImageDatabase db = StressCorpus(2000);
  retrieval::IndexOptions index_options;
  index_options.mode = retrieval::IndexMode::kSignature;
  db.BuildIndex(index_options);

  logdb::LogStore store;
  ServiceOptions options;
  options.scheme = "RF-SVM";
  options.candidate_depth = 50;
  options.sessions.max_sessions = 16;  // force capacity evictions under load
  options.cache.capacity = 32;
  auto service_or = RetrievalService::Create(
      &db, nullptr, &store, core::MakeDefaultSchemeOptions(db, nullptr),
      options);
  ASSERT_TRUE(service_or.ok());
  RetrievalService& service = *service_or.value();
  logdb::SimulatedUser user(db.categories(), logdb::UserModel{0.1});

  constexpr int kSessionsPerThread = 12;
  std::atomic<int> hard_failures{0};
  std::atomic<long> rounds_recorded{0};
  auto worker = [&](int t) {
    for (int s = 0; s < kSessionsPerThread; ++s) {
      Rng rng(static_cast<uint64_t>(t) * 7919 + static_cast<uint64_t>(s));
      const int query_id = static_cast<int>(
          rng.UniformInt(static_cast<uint64_t>(db.num_images())));
      auto sid = service.StartSession(query_id);
      if (!sid.ok()) {
        ++hard_failures;
        continue;
      }
      auto ranking = service.Query(sid.value(), 50);
      // NotFound is legal here: tiny capacity means another thread's
      // StartSession may have evicted us already.
      if (!ranking.ok()) continue;
      std::unordered_set<int> judged{query_id};
      const int category = db.category(query_id);
      for (int round = 0; round < 2; ++round) {
        std::vector<logdb::LogEntry> entries;
        for (int id : ranking.value()) {
          if (static_cast<int>(entries.size()) >= 6) break;
          if (!judged.insert(id).second) continue;
          entries.push_back(
              logdb::LogEntry{id, user.Judge(id, category, &rng)});
        }
        auto next = service.Feedback(sid.value(), entries, 50);
        if (!next.ok()) break;
        ranking = std::move(next);
        rounds_recorded.fetch_add(1);
      }
      (void)service.EndSession(sid.value());
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) pool.emplace_back(worker, t);
  for (std::thread& t : pool) t.join();

  EXPECT_EQ(hard_failures.load(), 0);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.sessions_started,
            static_cast<uint64_t>(kThreads * kSessionsPerThread));
  // Everything started was either ended or evicted; nothing leaked.
  EXPECT_EQ(stats.sessions_started,
            stats.sessions_ended + stats.sessions_evicted_capacity +
                stats.sessions_evicted_ttl + stats.active_sessions);
  // Every round that completed on a session that was ended or evicted is in
  // the log store; rounds on sessions evicted mid-flight may be dropped, so
  // the store can only undercount.
  EXPECT_LE(store.num_sessions(), rounds_recorded.load());
  EXPECT_GT(store.num_sessions(), 0);
}

TEST(ServeStressTest, CacheHitInsertEvictRaces) {
  retrieval::ImageDatabase db = StressCorpus(1000);
  retrieval::IndexOptions index_options;
  index_options.mode = retrieval::IndexMode::kSignature;
  db.BuildIndex(index_options);

  ServiceOptions options;
  options.scheme = "Euclidean";
  options.candidate_depth = 40;
  options.cache.capacity = 64;   // smaller than the query pool: evictions
  options.cache.num_shards = 4;
  auto service_or = RetrievalService::Create(
      &db, nullptr, nullptr, core::MakeDefaultSchemeOptions(db, nullptr),
      options);
  ASSERT_TRUE(service_or.ok());
  RetrievalService& service = *service_or.value();

  // Each reader runs for the whole window and at least kMinQueries queries,
  // so the 128-image pool outgrows the 64-entry cache even on a slow
  // (sanitized) build: hits, inserts and evictions all race.
  constexpr int kMinQueries = 100;
  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  auto reader = [&](int t) {
    Rng rng(static_cast<uint64_t>(t) + 1);
    for (int n = 0; n < kMinQueries || !stop.load(std::memory_order_relaxed);
         ++n) {
      const int query_id = static_cast<int>(rng.UniformInt(uint64_t{128}));
      auto sid = service.StartSession(query_id);
      if (!sid.ok()) continue;
      auto ranking = service.Query(sid.value(), 40);
      if (ranking.ok()) {
        // Cached or freshly computed, the ranking must be THE ranking:
        // the underlying data never changes in this test.
        std::vector<int> expected = db.TopK(db.feature(query_id), 40);
        expected.erase(
            std::remove(expected.begin(), expected.end(), query_id),
            expected.end());
        expected.resize(std::min(expected.size(), ranking->size()));
        if (ranking.value() != expected) ++mismatches;
      }
      (void)service.EndSession(sid.value());
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) pool.emplace_back(reader, t);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  for (std::thread& t : pool) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  const ServiceStats stats = service.stats();
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_GT(stats.cache_evictions, 0u);
}

TEST(ServeStressTest, TtlEvictionRacesRequests) {
  retrieval::ImageDatabase db = StressCorpus(500);
  ServiceOptions options;
  options.scheme = "Euclidean";
  options.candidate_depth = 0;  // exhaustive: also covers the no-index path
  options.sessions.ttl_seconds = 0.002;
  auto service_or = RetrievalService::Create(
      &db, nullptr, nullptr, core::MakeDefaultSchemeOptions(db, nullptr),
      options);
  ASSERT_TRUE(service_or.ok());
  RetrievalService& service = *service_or.value();

  std::atomic<bool> stop{false};
  auto worker = [&](int t) {
    Rng rng(static_cast<uint64_t>(t) + 41);
    while (!stop.load(std::memory_order_relaxed)) {
      auto sid = service.StartSession(static_cast<int>(
          rng.UniformInt(static_cast<uint64_t>(db.num_images()))));
      if (!sid.ok()) continue;
      (void)service.Query(sid.value());
      if (rng.Bernoulli(0.3)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(3));
      }
      (void)service.Feedback(sid.value(), {});
      (void)service.EndSession(sid.value());
    }
  };
  auto sweeper = [&] {
    while (!stop.load(std::memory_order_relaxed)) {
      service.EvictExpiredSessions();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads - 1; ++t) pool.emplace_back(worker, t);
  pool.emplace_back(sweeper);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  for (std::thread& t : pool) t.join();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.sessions_started,
            stats.sessions_ended + stats.sessions_evicted_capacity +
                stats.sessions_evicted_ttl + stats.active_sessions);
}

}  // namespace
}  // namespace cbir::serve

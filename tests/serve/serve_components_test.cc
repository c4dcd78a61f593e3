#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/query_cache.h"
#include "serve/service_stats.h"
#include "serve/session_manager.h"

namespace cbir::serve {
namespace {

// ---------------------------------------------------------------- cache ----

TEST(QueryCacheTest, MissThenHit) {
  QueryCache cache(QueryCacheOptions{16, 4});
  std::vector<int> out;
  EXPECT_FALSE(cache.Lookup(1, &out));
  cache.Insert(1, {4, 5, 6});
  ASSERT_TRUE(cache.Lookup(1, &out));
  EXPECT_EQ(out, (std::vector<int>{4, 5, 6}));
  const QueryCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(QueryCacheTest, LruEvictionWithinShard) {
  // One shard, capacity 2: inserting a third entry evicts the LRU one.
  QueryCache cache(QueryCacheOptions{2, 1});
  cache.Insert(1, {1});
  cache.Insert(2, {2});
  std::vector<int> out;
  ASSERT_TRUE(cache.Lookup(1, &out));  // 1 is now most recently used
  cache.Insert(3, {3});
  EXPECT_TRUE(cache.Lookup(1, &out));
  EXPECT_FALSE(cache.Lookup(2, &out));  // evicted
  EXPECT_TRUE(cache.Lookup(3, &out));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(QueryCacheTest, ZeroCapacityDisables) {
  QueryCache cache(QueryCacheOptions{0, 4});
  cache.Insert(1, {1});
  std::vector<int> out;
  EXPECT_FALSE(cache.Lookup(1, &out));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(QueryCacheTest, FingerprintSeparatesQueries) {
  const la::Vec a{1.0, 2.0, 3.0};
  la::Vec b = a;
  const uint64_t base = QueryCache::FingerprintQuery(a);
  EXPECT_EQ(QueryCache::FingerprintQuery(b), base);
  b[0] += 1e-12;
  EXPECT_NE(QueryCache::FingerprintQuery(b), base);
  EXPECT_NE(QueryCache::FingerprintQuery(la::Vec{1.0, 2.0}), base);
}

// ------------------------------------------------------------ histogram ----

TEST(LatencyHistogramTest, BucketLayoutRoundTrips) {
  // Every bucket's reconstructed upper bound must be consistent with its
  // index: value (upper - 1) still lands in the bucket, value upper in a
  // later one.
  for (int b = 0; b < LatencyHistogram::kBuckets; ++b) {
    const uint64_t upper = LatencyHistogram::BucketUpperBound(b);
    EXPECT_EQ(LatencyHistogram::BucketIndex(upper - 1), b) << upper;
    if (b + 1 < LatencyHistogram::kBuckets) {
      EXPECT_EQ(LatencyHistogram::BucketIndex(upper), b + 1);
    }
  }
}

TEST(LatencyHistogramTest, PercentilesAndMean) {
  LatencyHistogram h;
  for (int i = 0; i < 98; ++i) h.Record(100.0);
  h.Record(1000.0);
  h.Record(10000.0);
  const LatencySummary s = h.Summarize();
  EXPECT_EQ(s.count, 100u);
  // Bucket upper bounds over-estimate by at most one sub-bucket (12.5%).
  EXPECT_GE(s.p50_us, 100.0);
  EXPECT_LE(s.p50_us, 113.0);
  EXPECT_GE(s.p99_us, 1000.0);
  EXPECT_LE(s.p99_us, 1125.0);
  EXPECT_GE(s.max_us, 10000.0);
  EXPECT_NEAR(s.mean_us, (98 * 100.0 + 1000.0 + 10000.0) / 100.0, 1.0);
}

TEST(ServiceStatsTest, FormatMentionsTheHeadlines) {
  ServiceStats stats;
  stats.qps = 123.4;
  stats.requests = 10;
  const std::string line = FormatServiceStats(stats);
  EXPECT_NE(line.find("qps=123.4"), std::string::npos);
  EXPECT_NE(line.find("requests=10"), std::string::npos);
  EXPECT_NE(line.find("latency_us"), std::string::npos);
}

// ------------------------------------------------------ session manager ----

std::shared_ptr<ServeSession> NewSession(uint64_t id) {
  auto session = std::make_shared<ServeSession>();
  session->id = id;
  return session;
}

TEST(SessionManagerTest, RegisterAcquireRemove) {
  SessionManager manager(SessionManagerOptions{4, 0.0}, nullptr);
  auto s = NewSession(1);
  manager.Register(s);
  EXPECT_EQ(manager.Acquire(1), s);
  EXPECT_EQ(manager.Acquire(2), nullptr);
  EXPECT_EQ(manager.Remove(1), s);
  EXPECT_EQ(manager.Acquire(1), nullptr);
  const SessionManagerStats stats = manager.stats();
  EXPECT_EQ(stats.started, 1u);
  EXPECT_EQ(stats.ended, 1u);
  EXPECT_EQ(stats.active, 0u);
}

TEST(SessionManagerTest, CapacityEvictsLeastRecentlyUsed) {
  std::vector<uint64_t> evicted;
  SessionManager manager(
      SessionManagerOptions{2, 0.0},
      [&](ServeSession& session) { evicted.push_back(session.id); });
  manager.Register(NewSession(1));
  manager.Register(NewSession(2));
  ASSERT_NE(manager.Acquire(1), nullptr);  // 2 becomes LRU
  manager.Register(NewSession(3));
  EXPECT_EQ(evicted, (std::vector<uint64_t>{2}));
  EXPECT_NE(manager.Acquire(1), nullptr);
  EXPECT_EQ(manager.Acquire(2), nullptr);
  EXPECT_EQ(manager.stats().evicted_capacity, 1u);
  // The evicted session was marked ended under its lock.
  EXPECT_EQ(manager.stats().active, 2u);
}

TEST(SessionManagerTest, TtlEvictsIdleOnly) {
  std::vector<uint64_t> evicted;
  SessionManager manager(
      SessionManagerOptions{8, 0.02},
      [&](ServeSession& session) { evicted.push_back(session.id); });
  manager.Register(NewSession(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  // Fresh registration — and the lazy sweep evicts the expired session 1.
  manager.Register(NewSession(2));
  EXPECT_EQ(evicted, (std::vector<uint64_t>{1}));
  EXPECT_EQ(manager.stats().evicted_ttl, 1u);
  EXPECT_EQ(manager.EvictExpired(), 0u);  // nothing else is idle
  EXPECT_EQ(manager.Acquire(1), nullptr);
  EXPECT_NE(manager.Acquire(2), nullptr);
}

TEST(SessionManagerTest, AcquireRefreshesTtl) {
  SessionManager manager(SessionManagerOptions{8, 0.05}, nullptr);
  manager.Register(NewSession(1));
  for (int i = 0; i < 4; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_NE(manager.Acquire(1), nullptr) << i;
  }
  // Kept alive past 2x TTL by the touches; goes away once left idle.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_EQ(manager.EvictExpired(), 1u);
}

}  // namespace
}  // namespace cbir::serve

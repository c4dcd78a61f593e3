#include "logdb/log_store.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace cbir::logdb {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

LogStore SampleStore() {
  LogStore store;
  LogSession s1;
  s1.query_image_id = 5;
  s1.entries = {LogEntry{1, 1}, LogEntry{2, -1}};
  LogSession s2;
  s2.query_image_id = 9;
  s2.entries = {LogEntry{3, 1}};
  store.Append(s1);
  store.Append(s2);
  return store;
}

TEST(LogStoreTest, AppendAndCount) {
  const LogStore store = SampleStore();
  EXPECT_EQ(store.num_sessions(), 2);
  EXPECT_EQ(store.TotalJudgments(), 3);
}

TEST(LogStoreTest, BuildMatrix) {
  const LogStore store = SampleStore();
  const RelevanceMatrix m = store.BuildMatrix(10);
  EXPECT_EQ(m.num_sessions(), 2);
  EXPECT_EQ(m.Value(0, 1), 1);
  EXPECT_EQ(m.Value(1, 3), 1);
}

TEST(LogStoreTest, SaveLoadRoundTrip) {
  const std::string path = TempPath("log_store_roundtrip.txt");
  const LogStore store = SampleStore();
  ASSERT_TRUE(store.SaveToFile(path).ok());

  auto loaded = LogStore::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->num_sessions(), 2);
  EXPECT_EQ(loaded->sessions()[0].query_image_id, 5);
  EXPECT_EQ(loaded->sessions()[0].entries.size(), 2u);
  EXPECT_EQ(loaded->sessions()[0].entries[1].image_id, 2);
  EXPECT_EQ(loaded->sessions()[0].entries[1].judgment, -1);
  EXPECT_EQ(loaded->sessions()[1].entries[0].image_id, 3);
  std::remove(path.c_str());
}

TEST(LogStoreTest, LoadMissingFileFails) {
  auto r = LogStore::LoadFromFile(TempPath("missing.txt"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(LogStoreTest, LoadRejectsBadHeader) {
  const std::string path = TempPath("bad_header.txt");
  std::ofstream(path) << "wrong v1 0\n";
  EXPECT_FALSE(LogStore::LoadFromFile(path).ok());
  std::remove(path.c_str());
}

TEST(LogStoreTest, LoadRejectsBadJudgment) {
  const std::string path = TempPath("bad_judgment.txt");
  std::ofstream(path) << "cbir_log v1 1\nsession 0 1\n3 5\n";
  auto r = LogStore::LoadFromFile(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(LogStoreTest, LoadRejectsTruncated) {
  const std::string path = TempPath("truncated.txt");
  std::ofstream(path) << "cbir_log v1 2\nsession 0 1\n3 1\n";
  EXPECT_FALSE(LogStore::LoadFromFile(path).ok());
  std::remove(path.c_str());
}

TEST(LogStoreTest, ConcurrentAppendsAllLand) {
  // The serving layer appends from many worker threads while readers build
  // matrices and count judgments; none of it may tear or drop sessions.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  LogStore store;
  std::vector<std::thread> pool;
  std::atomic<bool> go{false};
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&store, &go, t] {
      while (!go.load()) {
      }
      for (int i = 0; i < kPerThread; ++i) {
        LogSession session;
        session.query_image_id = t;
        session.entries = {LogEntry{i % 50, 1}, LogEntry{(i + 1) % 50, -1}};
        store.Append(std::move(session));
      }
    });
  }
  // Concurrent readers exercise the locked read paths while writers run.
  std::atomic<bool> stop_reader{false};
  std::thread reader([&store, &stop_reader] {
    while (!stop_reader.load()) {
      (void)store.num_sessions();
      (void)store.TotalJudgments();
      (void)store.BuildMatrix(50);
      (void)store.Snapshot();
    }
  });
  go.store(true);
  for (std::thread& t : pool) t.join();
  stop_reader.store(true);
  reader.join();

  EXPECT_EQ(store.num_sessions(), kThreads * kPerThread);
  EXPECT_EQ(store.TotalJudgments(), int64_t{kThreads * kPerThread * 2});
  // Per-thread append order is preserved (each thread's sessions appear in
  // its own program order even though threads interleave).
  std::vector<int> next_i(kThreads, 0);
  for (const LogSession& s : store.sessions()) {
    ASSERT_GE(s.query_image_id, 0);
    ASSERT_LT(s.query_image_id, kThreads);
    const int t = s.query_image_id;
    EXPECT_EQ(s.entries[0].image_id, next_i[static_cast<size_t>(t)] % 50);
    ++next_i[static_cast<size_t>(t)];
  }
}

TEST(LogStoreTest, SnapshotIsConsistentCopy) {
  LogStore store = SampleStore();
  const std::vector<LogSession> snapshot = store.Snapshot();
  store.Append(LogSession{1, {LogEntry{4, 1}}});
  EXPECT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(store.num_sessions(), 3);
}

TEST(LogStoreTest, CopyAndMoveKeepSessions) {
  const LogStore store = SampleStore();
  LogStore copy(store);
  EXPECT_EQ(copy.num_sessions(), 2);
  LogStore moved(std::move(copy));
  EXPECT_EQ(moved.num_sessions(), 2);
  LogStore assigned;
  assigned = moved;
  EXPECT_EQ(assigned.num_sessions(), 2);
  LogStore move_assigned;
  move_assigned = std::move(assigned);
  EXPECT_EQ(move_assigned.num_sessions(), 2);
  EXPECT_EQ(move_assigned.sessions()[0].query_image_id, 5);
}

TEST(LogStoreTest, EmptyStoreRoundTrip) {
  const std::string path = TempPath("empty_store.txt");
  LogStore store;
  ASSERT_TRUE(store.SaveToFile(path).ok());
  auto loaded = LogStore::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_sessions(), 0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cbir::logdb

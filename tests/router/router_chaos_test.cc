// Chaos coverage of the shard router: two real cbir serving stacks behind
// real TcpServers, a BackendPool + ShardRouter front tier on its own
// TcpServer, and worker threads hammering it while a backend dies
// mid-burst. Asserts the degradation contract end to end: partial (flagged)
// first-round results while a shard is down, typed kUnavailable for
// sessions pinned to the dead shard, automatic re-admission after restart,
// and zero router crashes throughout. Runs under TSan in CI.
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "api/dispatcher.h"
#include "core/feedback_scheme.h"
#include "logdb/log_store.h"
#include "logdb/simulated_user.h"
#include "net/fault_injector.h"
#include "net/retrying_client.h"
#include "net/tcp_server.h"
#include "retrieval/synthetic_features.h"
#include "router/backend_pool.h"
#include "router/shard_router.h"
#include "serve/retrieval_service.h"

namespace cbir::router {
namespace {

constexpr int kCorpusRows = 300;
constexpr int kCorpusSeed = 11;
constexpr int kDepth = 40;

/// One complete in-process shard: corpus + service + dispatcher + TcpServer.
/// Kill() stops the transport (the network-visible part of kill -9);
/// Restart() brings it back on the same port.
struct Shard {
  std::unique_ptr<retrieval::ImageDatabase> db;
  logdb::LogStore store;
  la::Matrix log_features;
  std::unique_ptr<serve::RetrievalService> service;
  std::unique_ptr<api::Dispatcher> dispatcher;
  std::unique_ptr<net::TcpServer> server;
  int port = 0;

  void Kill() { server->Stop(); }

  void Restart() {
    net::TcpServerOptions options;
    options.port = port;
    server = std::make_unique<net::TcpServer>(dispatcher.get(), options);
    ASSERT_TRUE(server->Start().ok());
  }
};

std::unique_ptr<Shard> MakeShard(uint64_t first_session_id,
                                 int corpus_rows = kCorpusRows) {
  auto shard = std::make_unique<Shard>();
  shard->db = std::make_unique<retrieval::ImageDatabase>(
      retrieval::ClusteredDatabase(corpus_rows, kCorpusSeed));
  retrieval::IndexOptions index_options;
  index_options.mode = retrieval::IndexMode::kSignature;
  shard->db->BuildIndex(index_options);

  logdb::LogCollectionOptions log_options;
  log_options.num_sessions = 30;
  log_options.session_size = 12;
  log_options.seed = 13;
  shard->store = logdb::CollectLogs(shard->db->features(),
                                    shard->db->categories(), log_options);
  shard->log_features =
      shard->store.BuildMatrix(shard->db->num_images()).ToDenseMatrix();

  serve::ServiceOptions options;
  options.scheme = "RF-SVM";
  options.candidate_depth = kDepth;
  options.first_session_id = first_session_id;
  auto service = serve::RetrievalService::Create(
      shard->db.get(), &shard->log_features, &shard->store,
      core::MakeDefaultSchemeOptions(*shard->db, &shard->log_features),
      options);
  EXPECT_TRUE(service.ok()) << service.status();
  if (!service.ok()) return nullptr;
  shard->service = std::move(service).value();
  shard->dispatcher = std::make_unique<api::Dispatcher>(shard->service.get());
  shard->server = std::make_unique<net::TcpServer>(shard->dispatcher.get(),
                                                   net::TcpServerOptions{});
  EXPECT_TRUE(shard->server->Start().ok());
  shard->port = shard->server->port();
  return shard;
}

BackendPoolOptions FastPoolOptions() {
  BackendPoolOptions options;
  options.probe_interval_ms = 50;
  options.eject_after_failures = 2;
  options.readmit_after_successes = 2;
  options.probe_timeout_ms = 500;
  options.shard_deadline_ms = 2000;
  options.session_retry.max_attempts = 2;
  options.session_retry.initial_backoff_ms = 5;
  options.session_retry.max_backoff_ms = 20;
  options.session_retry.connect_timeout_ms = 1000;
  options.session_retry.rpc_timeout_ms = 2000;
  return options;
}

/// Spins until `predicate` holds or ~5s pass (probe intervals are 50ms, so
/// ejection/re-admission land within a few iterations).
template <typename Predicate>
bool WaitFor(Predicate predicate) {
  for (int i = 0; i < 500; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

net::RetryOptions ClientRetryOptions(uint64_t seed) {
  net::RetryOptions options;
  options.max_attempts = 2;
  options.initial_backoff_ms = 5;
  options.max_backoff_ms = 20;
  options.connect_timeout_ms = 2000;
  options.rpc_timeout_ms = 5000;
  options.seed = seed;
  return options;
}

/// Two shards + pool + router + front server, torn down in reverse order.
class RouterChaosTest : public ::testing::Test {
 protected:
  void StartCluster() {
    shard0_ = MakeShard(1);
    shard1_ = MakeShard(1000001);
    ASSERT_NE(shard0_, nullptr);
    ASSERT_NE(shard1_, nullptr);
    StartFrontTier();
  }

  void StartFrontTier(BackendPoolOptions options = FastPoolOptions()) {
    pool_ = std::make_unique<BackendPool>(
        std::vector<BackendEndpoint>{{"127.0.0.1", shard0_->port},
                                     {"127.0.0.1", shard1_->port}},
        std::move(options));
    ASSERT_TRUE(pool_->Start().ok());
    router_ = std::make_unique<ShardRouter>(pool_.get(), RouterOptions{});
    front_ = std::make_unique<net::TcpServer>(router_.get(),
                                              net::TcpServerOptions{});
    ASSERT_TRUE(front_->Start().ok());
  }

  void TearDown() override {
    if (front_ != nullptr) front_->Stop();
    if (pool_ != nullptr) pool_->Stop();
    if (shard0_ != nullptr && shard0_->server != nullptr) {
      shard0_->server->Stop();
    }
    if (shard1_ != nullptr && shard1_->server != nullptr) {
      shard1_->server->Stop();
    }
  }

  net::RetryingClient Connect(uint64_t seed = 1) {
    return net::RetryingClient("127.0.0.1", front_->port(),
                               ClientRetryOptions(seed));
  }

  std::unique_ptr<Shard> shard0_;
  std::unique_ptr<Shard> shard1_;
  std::unique_ptr<BackendPool> pool_;
  std::unique_ptr<ShardRouter> router_;
  std::unique_ptr<net::TcpServer> front_;
};

TEST_F(RouterChaosTest, HealthyClusterServesFullMerges) {
  StartCluster();
  net::RetryingClient client = Connect();

  Result<api::DescribeResponse> described = client.Describe();
  ASSERT_TRUE(described.ok()) << described.status();
  EXPECT_EQ(described->corpus_size, static_cast<uint64_t>(kCorpusRows));

  Result<uint64_t> sid = client.StartSession(api::QuerySpec::ById(7));
  ASSERT_TRUE(sid.ok()) << sid.status();
  Result<std::vector<int>> first = client.Query(sid.value(), 20);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->size(), 20u);
  EXPECT_FALSE(client.last_degraded());

  // Feedback pins the SVM state; the re-ranking comes from one shard.
  std::vector<logdb::LogEntry> round = {{(*first)[0], 1}, {(*first)[1], -1}};
  Result<std::vector<int>> reranked =
      client.Feedback(sid.value(), round, 20);
  ASSERT_TRUE(reranked.ok()) << reranked.status();
  EXPECT_EQ(reranked->size(), 20u);
  EXPECT_TRUE(client.EndSession(sid.value()).ok());

  const RouterStats stats = router_->stats();
  EXPECT_EQ(stats.sessions_started, 1u);
  EXPECT_EQ(stats.scatter_queries, 1u);
  EXPECT_EQ(stats.degraded_responses, 0u);
  EXPECT_EQ(stats.feedbacks_forwarded, 1u);
}

TEST_F(RouterChaosTest, KillMidBurstDegradesButServes) {
  StartCluster();

  constexpr int kWorkers = 4;
  constexpr int kSessionsPerWorker = 80;
  std::atomic<int> completed{0};
  std::atomic<int> degraded{0};
  std::atomic<int> casualties{0};   // transient statuses during the outage
  std::atomic<int> unexpected{0};   // anything else = a router bug
  std::atomic<int> post_kill_success{0};
  std::atomic<bool> killed{false};

  std::vector<std::thread> workers;
  workers.reserve(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      net::RetryingClient client = Connect(100 + static_cast<uint64_t>(w));
      for (int s = 0; s < kSessionsPerWorker; ++s) {
        // A failure anywhere in the session counts once, by its status.
        const auto classify = [&](const Status& status) {
          if (status.code() == StatusCode::kUnavailable ||
              status.code() == StatusCode::kDeadlineExceeded ||
              status.code() == StatusCode::kIoError) {
            casualties.fetch_add(1);
          } else {
            ADD_FAILURE() << "unexpected status: " << status;
            unexpected.fetch_add(1);
          }
        };
        Result<uint64_t> sid =
            client.StartSession(api::QuerySpec::ById((w * 31 + s) % 200));
        if (!sid.ok()) {
          classify(sid.status());
          continue;
        }
        Result<std::vector<int>> ranking = client.Query(sid.value(), 15);
        if (!ranking.ok()) {
          classify(ranking.status());
          continue;
        }
        if (client.last_degraded()) degraded.fetch_add(1);
        std::vector<logdb::LogEntry> round = {{(*ranking)[0], 1},
                                              {(*ranking)[1], -1}};
        Result<std::vector<int>> reranked =
            client.Feedback(sid.value(), round, 15);
        if (!reranked.ok()) {
          classify(reranked.status());
          continue;
        }
        client.EndSession(sid.value());  // best-effort during the outage
        completed.fetch_add(1);
        if (killed.load(std::memory_order_acquire)) {
          post_kill_success.fetch_add(1);
        }
      }
    });
  }

  // Kill shard 1 once the burst is demonstrably in flight but nowhere near
  // done, so plenty of sessions run against the degraded cluster.
  ASSERT_TRUE(WaitFor([&] { return completed.load() >= 10; }));
  shard1_->Kill();
  killed.store(true, std::memory_order_release);
  for (std::thread& worker : workers) worker.join();

  EXPECT_EQ(unexpected.load(), 0);
  EXPECT_GT(completed.load(), 0);
  // The outage must not take the router down: sessions that started after
  // the kill (hashed to the surviving shard) keep completing...
  EXPECT_GT(post_kill_success.load(), 0);
  // ...and their first rounds are partial merges, flagged as such.
  EXPECT_GT(degraded.load(), 0);
  // The breaker must have ejected the dead shard by the time the burst
  // drains (consecutive RPC failures alone are enough — no probe needed).
  EXPECT_TRUE(WaitFor([&] { return !pool_->healthy(1); }));
  EXPECT_GE(pool_->stats().ejections, 1u);
}

TEST_F(RouterChaosTest, PinnedSessionsFailFastTypedAndRecoverAfterRestart) {
  StartCluster();
  net::RetryingClient client = Connect();

  // Collect one session pinned to each backend (the ring spreads ids, so a
  // handful of starts covers both).
  uint64_t pinned_to[2] = {0, 0};
  for (int i = 0; i < 32 && (pinned_to[0] == 0 || pinned_to[1] == 0); ++i) {
    Result<uint64_t> sid = client.StartSession(api::QuerySpec::ById(i % 200));
    ASSERT_TRUE(sid.ok()) << sid.status();
    Result<int> backend = router_->SessionBackend(sid.value());
    ASSERT_TRUE(backend.ok()) << backend.status();
    uint64_t& slot = pinned_to[backend.value()];
    if (slot == 0) slot = sid.value();
  }
  ASSERT_NE(pinned_to[0], 0u);
  ASSERT_NE(pinned_to[1], 0u);

  shard1_->Kill();
  ASSERT_TRUE(WaitFor([&] { return !pool_->healthy(1); }));

  // The dead shard's pinned session fails fast with a *typed* kUnavailable
  // — the router rejects it without touching the network.
  std::vector<logdb::LogEntry> round = {{1, 1}, {2, -1}};
  Result<std::vector<int>> dead =
      client.Feedback(pinned_to[1], round, 10);
  ASSERT_FALSE(dead.ok());
  EXPECT_EQ(dead.status().code(), StatusCode::kUnavailable);
  const uint64_t failfast_before = router_->stats().failfast_unavailable;
  EXPECT_GE(failfast_before, 1u);

  // The surviving shard's pinned session still works end to end.
  Result<std::vector<int>> alive =
      client.Feedback(pinned_to[0], round, 10);
  ASSERT_TRUE(alive.ok()) << alive.status();

  // First-round scatters keep answering, degraded.
  Result<uint64_t> during = client.StartSession(api::QuerySpec::ById(3));
  ASSERT_TRUE(during.ok()) << during.status();
  Result<std::vector<int>> partial = client.Query(during.value(), 10);
  ASSERT_TRUE(partial.ok()) << partial.status();
  EXPECT_FALSE(partial->empty());
  EXPECT_TRUE(client.last_degraded());

  // Restart the shard on its old port: the prober must re-admit it and
  // full (non-degraded) merges must resume.
  shard1_->Restart();
  ASSERT_TRUE(WaitFor([&] { return pool_->healthy(1); }));
  EXPECT_GE(pool_->stats().readmissions, 1u);
  ASSERT_TRUE(WaitFor([&] {
    Result<uint64_t> sid = client.StartSession(api::QuerySpec::ById(5));
    if (!sid.ok()) return false;
    Result<std::vector<int>> full = client.Query(sid.value(), 10);
    client.EndSession(sid.value());
    return full.ok() && !client.last_degraded();
  }));
}

TEST_F(RouterChaosTest, TwoRoutersCountIntoTheirOwnRegistries) {
  StartCluster();
  // A second router over the same pool, driven in process: each router's
  // counters and active-sessions gauge must stay its own.
  ShardRouter second(pool_.get(), RouterOptions{});
  const auto start = [](ShardRouter& router, int query) {
    api::StartSessionRequest request;
    request.query = api::QuerySpec::ById(query);
    const api::Response response = router.HandleRequest(
        api::Request(request), api::RequestEnvelope{}, 0, nullptr);
    const auto& started = std::get<api::StartSessionResponse>(response);
    EXPECT_EQ(started.status.code, 0u);
    return started.session_id;
  };
  const auto query = [](ShardRouter& router, uint64_t session_id) {
    api::QueryRequest request;
    request.session_id = session_id;
    request.k = 10;
    router.HandleRequest(api::Request(request), api::RequestEnvelope{}, 0,
                         nullptr);
  };
  query(*router_, start(*router_, 1));
  start(*router_, 2);
  start(*router_, 3);
  query(second, start(second, 4));

  const RouterStats first_stats = router_->stats();
  const RouterStats second_stats = second.stats();
  EXPECT_EQ(first_stats.sessions_started, 3u);
  EXPECT_EQ(first_stats.active_sessions, 3u);
  EXPECT_EQ(first_stats.scatter_queries, 1u);
  EXPECT_EQ(second_stats.sessions_started, 1u);
  EXPECT_EQ(second_stats.active_sessions, 1u);
  EXPECT_EQ(second_stats.scatter_queries, 1u);

  const auto gauge = [](ShardRouter& router) {
    for (const obs::GaugeSample& g : router.metrics().Snapshot().gauges) {
      if (g.name == "cbir_router_active_sessions") return g.value;
    }
    return int64_t{-1};
  };
  EXPECT_EQ(gauge(*router_), 3);
  EXPECT_EQ(gauge(second), 1);
}

TEST_F(RouterChaosTest, AllBackendsDownIsTypedUnavailable) {
  StartCluster();
  shard0_->Kill();
  shard1_->Kill();
  ASSERT_TRUE(
      WaitFor([&] { return !pool_->healthy(0) && !pool_->healthy(1); }));
  EXPECT_EQ(pool_->num_healthy(), 0);

  net::RetryingClient client = Connect();
  Result<uint64_t> sid = client.StartSession(api::QuerySpec::ById(1));
  ASSERT_FALSE(sid.ok());
  EXPECT_EQ(sid.status().code(), StatusCode::kUnavailable);
}

TEST_F(RouterChaosTest, BlackholedBackendIsNeverAdmitted) {
  // The FaultInjector variant of a dead backend: connects succeed but every
  // frame is silently dropped, so probes time out instead of erroring fast.
  shard0_ = MakeShard(1);
  shard1_ = MakeShard(1000001);
  ASSERT_NE(shard0_, nullptr);
  ASSERT_NE(shard1_, nullptr);

  net::FaultInjectorOptions blackhole_options;
  blackhole_options.drop_probability = 1.0;
  net::FaultInjector blackhole(blackhole_options);

  BackendPoolOptions options = FastPoolOptions();
  options.probe_timeout_ms = 100;  // keep the timing-out probes cheap
  options.injectors = {nullptr, &blackhole};
  StartFrontTier(std::move(options));

  // Start() saw only shard 0; the blackholed backend begins ejected.
  EXPECT_TRUE(pool_->healthy(0));
  EXPECT_FALSE(pool_->healthy(1));

  // Scatters answer degraded from the one live shard.
  net::RetryingClient client = Connect();
  Result<uint64_t> sid = client.StartSession(api::QuerySpec::ById(2));
  ASSERT_TRUE(sid.ok()) << sid.status();
  Result<std::vector<int>> ranking = client.Query(sid.value(), 10);
  ASSERT_TRUE(ranking.ok()) << ranking.status();
  EXPECT_FALSE(ranking->empty());
  EXPECT_TRUE(client.last_degraded());

  // Give the prober several intervals: timing-out probes must never count
  // as successes, so the blackholed backend stays out.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_FALSE(pool_->healthy(1));
  EXPECT_GE(pool_->stats().probe_failures, 1u);
}

TEST_F(RouterChaosTest, MismatchedCorpusRefusedAtStart) {
  shard0_ = MakeShard(1);
  shard1_ = MakeShard(1000001, kCorpusRows * 2);  // different corpus
  ASSERT_NE(shard0_, nullptr);
  ASSERT_NE(shard1_, nullptr);

  pool_ = std::make_unique<BackendPool>(
      std::vector<BackendEndpoint>{{"127.0.0.1", shard0_->port},
                                   {"127.0.0.1", shard1_->port}},
      FastPoolOptions());
  const Status started = pool_->Start();
  EXPECT_FALSE(started.ok());
  EXPECT_EQ(started.code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace cbir::router

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "api/codec.h"
#include "api/dispatcher.h"
#include "core/feedback_scheme.h"
#include "logdb/simulated_user.h"
#include "net/tcp_client.h"
#include "net/tcp_server.h"
#include "retrieval/synthetic_features.h"
#include "serve/retrieval_service.h"
#include "util/rng.h"

namespace cbir::net {
namespace {

constexpr int kRounds = 2;
constexpr int kJudgments = 8;
constexpr int kDepth = 20 + kRounds * kJudgments + 1;

/// One shared serving stack (clustered corpus + signature index + feedback
/// log + RF-SVM service) behind one TcpServer on an ephemeral loopback
/// port. Sessions are independent, so remote and in-process sessions can be
/// driven against the same service and compared.
class TcpServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new retrieval::ImageDatabase(retrieval::ClusteredDatabase(600, 11));
    retrieval::IndexOptions index_options;
    index_options.mode = retrieval::IndexMode::kSignature;
    db_->BuildIndex(index_options);

    logdb::LogCollectionOptions log_options;
    log_options.num_sessions = 60;
    log_options.session_size = 15;
    log_options.seed = 13;
    store_ = new logdb::LogStore(
        logdb::CollectLogs(db_->features(), db_->categories(), log_options));
    log_features_ = new la::Matrix(
        store_->BuildMatrix(db_->num_images()).ToDenseMatrix());

    serve::ServiceOptions options;
    options.scheme = "RF-SVM";
    options.candidate_depth = kDepth;
    auto service = serve::RetrievalService::Create(
        db_, log_features_, store_,
        core::MakeDefaultSchemeOptions(*db_, log_features_), options);
    ASSERT_TRUE(service.ok()) << service.status();
    service_ = std::move(service).value().release();
    dispatcher_ = new api::Dispatcher(service_);
    server_ = new TcpServer(dispatcher_, TcpServerOptions{});
    ASSERT_TRUE(server_->Start().ok());
  }

  static void TearDownTestSuite() {
    server_->Stop();
    delete server_;
    server_ = nullptr;
    delete dispatcher_;
    dispatcher_ = nullptr;
    delete service_;
    service_ = nullptr;
    delete log_features_;
    log_features_ = nullptr;
    delete store_;
    store_ = nullptr;
    delete db_;
    db_ = nullptr;
  }

  static TcpClient MustConnect() {
    auto client = TcpClient::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status();
    return std::move(client).value();
  }

  /// Replays one full feedback session (deterministic judgments from
  /// `seed`) through `start`/`query`/`feedback` callables and returns the
  /// ranking after every round (round 0 = first retrieval). Judgments are
  /// derived from the evolving ranking itself, so two transports produce
  /// identical judgment streams iff their rankings are identical.
  template <typename StartFn, typename QueryFn, typename FeedbackFn,
            typename EndFn>
  static std::vector<std::vector<int>> ReplaySession(
      int query_id, uint64_t seed, StartFn start, QueryFn query,
      FeedbackFn feedback, EndFn end) {
    logdb::SimulatedUser user(db_->categories(), logdb::UserModel{0.1});
    Rng rng(seed);
    std::vector<std::vector<int>> rankings;
    const uint64_t sid = start();
    rankings.push_back(query(sid, kDepth));
    std::unordered_set<int> judged{query_id};
    const int category = db_->category(query_id);
    for (int r = 0; r < kRounds; ++r) {
      std::vector<logdb::LogEntry> round;
      for (int id : rankings.back()) {
        if (static_cast<int>(round.size()) >= kJudgments) break;
        if (!judged.insert(id).second) continue;
        round.push_back(logdb::LogEntry{id, user.Judge(id, category, &rng)});
      }
      rankings.push_back(feedback(sid, round, kDepth));
    }
    end(sid);
    return rankings;
  }

  static std::vector<std::vector<int>> ReplayInProcess(int query_id,
                                                       uint64_t seed) {
    return ReplaySession(
        query_id, seed,
        [&] { return service_->StartSession(query_id).value(); },
        [&](uint64_t sid, int k) { return service_->Query(sid, k).value(); },
        [&](uint64_t sid, const std::vector<logdb::LogEntry>& round, int k) {
          return service_->Feedback(sid, round, k).value();
        },
        [&](uint64_t sid) { EXPECT_TRUE(service_->EndSession(sid).ok()); });
  }

  static std::vector<std::vector<int>> ReplayRemote(TcpClient& client,
                                                    int query_id,
                                                    uint64_t seed) {
    return ReplaySession(
        query_id, seed,
        [&] {
          return client.StartSession(api::QuerySpec::ById(query_id)).value();
        },
        [&](uint64_t sid, int k) { return client.Query(sid, k).value(); },
        [&](uint64_t sid, const std::vector<logdb::LogEntry>& round, int k) {
          return client.Feedback(sid, round, k).value();
        },
        [&](uint64_t sid) { EXPECT_TRUE(client.EndSession(sid).ok()); });
  }

  static retrieval::ImageDatabase* db_;
  static logdb::LogStore* store_;
  static la::Matrix* log_features_;
  static serve::RetrievalService* service_;
  static api::Dispatcher* dispatcher_;
  static TcpServer* server_;
};

retrieval::ImageDatabase* TcpServiceTest::db_ = nullptr;
logdb::LogStore* TcpServiceTest::store_ = nullptr;
la::Matrix* TcpServiceTest::log_features_ = nullptr;
serve::RetrievalService* TcpServiceTest::service_ = nullptr;
api::Dispatcher* TcpServiceTest::dispatcher_ = nullptr;
TcpServer* TcpServiceTest::server_ = nullptr;

// The acceptance-critical gate: a session driven over loopback TCP is
// byte-identical, round for round, to the same session driven through the
// in-process service — one shared Dispatcher code path, zero drift.
TEST_F(TcpServiceTest, RemoteSessionIsByteIdenticalToInProcess) {
  TcpClient client = MustConnect();
  for (const int query_id : {3, 77, 256}) {
    SCOPED_TRACE(query_id);
    const auto local = ReplayInProcess(query_id, 41);
    const auto remote = ReplayRemote(client, query_id, 41);
    ASSERT_EQ(local.size(), remote.size());
    for (size_t round = 0; round < local.size(); ++round) {
      SCOPED_TRACE(round);
      EXPECT_EQ(local[round], remote[round]);  // full vectors, byte-identical
    }
  }
}

// Second acceptance gate: a QuerySpec{feature vector} session carrying a
// corpus image's feature reproduces the matching QuerySpec{corpus id}
// session's ranking. The only permitted difference is the query image
// itself: the external session has no corpus row to exclude, so the
// identical-feature image appears in its ranking (first at round 0).
TEST_F(TcpServiceTest, FeatureVectorSessionReproducesCorpusIdSession) {
  TcpClient client = MustConnect();
  const int query_id = 123;
  logdb::SimulatedUser user(db_->categories(), logdb::UserModel{0.1});
  const int category = db_->category(query_id);

  const uint64_t by_id =
      client.StartSession(api::QuerySpec::ById(query_id)).value();
  const uint64_t by_feature =
      client.StartSession(api::QuerySpec::ByFeature(db_->feature(query_id)))
          .value();

  auto strip_query = [&](std::vector<int> ranking) {
    ranking.erase(std::remove(ranking.begin(), ranking.end(), query_id),
                  ranking.end());
    return ranking;
  };

  std::vector<int> id_ranking = client.Query(by_id, kDepth).value();
  std::vector<int> feature_ranking = client.Query(by_feature, kDepth).value();
  // Round 0: the identical-feature corpus image has distance zero, so it
  // leads the external session's ranking.
  ASSERT_FALSE(feature_ranking.empty());
  EXPECT_EQ(feature_ranking.front(), query_id);
  // Stripping may shorten the fixed-size top-k by one (when the query image
  // sat inside it); the surviving prefix must match the by-id session
  // exactly.
  std::vector<int> stripped = strip_query(feature_ranking);
  ASSERT_GE(stripped.size() + 1, id_ranking.size());
  std::vector<int> expected = id_ranking;
  expected.resize(std::min(stripped.size(), expected.size()));
  stripped.resize(expected.size());
  EXPECT_EQ(stripped, expected);

  // Feedback rounds: identical judgments (never the query image — the by-id
  // session would silently drop it) must produce the same re-ranking modulo
  // the query image's own position.
  Rng rng(29);
  std::unordered_set<int> judged{query_id};
  for (int r = 0; r < kRounds; ++r) {
    SCOPED_TRACE(r);
    std::vector<logdb::LogEntry> round;
    for (int id : id_ranking) {
      if (static_cast<int>(round.size()) >= kJudgments) break;
      if (!judged.insert(id).second) continue;
      round.push_back(logdb::LogEntry{id, user.Judge(id, category, &rng)});
    }
    id_ranking = client.Feedback(by_id, round, kDepth).value();
    feature_ranking = client.Feedback(by_feature, round, kDepth).value();
    std::vector<int> stripped_round = strip_query(feature_ranking);
    ASSERT_GE(stripped_round.size() + 1, id_ranking.size());
    std::vector<int> expected_round = id_ranking;
    expected_round.resize(
        std::min(stripped_round.size(), expected_round.size()));
    stripped_round.resize(expected_round.size());
    EXPECT_EQ(stripped_round, expected_round);
  }
  EXPECT_TRUE(client.EndSession(by_id).ok());
  EXPECT_TRUE(client.EndSession(by_feature).ok());
}

TEST_F(TcpServiceTest, PipelinedRequestsAnswerInOrder) {
  TcpClient client = MustConnect();
  const uint64_t sid =
      client.StartSession(api::QuerySpec::ById(9)).value();
  // Send a burst of requests before reading a single response; the server
  // must answer strictly in order.
  constexpr int kBurst = 16;
  for (int i = 0; i < kBurst; ++i) {
    api::QueryRequest query;
    query.session_id = sid;
    query.k = i + 1;
    ASSERT_TRUE(client.Send(api::Request(query)).ok());
  }
  ASSERT_TRUE(client.Send(api::Request(api::StatsRequest{})).ok());
  for (int i = 0; i < kBurst; ++i) {
    Result<api::Response> response = client.Receive();
    ASSERT_TRUE(response.ok()) << response.status();
    auto* ranked = std::get_if<api::QueryResponse>(&response.value());
    ASSERT_NE(ranked, nullptr) << "response " << i << " out of order";
    EXPECT_EQ(ranked->ranking.size(), static_cast<size_t>(i + 1));
  }
  Result<api::Response> stats = client.Receive();
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(std::holds_alternative<api::StatsResponse>(stats.value()));
  EXPECT_TRUE(client.EndSession(sid).ok());
}

TEST_F(TcpServiceTest, RemoteErrorsAreTypedLikeInProcessOnes) {
  TcpClient client = MustConnect();
  EXPECT_EQ(client.StartSession(api::QuerySpec::ById(-3)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      client.StartSession(api::QuerySpec::ByFeature({1.0, 2.0})).status()
          .code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(client.Query(0xDEAD).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(client.EndSession(0xDEAD).code(), StatusCode::kNotFound);

  const uint64_t sid = client.StartSession(api::QuerySpec::ById(2)).value();
  EXPECT_TRUE(client.EndSession(sid).ok());
  // Double end: NotFound over the wire, exactly like the direct call.
  EXPECT_EQ(client.EndSession(sid).code(), StatusCode::kNotFound);
}

TEST_F(TcpServiceTest, MalformedBytesGetTypedErrorAndServerSurvives) {
  // Hand-roll a connection and send garbage that is not a valid frame.
  auto raw = Socket::ConnectTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(raw.ok());
  const char garbage[] = "GET / HTTP/1.1\r\n\r\n";  // wrong protocol entirely
  ASSERT_TRUE(raw->WriteAll(garbage, sizeof(garbage) - 1).ok());

  // The server answers with an ErrorResponse frame, then closes.
  std::vector<uint8_t> header(api::kFrameHeaderBytes);
  ASSERT_TRUE(raw->ReadFully(header.data(), header.size()).ok());
  auto frame = api::DecodeFrameHeader(header.data(), header.size());
  ASSERT_TRUE(frame.ok()) << frame.status();
  ASSERT_EQ(frame->type, api::MessageType::kErrorResponse);
  std::vector<uint8_t> body(frame->body_size);
  ASSERT_TRUE(raw->ReadFully(body.data(), body.size()).ok());
  auto response = api::DecodeResponseBody(*frame, body.data(), body.size());
  ASSERT_TRUE(response.ok());
  const auto& error = std::get<api::ErrorResponse>(response.value());
  EXPECT_FALSE(error.status.ok());

  // Connection is closed after the error...
  bool clean_eof = false;
  ASSERT_TRUE(
      raw->ReadFully(header.data(), header.size(), &clean_eof).ok());
  EXPECT_TRUE(clean_eof);

  // ...and the server keeps serving fresh connections.
  TcpClient client = MustConnect();
  const uint64_t sid = client.StartSession(api::QuerySpec::ById(1)).value();
  EXPECT_TRUE(client.Query(sid).ok());
  EXPECT_TRUE(client.EndSession(sid).ok());
  EXPECT_GE(server_->stats().decode_errors, 1u);
}

TEST_F(TcpServiceTest, WrongProtocolVersionRejectedTyped) {
  auto raw = Socket::ConnectTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(raw.ok());
  api::QueryRequest query;
  query.session_id = 1;
  std::vector<uint8_t> frame = api::EncodeRequest(api::Request(query));
  frame[4] = uint8_t(api::kProtocolVersion + 7);  // version field
  ASSERT_TRUE(raw->WriteAll(frame.data(), frame.size()).ok());

  std::vector<uint8_t> header(api::kFrameHeaderBytes);
  ASSERT_TRUE(raw->ReadFully(header.data(), header.size()).ok());
  auto reply = api::DecodeFrameHeader(header.data(), header.size());
  ASSERT_TRUE(reply.ok());
  std::vector<uint8_t> body(reply->body_size);
  ASSERT_TRUE(raw->ReadFully(body.data(), body.size()).ok());
  auto response = api::DecodeResponseBody(*reply, body.data(), body.size());
  ASSERT_TRUE(response.ok());
  const auto& error = std::get<api::ErrorResponse>(response.value());
  EXPECT_EQ(StatusCodeFromWireCode(error.status.code),
            StatusCode::kNotImplemented);
}

// Concurrency gate (runs under TSan in CI): many client threads replaying
// full sessions against one server must finish without a failure, a race,
// or a lost response.
TEST_F(TcpServiceTest, ConcurrentClientsReplayCleanly) {
  constexpr int kThreads = 4;
  constexpr int kSessionsPerThread = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &failures] {
      auto client = TcpClient::Connect("127.0.0.1", server_->port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int s = 0; s < kSessionsPerThread; ++s) {
        const int query_id = (t * 131 + s * 17) % db_->num_images();
        const auto rankings = ReplayRemote(client.value(), query_id,
                                           uint64_t(t) << 16 | uint64_t(s));
        if (rankings.size() != size_t(kRounds + 1) || rankings[0].empty()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(TcpServiceTest, ProfiledSessionCarriesSpansAndWorkCounters) {
  TcpClient client = MustConnect();
  EXPECT_FALSE(client.last_profile().has_value());
  client.EnableProfiling();

  const uint64_t sid = client.StartSession(api::QuerySpec::ById(8)).value();
  ASSERT_TRUE(client.last_profile().has_value());
  EXPECT_NE(client.last_profile()->trace_id, 0u);

  ASSERT_TRUE(client.Query(sid, kDepth).ok());
  ASSERT_TRUE(client.last_profile().has_value());
  const api::ResponseProfile query_profile = *client.last_profile();
  auto span_names = [](const api::ResponseProfile& p) {
    std::vector<std::string> names;
    for (const api::ProfileSpan& s : p.spans) names.push_back(s.name);
    return names;
  };
  // The server profiles the stages completed before serialization: decode,
  // admission, and the retrieval work. encode/write happen after the
  // profile is built, so they can never appear.
  std::vector<std::string> names = span_names(query_profile);
  EXPECT_NE(std::find(names.begin(), names.end(), "decode"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "admission"), names.end());
  EXPECT_EQ(std::find(names.begin(), names.end(), "encode"), names.end());
  EXPECT_EQ(std::find(names.begin(), names.end(), "write"), names.end());
  // total_us covers at least the recorded spans' work.
  for (const api::ProfileSpan& s : query_profile.spans) {
    EXPECT_LE(s.duration_us, query_profile.total_us) << s.name;
  }

  // A feedback round runs the coupled-SVM solve: its per-request work
  // counters ride back on the profile.
  std::vector<logdb::LogEntry> round;
  const std::vector<int> ranking = client.Query(sid, kDepth).value();
  for (size_t i = 0; i < 4 && i < ranking.size(); ++i) {
    round.push_back(
        logdb::LogEntry{ranking[i], static_cast<int8_t>(i % 2 == 0 ? 1 : -1)});
  }
  ASSERT_TRUE(client.Feedback(sid, round, kDepth).ok());
  ASSERT_TRUE(client.last_profile().has_value());
  const api::ResponseProfile feedback_profile = *client.last_profile();
  names = span_names(feedback_profile);
  EXPECT_NE(std::find(names.begin(), names.end(), "solve"), names.end());
  int64_t smo_iterations = -1;
  int64_t columns_computed = -1;
  for (const api::ProfileCounter& c : feedback_profile.counters) {
    if (c.name == "smo_iterations") smo_iterations = c.value;
    if (c.name == "kernel_columns_computed") columns_computed = c.value;
  }
  EXPECT_GT(smo_iterations, 0) << "solve ran, its counter must be attached";
  EXPECT_GT(columns_computed, 0) << "ranking scored kernel columns";

  // Turning profiling off stops both the request flag and the cached block.
  client.EnableProfiling(false);
  ASSERT_TRUE(client.Query(sid, kDepth).ok());
  EXPECT_FALSE(client.last_profile().has_value());
  EXPECT_TRUE(client.EndSession(sid).ok());

  // A plain client on the same server stays pure v1: no profile ever.
  TcpClient plain = MustConnect();
  const uint64_t plain_sid =
      plain.StartSession(api::QuerySpec::ById(8)).value();
  ASSERT_TRUE(plain.Query(plain_sid, kDepth).ok());
  EXPECT_FALSE(plain.last_profile().has_value());
  EXPECT_TRUE(plain.EndSession(plain_sid).ok());
}

TEST_F(TcpServiceTest, ProfilingDoesNotPerturbRankings) {
  // The EXPLAIN path must be a pure observer: the same session replayed
  // with profiling on reproduces the unprofiled rankings exactly.
  TcpClient plain = MustConnect();
  TcpClient profiled = MustConnect();
  profiled.EnableProfiling();
  const auto baseline = ReplayRemote(plain, 31, 53);
  const auto observed = ReplayRemote(profiled, 31, 53);
  ASSERT_EQ(baseline.size(), observed.size());
  for (size_t round = 0; round < baseline.size(); ++round) {
    SCOPED_TRACE(round);
    EXPECT_EQ(baseline[round], observed[round]);
  }
}

TEST_F(TcpServiceTest, StatsRpcReportsServiceCounters) {
  TcpClient client = MustConnect();
  // Self-contained (ctest runs each test in its own process): generate the
  // traffic whose counters the stats RPC must reflect.
  const uint64_t sid = client.StartSession(api::QuerySpec::ById(4)).value();
  ASSERT_TRUE(client.Query(sid).ok());
  ASSERT_TRUE(client.EndSession(sid).ok());
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GT(stats->sessions_started, 0u);
  EXPECT_GT(stats->sessions_ended, 0u);
  EXPECT_GT(stats->queries, 0u);
  EXPECT_GE(stats->requests, stats->queries);
}

// A dedicated server (own service) so Stop() semantics can be tested
// without tearing down the shared fixture server.
TEST_F(TcpServiceTest, StopUnblocksParkedClientAndJoinsThreads) {
  serve::ServiceOptions options;
  options.scheme = "Euclidean";
  auto service = serve::RetrievalService::Create(
      db_, log_features_, nullptr,
      core::MakeDefaultSchemeOptions(*db_, log_features_), options);
  ASSERT_TRUE(service.ok());
  api::Dispatcher dispatcher(service.value().get());
  TcpServer server(&dispatcher, TcpServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);
  // Starting twice is a typed error, not a rebind.
  EXPECT_EQ(server.Start().code(), StatusCode::kFailedPrecondition);

  auto client = TcpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  // Park a reader mid-connection, then stop the server under it.
  std::thread parked([&] {
    Result<api::Response> response = client->Receive();
    EXPECT_FALSE(response.ok());  // unblocked by the shutdown
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.Stop();
  parked.join();
  EXPECT_FALSE(server.running());
  server.Stop();  // idempotent
}

}  // namespace
}  // namespace cbir::net

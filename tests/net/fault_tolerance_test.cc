// Fault-tolerance gates for the serving stack: bounded connects, RPC
// deadlines, idle reaping, deadline shedding, graceful drain, and the
// fault-injection + retry machinery that turns injected network chaos into
// clean recoveries.
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
#include "net/fault_injector.h"
#include "net/retrying_client.h"
#include "net/socket.h"
#include "net/tcp_client.h"
#include "net/tcp_server.h"
#include "retrieval/synthetic_features.h"
#include "serve/retrieval_service.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace cbir::net {
namespace {

constexpr int kRounds = 2;
constexpr int kJudgments = 6;
constexpr int kDepth = 15 + kRounds * kJudgments + 1;

/// Shared serving data (the expensive part); each test builds whatever
/// server it needs on top, because most tests here want specific
/// TcpServerOptions or ServiceOptions.
class FaultToleranceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new retrieval::ImageDatabase(retrieval::ClusteredDatabase(400, 23));
    retrieval::IndexOptions index_options;
    index_options.mode = retrieval::IndexMode::kSignature;
    db_->BuildIndex(index_options);
    logdb::LogCollectionOptions log_options;
    log_options.num_sessions = 40;
    log_options.session_size = 12;
    log_options.seed = 3;
    store_ = new logdb::LogStore(
        logdb::CollectLogs(db_->features(), db_->categories(), log_options));
    log_features_ = new la::Matrix(
        store_->BuildMatrix(db_->num_images()).ToDenseMatrix());
  }

  static void TearDownTestSuite() {
    delete log_features_;
    log_features_ = nullptr;
    delete store_;
    store_ = nullptr;
    delete db_;
    db_ = nullptr;
  }

  static std::unique_ptr<serve::RetrievalService> MakeService(
      serve::ServiceOptions options) {
    auto service = serve::RetrievalService::Create(
        db_, log_features_, store_,
        core::MakeDefaultSchemeOptions(*db_, log_features_), options);
    EXPECT_TRUE(service.ok()) << service.status();
    return std::move(service).value();
  }

  /// Deterministic judgment stream: the next feedback round for the current
  /// ranking. Two transports replaying with the same rng state produce the
  /// same judgments iff their rankings are identical.
  static std::vector<logdb::LogEntry> JudgeRound(
      const std::vector<int>& ranking, std::unordered_set<int>* judged,
      int category, Rng* rng) {
    logdb::SimulatedUser user(db_->categories(), logdb::UserModel{0.1});
    std::vector<logdb::LogEntry> round;
    for (int id : ranking) {
      if (static_cast<int>(round.size()) >= kJudgments) break;
      if (!judged->insert(id).second) continue;
      round.push_back(logdb::LogEntry{id, user.Judge(id, category, rng)});
    }
    return round;
  }

  static retrieval::ImageDatabase* db_;
  static logdb::LogStore* store_;
  static la::Matrix* log_features_;
};

retrieval::ImageDatabase* FaultToleranceTest::db_ = nullptr;
logdb::LogStore* FaultToleranceTest::store_ = nullptr;
la::Matrix* FaultToleranceTest::log_features_ = nullptr;

/// Service + dispatcher + server bundle most tests start from.
struct Stack {
  std::unique_ptr<serve::RetrievalService> service;
  std::unique_ptr<api::Dispatcher> dispatcher;
  std::unique_ptr<TcpServer> server;
};

Stack StartStack(std::unique_ptr<serve::RetrievalService> service,
                 TcpServerOptions server_options) {
  Stack stack;
  stack.service = std::move(service);
  stack.dispatcher = std::make_unique<api::Dispatcher>(stack.service.get());
  stack.server =
      std::make_unique<TcpServer>(stack.dispatcher.get(), server_options);
  EXPECT_TRUE(stack.server->Start().ok());
  return stack;
}

// -------------------------------------------------------- socket deadlines --

TEST_F(FaultToleranceTest, ConnectTimeoutIsBounded) {
  // Manufacture a local blackhole: a listener that never calls Accept with
  // a backlog of 1. Once the kernel's accept queue fills, further SYNs are
  // silently dropped (default tcp_abort_on_overflow=0) and a plain connect
  // would sit in the kernel's minutes-long SYN retry schedule. The bounded
  // connect must come back quickly with a typed error instead.
  auto listener = Socket::ListenTcp("127.0.0.1", 0, /*backlog=*/1);
  ASSERT_TRUE(listener.ok()) << listener.status();
  std::vector<Socket> queue_fillers;
  bool timed_out = false;
  for (int i = 0; i < 32 && !timed_out; ++i) {
    const Stopwatch watch;
    auto socket =
        Socket::ConnectTcp("127.0.0.1", listener->local_port(),
                           /*timeout_ms=*/300);
    const double elapsed = watch.ElapsedSeconds();
    if (socket.ok()) {
      queue_fillers.push_back(std::move(socket).value());
      continue;
    }
    timed_out = true;
    EXPECT_TRUE(socket.status().code() == StatusCode::kDeadlineExceeded ||
                socket.status().code() == StatusCode::kIoError)
        << socket.status();
    EXPECT_LT(elapsed, 5.0) << "connect was not bounded";
  }
  // A backlog of 1 caps the accept queue at a handful of connections; 32
  // attempts not overflowing it means the kernel ignored the backlog.
  EXPECT_TRUE(timed_out) << "accept queue never overflowed after "
                         << queue_fillers.size() << " connects";
}

TEST_F(FaultToleranceTest, SilentServerBecomesDeadlineExceeded) {
  // A listener that accepts and then says nothing — the pathological peer a
  // read deadline exists for.
  auto listener = Socket::ListenTcp("127.0.0.1", 0, 4);
  ASSERT_TRUE(listener.ok()) << listener.status();
  std::atomic<bool> stop{false};
  std::thread acceptor([&] {
    std::vector<Socket> held;
    while (!stop.load()) {
      auto conn = listener->Accept();
      if (!conn.ok()) break;
      held.push_back(std::move(conn).value());  // hold open, never answer
    }
  });

  auto client = TcpClient::Connect("127.0.0.1", listener->local_port());
  ASSERT_TRUE(client.ok()) << client.status();
  ASSERT_TRUE(client->ArmDeadlines(150).ok());
  const Stopwatch watch;
  auto ranking = client->Query(1);
  EXPECT_EQ(ranking.status().code(), StatusCode::kDeadlineExceeded)
      << ranking.status();
  EXPECT_LT(watch.ElapsedSeconds(), 5.0);

  stop.store(true);
  listener->Shutdown();
  acceptor.join();
}

// ----------------------------------------------------------- idle reaping --

TEST_F(FaultToleranceTest, IdleConnectionsAreReaped) {
  serve::ServiceOptions options;
  options.scheme = "Euclidean";
  TcpServerOptions server_options;
  server_options.idle_timeout_ms = 100;
  Stack stack = StartStack(MakeService(options), server_options);

  auto client = TcpClient::Connect("127.0.0.1", stack.server->port());
  ASSERT_TRUE(client.ok());
  const uint64_t sid =
      client->StartSession(api::QuerySpec::ById(1)).value();
  ASSERT_TRUE(client->Query(sid).ok());

  // Go quiet past the idle timeout: the server drops the connection.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (stack.server->stats().connections_reaped_idle == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(stack.server->stats().connections_reaped_idle, 1u);
  // The client finds out on its next use, with a clean connection error.
  auto after = client->Query(sid);
  EXPECT_FALSE(after.ok());

  // An active client with the same timeout is never reaped mid-burst.
  auto busy = TcpClient::Connect("127.0.0.1", stack.server->port());
  ASSERT_TRUE(busy.ok());
  const uint64_t sid2 = busy->StartSession(api::QuerySpec::ById(2)).value();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(busy->Query(sid2).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  EXPECT_TRUE(busy->EndSession(sid2).ok());
  stack.server->Stop();
}

// ------------------------------------------------------ deadline shedding --

TEST_F(FaultToleranceTest, ExpiredDeadlineIsShedWithMatchingResponseType) {
  serve::ServiceOptions options;
  options.scheme = "Euclidean";
  Stack stack = StartStack(MakeService(options), TcpServerOptions{});
  auto client = TcpClient::Connect("127.0.0.1", stack.server->port());
  ASSERT_TRUE(client.ok());
  const uint64_t sid =
      client->StartSession(api::QuerySpec::ById(3)).value();

  // deadline_ms = 0: expired on arrival, the unambiguous cancel. The shed
  // response must be a QueryResponse (not a generic error frame) so
  // pipelined clients keep request/response pairing.
  api::QueryRequest query;
  query.session_id = sid;
  auto response =
      client->Call(api::Request(query), api::RequestEnvelope::WithDeadline(0));
  ASSERT_TRUE(response.ok()) << response.status();
  auto* typed = std::get_if<api::QueryResponse>(&response.value());
  ASSERT_NE(typed, nullptr);
  EXPECT_EQ(StatusCodeFromWireCode(typed->status.code),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(stack.service->stats().requests_shed_deadline, 1u);

  // A sane deadline on the same connection serves normally.
  auto ok_response = client->Call(api::Request(query),
                                  api::RequestEnvelope::WithDeadline(30000));
  ASSERT_TRUE(ok_response.ok());
  auto* served = std::get_if<api::QueryResponse>(&ok_response.value());
  ASSERT_NE(served, nullptr);
  EXPECT_TRUE(api::FromWireStatus(served->status).ok());
  EXPECT_TRUE(client->EndSession(sid).ok());
  stack.server->Stop();
}

// -------------------------------------------------------- graceful drain --

TEST_F(FaultToleranceTest, StopNeverTearsAResponseFrame) {
  serve::ServiceOptions options;
  options.scheme = "RF-SVM";
  options.candidate_depth = kDepth;
  Stack stack = StartStack(MakeService(options), TcpServerOptions{});
  auto client = TcpClient::Connect("127.0.0.1", stack.server->port());
  ASSERT_TRUE(client.ok());
  const uint64_t sid =
      client->StartSession(api::QuerySpec::ById(5)).value();

  // Pipeline a burst, then stop the server while responses are in flight.
  constexpr int kBurst = 64;
  for (int i = 0; i < kBurst; ++i) {
    api::QueryRequest query;
    query.session_id = sid;
    query.k = 1 + i % kDepth;
    ASSERT_TRUE(client->Send(api::Request(query)).ok());
  }
  // Stop only once the server is answering: a Stop() that closed the
  // connection before the server read any request would cut nothing.
  Result<api::Response> first = client->Receive();
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_NE(std::get_if<api::QueryResponse>(&first.value()), nullptr);
  std::thread stopper([&] { stack.server->Stop(); });

  // Every response that arrives must be a complete frame; the cut, when it
  // comes, must be a clean close at a frame boundary — a half-written frame
  // would decode garbage or end the connection mid-frame.
  Status cut;
  for (int i = 1; i < kBurst; ++i) {
    Result<api::Response> response = client->Receive();
    if (!response.ok()) {
      cut = response.status();
      break;
    }
    auto* typed = std::get_if<api::QueryResponse>(&response.value());
    ASSERT_NE(typed, nullptr) << "mid-stream frame corrupted at " << i;
  }
  stopper.join();
  EXPECT_EQ(cut.message().find("mid-frame"), std::string::npos)
      << cut.ToString();
}

// ------------------------------------------- chaos + retry: the full loop --

TEST_F(FaultToleranceTest, RetryingClientMasksInjectedFaults) {
  serve::ServiceOptions options;
  options.scheme = "RF-SVM";
  options.candidate_depth = kDepth;
  Stack stack = StartStack(MakeService(options), TcpServerOptions{});

  // No bit flips here: those can corrupt a frame into a different *valid*
  // request (no frame CRC by design) and poison the session — covered by
  // the load driver's --chaos accounting, not a determinism test.
  FaultInjectorOptions chaos;
  chaos.seed = 99;
  chaos.delay_probability = 0.1;
  chaos.max_delay_ms = 2;
  chaos.drop_probability = 0.08;
  chaos.reset_probability = 0.05;
  chaos.partial_write_probability = 0.05;
  FaultInjector injector(chaos);

  RetryOptions retry;
  retry.max_attempts = 10;
  retry.initial_backoff_ms = 2;
  retry.max_backoff_ms = 40;
  retry.connect_timeout_ms = 2000;
  retry.rpc_timeout_ms = 400;
  retry.seed = 7;
  RetryingClient chaotic("127.0.0.1", stack.server->port(), retry, &injector);
  TcpClient control = [&] {
    auto c = TcpClient::Connect("127.0.0.1", stack.server->port());
    EXPECT_TRUE(c.ok());
    return std::move(c).value();
  }();

  // Replay the same sessions through the chaos transport and a clean one:
  // identical judgment streams must yield identical rankings round for
  // round — drops, resets, and partial writes are invisible to the caller
  // because retried Feedbacks (same seq) apply at most once.
  for (const int query_id : {4, 111}) {
    SCOPED_TRACE(query_id);
    const int category = db_->category(query_id);
    auto chaotic_sid = chaotic.StartSession(api::QuerySpec::ById(query_id));
    auto control_sid =
        control.StartSession(api::QuerySpec::ById(query_id));
    ASSERT_TRUE(chaotic_sid.ok()) << chaotic_sid.status();
    ASSERT_TRUE(control_sid.ok());
    auto chaos_ranking = chaotic.Query(chaotic_sid.value(), kDepth);
    auto control_ranking = control.Query(control_sid.value(), kDepth);
    ASSERT_TRUE(chaos_ranking.ok()) << chaos_ranking.status();
    ASSERT_TRUE(control_ranking.ok());
    ASSERT_EQ(chaos_ranking.value(), control_ranking.value());
    std::unordered_set<int> judged{query_id};
    Rng rng(uint64_t(query_id) * 31 + 1);
    for (int r = 0; r < kRounds; ++r) {
      SCOPED_TRACE(r);
      const std::vector<logdb::LogEntry> round =
          JudgeRound(chaos_ranking.value(), &judged, category, &rng);
      chaos_ranking = chaotic.Feedback(chaotic_sid.value(), round, kDepth);
      control_ranking =
          control.Feedback(control_sid.value(), round, kDepth);
      ASSERT_TRUE(chaos_ranking.ok()) << chaos_ranking.status();
      ASSERT_TRUE(control_ranking.ok());
      EXPECT_EQ(chaos_ranking.value(), control_ranking.value());
    }
    EXPECT_TRUE(chaotic.EndSession(chaotic_sid.value()).ok());
    EXPECT_TRUE(control.EndSession(control_sid.value()).ok());
  }
  // The chaos schedule must actually have fired for this test to mean
  // anything.
  EXPECT_GT(injector.stats().faults(), 0u);
  EXPECT_EQ(chaotic.stats().exhausted, 0u);
  stack.server->Stop();
}

TEST_F(FaultToleranceTest, DuplicateFeedbackOverWireAppliesOnce) {
  serve::ServiceOptions options;
  options.scheme = "RF-SVM";
  options.candidate_depth = kDepth;
  Stack stack = StartStack(MakeService(options), TcpServerOptions{});
  auto client = TcpClient::Connect("127.0.0.1", stack.server->port());
  auto witness = TcpClient::Connect("127.0.0.1", stack.server->port());
  ASSERT_TRUE(client.ok() && witness.ok());

  // The retry-that-lost-its-reply scenario, hand-rolled: the same Feedback
  // frame (same seq) lands twice. A parallel witness session applying the
  // round once must end in the identical state.
  const int query_id = 42;
  const uint64_t sid =
      client->StartSession(api::QuerySpec::ById(query_id)).value();
  const uint64_t wid =
      witness->StartSession(api::QuerySpec::ById(query_id)).value();
  const std::vector<int> ranking = client->Query(sid, kDepth).value();
  ASSERT_EQ(witness->Query(wid, kDepth).value(), ranking);

  const std::vector<logdb::LogEntry> round = {
      logdb::LogEntry{ranking[0], 1}, logdb::LogEntry{ranking[1], -1}};
  const std::vector<int> first =
      client->Feedback(sid, round, kDepth, /*seq=*/1).value();
  const std::vector<int> duplicate =
      client->Feedback(sid, round, kDepth, /*seq=*/1).value();
  EXPECT_EQ(duplicate, first);  // replayed from the idempotency cache

  const std::vector<int> once =
      witness->Feedback(wid, round, kDepth, /*seq=*/1).value();
  EXPECT_EQ(first, once);

  // Next round from the shared post-round-1 state: still identical, so the
  // duplicate demonstrably did not advance the duplicated session twice.
  const std::vector<logdb::LogEntry> round2 = {
      logdb::LogEntry{first[2], 1}};
  EXPECT_EQ(client->Feedback(sid, round2, kDepth, /*seq=*/2).value(),
            witness->Feedback(wid, round2, kDepth, /*seq=*/2).value());
  EXPECT_GE(stack.service->stats().feedback_replays, 1u);
  EXPECT_TRUE(client->EndSession(sid).ok());
  EXPECT_TRUE(witness->EndSession(wid).ok());
  stack.server->Stop();
}

// v1 clients (this repo's previous wire format) keep working against a v2
// server: the frame a pre-envelope client sends is byte-identical to what
// EncodeRequest emits with no envelope.
TEST_F(FaultToleranceTest, V1ClientInteroperatesWithV2Server) {
  serve::ServiceOptions options;
  options.scheme = "Euclidean";
  Stack stack = StartStack(MakeService(options), TcpServerOptions{});
  auto raw = Socket::ConnectTcp("127.0.0.1", stack.server->port());
  ASSERT_TRUE(raw.ok());

  api::StartSessionRequest start;
  start.query = api::QuerySpec::ById(8);
  std::vector<uint8_t> frame = api::EncodeRequest(api::Request(start));
  ASSERT_EQ(frame[4], api::kProtocolVersionV1);  // genuinely a v1 frame
  ASSERT_TRUE(raw->WriteAll(frame.data(), frame.size()).ok());

  std::vector<uint8_t> header(api::kFrameHeaderBytes);
  ASSERT_TRUE(raw->ReadFully(header.data(), header.size()).ok());
  auto reply = api::DecodeFrameHeader(header.data(), header.size());
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->version, api::kProtocolVersionV1);  // reply also v1
  std::vector<uint8_t> body(reply->body_size);
  ASSERT_TRUE(raw->ReadFully(body.data(), body.size()).ok());
  auto response = api::DecodeResponseBody(*reply, body.data(), body.size());
  ASSERT_TRUE(response.ok());
  const auto* started =
      std::get_if<api::StartSessionResponse>(&response.value());
  ASSERT_NE(started, nullptr);
  EXPECT_TRUE(api::FromWireStatus(started->status).ok());
  EXPECT_NE(started->session_id, 0u);
  stack.server->Stop();
}

}  // namespace
}  // namespace cbir::net

// Session replay, the in-process serving stacks, and the per-layer
// measurements shared by the three workloads.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/dispatcher.h"
#include "api/handler.h"
#include "bench.h"
#include "la/matrix.h"
#include "logdb/log_store.h"
#include "logdb/simulated_user.h"
#include "net/tcp_server.h"
#include "retrieval/image_database.h"
#include "router/backend_pool.h"
#include "router/shard_router.h"
#include "serve/retrieval_service.h"
#include "util/result.h"

namespace perfbench {

/// Load shape shared by every workload: two closed-loop clients (the host
/// has four CPUs; the rest is left to the program's own workers), sessions
/// of two feedback rounds of ten judgments, first pages of depth 41
/// (k = 20 plus every image the rounds can judge, plus the query).
constexpr int kClients = 2;
constexpr int kRounds = 2;
constexpr int kJudgments = 10;
constexpr int kPageK = 20;
constexpr int kDepth = kPageK + kRounds * kJudgments + 1;
constexpr double kJudgmentNoise = 0.1;
constexpr int kLogSessions = 150;
/// Sessions behind the per-layer replays of a traced run.
constexpr uint64_t kLayerSessions = 200;

/// Every input of the serving sessions is a pure function of (seed, index),
/// so any session can be replayed alone and must give the same pages.
struct SessionPlan {
  uint64_t seed = 0;
  std::vector<int> query_pool;   ///< image ids queries are drawn from
  std::vector<int> categories;   ///< ground truth, for P@20
  std::shared_ptr<const cbir::logdb::SimulatedUser> user;
};

SessionPlan MakePlan(uint64_t seed, std::vector<int> query_pool,
                     const std::vector<int>& categories);

struct SessionResult {
  bool ok = false;
  int query_id = -1;
  std::vector<std::vector<cbir::logdb::LogEntry>> rounds;  ///< judgments sent
  std::vector<int> first_page;
  std::vector<int> final_page;
};

/// One user's view of the service: either direct calls into a
/// serve::RetrievalService or RPCs over net::TcpClient.
class SessionClient {
 public:
  virtual ~SessionClient() = default;
  virtual cbir::Result<uint64_t> Start(int query_id) = 0;
  virtual cbir::Result<std::vector<int>> Query(uint64_t session, int k) = 0;
  virtual cbir::Result<std::vector<int>> Feedback(
      uint64_t session, const std::vector<cbir::logdb::LogEntry>& round,
      int k) = 0;
  virtual cbir::Status End(uint64_t session) = 0;
  /// True when the last reply carried the degraded flag.
  virtual bool degraded() const { return false; }
};

std::unique_ptr<SessionClient> LocalClient(cbir::serve::RetrievalService* s);
cbir::Result<std::unique_ptr<SessionClient>> RemoteClient(int port);

/// Per-call latencies (us) as the client saw them, and operation counts.
struct ClientSamples {
  std::vector<Timed> first_page;      ///< StartSession + first Query
  std::vector<Timed> round;           ///< one Feedback
  std::vector<int64_t> session_end;   ///< completion time of each session
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t degraded = 0;
  uint64_t feedbacks_ok = 0;
  uint64_t queries_ok = 0;
};

/// Windows per second of a timed phase (see Windows).
constexpr int kWindowsPerSecond = 4;
int WindowCount(double seconds);

/// Closed loop: one thread per client (kClients of them) takes session
/// indexes from a shared counter until `seconds` have passed and at least
/// `min_sessions` have been started. Sessions [0, keep) are returned.
struct LoopResult {
  ClientSamples samples;
  uint64_t sessions = 0;
  Usage usage_before, usage_after;
  HostCpu host_before, host_after;
  std::unique_ptr<Windows> windows;
  std::vector<SessionResult> kept;
};
LoopResult RunClosedLoop(
    const std::vector<std::unique_ptr<SessionClient>>& clients,
    const SessionPlan& plan, double seconds, uint64_t min_sessions,
    uint64_t keep);

/// Sessions [0, count) one after another through one client.
std::vector<SessionResult> ReplaySessions(SessionClient& client,
                                          const SessionPlan& plan,
                                          uint64_t count);

/// Digest of the final pages (and queries) of `sessions`, in order.
uint64_t PageDigest(const std::vector<SessionResult>& sessions);
/// Mean precision@20 of the final pages, and the mean over the paper's
/// scopes that fit a page of depth kDepth (20, 30, 40).
double MeanP20(const std::vector<SessionResult>& sessions,
               const std::vector<int>& categories);
double MeanScopePrecision(const std::vector<SessionResult>& sessions,
                          const std::vector<int>& categories);

/// Serving options every workload's services use.
cbir::serve::ServiceOptions ServingOptions(const std::string& scheme);

/// Seed feedback log: kLogSessions simulated sessions over the corpus.
cbir::logdb::LogStore SeedLog(const cbir::retrieval::ImageDatabase& db,
                              uint64_t seed);

/// A RequestHandler that opens a span named after the request type around
/// the wrapped handler. `names` holds the span names for StartSession,
/// Query, Feedback, EndSession, Candidate and any other request.
///
/// Each span carries a key that the router and a shard compute alike for
/// one forwarded call, from what the router passes on unchanged: the
/// session's query image (first pages, starts, ends) or the round's
/// judgments (feedback). Session ids differ between tiers, so each handler
/// remembers which query image each of its sessions started from.
class TimingHandler : public cbir::api::RequestHandler {
 public:
  TimingHandler(cbir::api::RequestHandler* inner,
                const std::vector<const char*>& names)
      : inner_(inner), names_(names) {}
  cbir::api::Response HandleRequest(
      const cbir::api::Request& request,
      const cbir::api::RequestEnvelope& envelope, int64_t elapsed_ms,
      cbir::api::ResponseContext* context) override;

 private:
  uint64_t KeyOf(const cbir::api::Request& request);

  cbir::api::RequestHandler* inner_;
  std::vector<const char*> names_;
  std::mutex mu_;
  std::unordered_map<uint64_t, int> session_query_;  ///< guarded by mu_
};

/// Two shards on loopback TCP behind a router::ShardRouter, all in this
/// process. Each shard is a net::TcpServer + api::Dispatcher +
/// serve::RetrievalService over the shared corpus, with its own durable
/// LogStore (snapshot + WAL under `dir`). With `timed`, the router and each
/// shard dispatcher sit behind a TimingHandler.
class RoutedStack {
 public:
  static constexpr int kShards = 2;

  static cbir::Result<std::unique_ptr<RoutedStack>> Start(
      const cbir::retrieval::ImageDatabase* db,
      const cbir::la::Matrix* log_features,
      const cbir::logdb::LogStore& seed_log, const std::string& scheme,
      const std::string& dir, bool timed);
  ~RoutedStack() { Stop(); }
  RoutedStack(const RoutedStack&) = delete;
  RoutedStack& operator=(const RoutedStack&) = delete;

  /// Drains and stops every tier, front to back. The stats below are
  /// final only after Stop: a server counts a request once its reply is
  /// written, which can be after the client has read it.
  void Stop();

  int port() const { return server_->port(); }
  cbir::router::RouterStats router_stats() const { return router_->stats(); }
  cbir::net::TcpServerStats server_stats() const { return server_->stats(); }
  /// Service stats summed over the shards.
  cbir::serve::ServiceStats shard_stats() const;
  /// OK when every shard's WAL append landed.
  cbir::Status wal_status() const;

 private:
  struct Shard {
    cbir::logdb::LogStore store;
    std::unique_ptr<cbir::serve::RetrievalService> service;
    std::unique_ptr<cbir::api::Dispatcher> dispatcher;
    std::unique_ptr<TimingHandler> timing;
    std::unique_ptr<cbir::net::TcpServer> server;
  };
  RoutedStack() = default;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<cbir::router::BackendPool> pool_;
  std::unique_ptr<cbir::router::ShardRouter> router_;
  std::unique_ptr<TimingHandler> timing_;
  std::unique_ptr<cbir::net::TcpServer> server_;
};

/// Registry counter value (process-wide obs::MetricsRegistry).
uint64_t CounterValue(const char* name);

/// Per-layer measurements of a traced run that every workload makes the
/// same way, from the workload's own corpus, scheme and recorded sessions.
struct LayerInputs {
  const cbir::retrieval::ImageDatabase* db = nullptr;
  const cbir::la::Matrix* log_features = nullptr;
  const cbir::logdb::LogStore* seed_log = nullptr;
  cbir::retrieval::IndexOptions index;
  std::string scheme;
  SessionPlan plan;
  /// Sessions replayed in the correctness check (first pages, judgments).
  std::vector<SessionResult> sessions;
  uint64_t seed = 0;
  bool tiny = false;
};
void MeasureIndexAndRanking(const LayerInputs& in, Report* report);
void MeasureCore(const LayerInputs& in, Report* report);
void MeasureCodec(const LayerInputs& in, Report* report);
void MeasureLogMatrix(const LayerInputs& in, Report* report);

/// Replays the sessions on a fresh service with spans on, reporting the
/// serve.* call latencies and the svm.* counters per session (these repeat
/// exactly: the replayed sessions are a fixed set). `cache_hit_rate` < 0
/// reports the replay service's own hit rate. Returns the replayed sessions.
std::vector<SessionResult> MeasureServeReplay(const LayerInputs& in,
                                              uint64_t count,
                                              double cache_hit_rate,
                                              Report* report);

/// Links the spans of a routed phase across threads: router spans to the
/// client RPC that caused them, shard spans to the router call that fanned
/// out to them.
SpanTree LinkRoutedSpans(std::vector<SpanRecord> spans);

/// net.*, router.*, api.bytes_per_session and logdb.wal_appends_per_session
/// of a routed phase in which `sessions` sessions ran through `stack`.
void ReportRoutedLayers(const SpanTree& tree, const RoutedStack& stack,
                        uint64_t sessions, uint64_t net_bytes,
                        uint64_t wal_appends, Report* report);

/// Bytes read plus written by every TcpServer in the process.
uint64_t NetBytes();

/// For workloads without a router: the same sessions once through a fresh
/// RoutedStack over the workload's corpus (the control measurement).
void MeasureRoutedProbe(const LayerInputs& in, const std::string& dir,
                        uint64_t count, Report* report);

int RunCsvmLocal(const Args& args, Report* report);
int RunRoutedHot(const Args& args, Report* report);
int RunPaperTable1(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

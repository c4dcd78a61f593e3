#ifndef CBIR_NET_RETRYING_CLIENT_H_
#define CBIR_NET_RETRYING_CLIENT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "api/messages.h"
#include "net/fault_injector.h"
#include "net/tcp_client.h"
#include "util/result.h"

namespace cbir::net {

/// \brief Retry policy of a RetryingClient.
struct RetryOptions {
  /// Total tries per RPC (first attempt included). The last failure's
  /// status is what the caller sees.
  int max_attempts = 4;
  /// Exponential backoff with full jitter: attempt n sleeps uniform(0,
  /// min(max_backoff_ms, initial_backoff_ms * 2^n)) — the jitter keeps a
  /// fleet of clients from retrying in lockstep against a server that just
  /// came back.
  int initial_backoff_ms = 10;
  int max_backoff_ms = 500;
  /// Bounds every TCP connect (0 = blocking).
  int connect_timeout_ms = 1000;
  /// Per-RPC budget: socket deadline + protocol-v2 request deadline
  /// (0 = none — but then a dead server is a hang, so keep it set).
  int rpc_timeout_ms = 2000;
  /// Seed of the jitter PRNG (deterministic backoff schedules in tests).
  uint64_t seed = 1;
  /// Stamp every RPC with the 0x10 CRC32 frame checksum (and verify the
  /// echoed checksum on responses). On by default: a client that already
  /// pays for retries wants corruption surfaced as retryable kDataLoss, not
  /// silently decoded garbage.
  bool checksum = true;
};

/// \brief Lifetime counters of a RetryingClient.
struct RetryingClientStats {
  uint64_t rpcs = 0;        ///< logical RPCs issued by the caller
  uint64_t attempts = 0;    ///< wire attempts (>= rpcs)
  uint64_t retries = 0;     ///< attempts after the first
  uint64_t reconnects = 0;  ///< connections re-established
  uint64_t exhausted = 0;   ///< RPCs that failed after max_attempts
};

/// \brief Fault-tolerant wrapper over TcpClient: reconnects, retries with
/// exponential backoff + full jitter, and sequences Feedback so retries are
/// idempotent.
///
/// What retries: kUnavailable (server shedding load — backoff, same
/// connection), kDeadlineExceeded and kIoError (lost reply, dead server,
/// reset connection — reconnect first). Other codes (NotFound,
/// InvalidArgument, ...) are the server's definitive answer and surface
/// immediately.
///
/// Why Feedback retries are safe: every logical Feedback call is assigned
/// one sequence number that all its wire attempts share, and the service
/// applies each (session, seq) at most once — a retry whose original made
/// it through (the reply was what got lost) is answered from the server's
/// idempotency cache, never applied twice.
///
/// Not thread-safe (same contract as TcpClient): one instance per worker.
class RetryingClient {
 public:
  RetryingClient(std::string host, int port, RetryOptions options,
                 FaultInjector* injector = nullptr);

  // Mirrors TcpClient's typed RPC surface. Feedback's `seq`: 0 (the
  // default) allocates the idempotency sequence number from this client's
  // own counter; nonzero uses the caller's — what a router forwarding a
  // session pinned to one backend does, so the sequence stays per-session
  // even when successive rounds ride different pooled clients.
  Result<uint64_t> StartSession(const api::QuerySpec& query);
  Result<std::vector<int>> Query(uint64_t session_id, int k = 0);
  Result<std::vector<int>> Feedback(uint64_t session_id,
                                    const std::vector<logdb::LogEntry>& round,
                                    int k = 0, uint32_t seq = 0);
  Status EndSession(uint64_t session_id);
  Result<api::StatsResponse> Stats();
  Result<api::MetricsResponse> Metrics();
  Result<api::DescribeResponse> Describe();
  Result<std::vector<api::Candidate>> Candidates(const api::QuerySpec& query,
                                                 int k = 0);

  /// True when the last successful RPC's response carried the 0x20 degraded
  /// flag (partial scatter-gather results from a router).
  bool last_degraded() const {
    return client_.has_value() && client_->last_degraded();
  }

  RetryingClientStats stats() const { return stats_; }
  const RetryOptions& options() const { return options_; }

 private:
  /// Connected client, (re)establishing the connection as needed.
  Result<TcpClient*> EnsureConnected();
  /// True when `status` is worth another attempt (and whether the
  /// connection must be rebuilt first).
  static bool ShouldRetry(const Status& status, bool* reconnect);
  /// Sleeps the jittered backoff for attempt number `attempt` (0-based).
  void Backoff(int attempt);
  double NextUniform();

  /// Runs `fn(client)` with the retry loop around it.
  template <typename T, typename Fn>
  Result<T> WithRetry(Fn&& fn);

  std::string host_;
  int port_;
  RetryOptions options_;
  FaultInjector* injector_;
  std::optional<TcpClient> client_;
  uint64_t rng_state_;
  uint32_t next_seq_ = 1;
  RetryingClientStats stats_;
};

}  // namespace cbir::net

#endif  // CBIR_NET_RETRYING_CLIENT_H_

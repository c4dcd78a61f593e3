#ifndef CBIR_NET_TCP_CLIENT_H_
#define CBIR_NET_TCP_CLIENT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "api/codec.h"
#include "api/messages.h"
#include "net/fault_injector.h"
#include "net/socket.h"
#include "util/result.h"

namespace cbir::net {

/// \brief Blocking client for a net::TcpServer.
///
/// Two layers:
///  - Send()/Receive(): raw frame pipelining. The server answers strictly in
///    order, so a client may Send any number of requests before draining the
///    responses — one round trip for a whole feedback session if it wants.
///  - Typed RPCs (StartSession/Query/Feedback/EndSession/Stats): one
///    request-response round trip each, mirroring serve::RetrievalService's
///    signatures. A non-OK wire status comes back as the equivalent typed
///    Status (StatusCodeFromWireCode), so remote errors are indistinguishable
///    from in-process ones — `client.Query(sid)` on an ended session returns
///    NotFound exactly like `service.Query(sid)` does.
///
/// Not thread-safe: one connection serves one thread (open one client per
/// worker, the way examples/load_driver.cpp --remote does).
class TcpClient {
 public:
  /// `connect_timeout_ms` > 0 bounds the TCP connect (kDeadlineExceeded on
  /// expiry); 0 = the kernel's default blocking connect.
  static Result<TcpClient> Connect(const std::string& host, int port,
                                   int connect_timeout_ms = 0);

  /// Parses "host:port" (e.g. "127.0.0.1:7345").
  static Result<TcpClient> ConnectEndpoint(const std::string& endpoint,
                                           int connect_timeout_ms = 0);

  /// Arms deadlines on every subsequent RPC: socket read/write timeouts (a
  /// dead or stalled server turns into kDeadlineExceeded instead of a
  /// hang), and each typed RPC carries `rpc_timeout_ms` as its protocol-v2
  /// deadline so an overloaded server sheds it rather than serving into a
  /// budget the client has given up on. 0 disarms both.
  Status ArmDeadlines(int rpc_timeout_ms);

  /// Routes every outgoing frame through `injector` (chaos testing; null
  /// restores the plain transport). The injector must outlive the client.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  /// Opt-in tracing: every subsequent typed RPC stamps its envelope with a
  /// fresh trace id (0x04 flag), and trace_id() returns the one used last —
  /// the handle for matching a client-side outlier to the server's flight
  /// recorder (/slowz, /flightz). Off by default, so untraced traffic stays
  /// byte-identical to what a v1 client sends.
  void EnableTracing(bool on = true) { tracing_ = on; }
  uint64_t last_trace_id() const { return last_trace_id_; }

  /// Opt-in EXPLAIN: every subsequent typed RPC sets the 0x08 profile flag,
  /// asking the server to attach its per-query profile block (stage micros
  /// + work counters) to the response. last_profile() holds the most recent
  /// one (empty when the last response carried none). Off by default —
  /// unprofiled traffic stays byte-identical to a v1 client's.
  void EnableProfiling(bool on = true) { profiling_ = on; }
  const std::optional<api::ResponseProfile>& last_profile() const {
    return last_profile_;
  }

  /// Opt-in integrity: every subsequent typed RPC sets the 0x10 checksum
  /// flag (CRC32 trailer over the whole frame), and the server echoes the
  /// flag on its response, which Receive() verifies — a flipped bit on
  /// either leg surfaces as typed kDataLoss instead of silent corruption.
  /// Off by default, so unchecked traffic stays byte-identical.
  void EnableChecksum(bool on = true) { checksum_ = on; }

  /// True when the last received response carried the 0x20 degraded flag —
  /// a router answered from a partial shard set. Cleared by every Receive.
  bool last_degraded() const { return last_degraded_; }

  // --- raw pipelining layer -----------------------------------------------
  Status Send(const api::Request& request);
  Status Send(const api::Request& request,
              const api::RequestEnvelope& envelope);
  Result<api::Response> Receive();
  /// Send + Receive in one call.
  Result<api::Response> Call(const api::Request& request);
  Result<api::Response> Call(const api::Request& request,
                             const api::RequestEnvelope& envelope);

  // --- typed RPCs ---------------------------------------------------------
  Result<uint64_t> StartSession(const api::QuerySpec& query);
  Result<std::vector<int>> Query(uint64_t session_id, int k = 0);
  /// `seq` (nonzero) rides the v2 envelope into the service's idempotent
  /// Feedback path: a retry resending the same seq is applied at most once.
  Result<std::vector<int>> Feedback(uint64_t session_id,
                                    const std::vector<logdb::LogEntry>& round,
                                    int k = 0, uint32_t seq = 0);
  Status EndSession(uint64_t session_id);
  Result<api::StatsResponse> Stats();
  /// Full dump of the server's metrics registry (counters, gauges, stage
  /// histograms) — the wire twin of the --metrics-port exposition.
  Result<api::MetricsResponse> Metrics();
  /// The server's corpus/config self-description (size, dims, scheme, index)
  /// — connect-time compatibility handshake, and cheap enough to double as a
  /// health probe.
  Result<api::DescribeResponse> Describe();
  /// Stateless first-round scan: top-k candidates with distances for an
  /// arbitrary query, no session created — what a router scatters to shards.
  Result<std::vector<api::Candidate>> Candidates(const api::QuerySpec& query,
                                                 int k = 0);

  void Close() { socket_.Close(); }
  bool connected() const { return socket_.valid(); }

 private:
  explicit TcpClient(Socket socket) : socket_(std::move(socket)) {}

  /// The envelope typed RPCs attach (the armed deadline plus, when tracing
  /// is on, a fresh trace id; seq added per call).
  api::RequestEnvelope BaseEnvelope();

  Socket socket_;
  int rpc_timeout_ms_ = 0;
  bool tracing_ = false;
  bool profiling_ = false;
  bool checksum_ = false;
  bool last_degraded_ = false;
  uint64_t last_trace_id_ = 0;
  std::optional<api::ResponseProfile> last_profile_;
  FaultInjector* injector_ = nullptr;
};

}  // namespace cbir::net

#endif  // CBIR_NET_TCP_CLIENT_H_

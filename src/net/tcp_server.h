#ifndef CBIR_NET_TCP_SERVER_H_
#define CBIR_NET_TCP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/handler.h"
#include "net/socket.h"
#include "obs/flight_recorder.h"
#include "util/result.h"
#include "util/sync.h"

namespace cbir::net {

/// \brief TCP server knobs.
struct TcpServerOptions {
  /// Bind address. The default stays off the open network; bind 0.0.0.0
  /// explicitly to serve remote hosts.
  std::string host = "127.0.0.1";
  /// 0 = OS-assigned ephemeral port (read back with port() after Start —
  /// what the tests and the loopback bench use).
  int port = 0;
  int backlog = 64;
  /// Idle-connection reaper: a connection that sends no frame for this long
  /// is dropped (0 = never). Protects the per-connection threads from
  /// clients that connect and go silent.
  int idle_timeout_ms = 0;
  /// Stop()'s graceful-drain window: connections mid-request get this long
  /// to finish dispatching and write their response in full before their
  /// socket is shut down. Idle connections (between frames) are shut down
  /// immediately. 0 = no drain, the old hard stop.
  int drain_timeout_ms = 1000;
  /// Every completed request (including decode errors) is offered to this
  /// recorder — errors, sheds and slow requests (its slow_threshold_ms,
  /// measured decode through socket write) always captured, healthy traffic
  /// sampled.
  /// Caller-owned, must outlive the server; null = off.
  obs::FlightRecorder* flight_recorder = nullptr;
  /// Invoked on connection lifecycle events ("accepted", "closed",
  /// "reaped_idle") with the server-assigned connection id. Called from the
  /// accept/connection threads — keep it cheap and thread-safe. Null = off.
  std::function<void(const char* event, uint64_t connection_id)>
      connection_observer;
};

/// \brief Lifetime counters of a TcpServer.
struct TcpServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t connections_reaped_idle = 0;  ///< dropped by the idle timeout
  uint64_t requests_served = 0;
  uint64_t decode_errors = 0;  ///< malformed frames (connection then closed)
};

/// \brief Blocking thread-per-connection TCP transport over an
/// api::RequestHandler (the single-node api::Dispatcher or the multi-node
/// router::ShardRouter — the transport cannot tell them apart).
///
/// Each accepted connection gets one thread running a read-dispatch-write
/// loop over the api codec's length-prefixed frames. Requests on one
/// connection are processed strictly in order, which gives clients free
/// pipelining: send N frames back-to-back, then read N responses. Different
/// connections dispatch concurrently — the concurrency story is the
/// RetrievalService's (per-session locks, sharded cache), the transport adds
/// no global serialization.
///
/// Malformed bytes never kill the process: a frame that fails to decode is
/// answered with an api::ErrorResponse carrying the typed decode error, and
/// the connection is closed (after a framing error the stream cannot be
/// trusted).
///
/// Stop() (and the destructor) shuts down the listener and every live
/// connection socket, then joins all threads — a clean shutdown with no
/// leaked threads, TSan-verified.
class TcpServer {
 public:
  /// `handler` must outlive the server.
  TcpServer(api::RequestHandler* handler, TcpServerOptions options);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds, listens, and spawns the accept loop. Fails (typed) when the
  /// address is unavailable; calling Start twice is a FailedPrecondition.
  Status Start();

  /// Stops accepting, drains, and joins every connection thread. Idempotent.
  ///
  /// Drain order: connections idle between frames are unblocked right away;
  /// connections mid-request (dispatching or writing a response) get up to
  /// drain_timeout_ms to put the complete response frame on the wire before
  /// their socket is shut down — a Stop never tears a response mid-frame.
  void Stop();

  /// The bound port (valid after a successful Start).
  int port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }

  TcpServerStats stats() const;

 private:
  /// One live connection: the socket plus its completion flag (reaped
  /// opportunistically by the accept loop, joined at Stop). `busy` is true
  /// exactly while a fully-read request is being dispatched or its response
  /// written — the window Stop()'s drain must not cut into.
  struct Connection {
    Socket socket;
    std::thread thread;
    uint64_t id = 0;  ///< 1-based accept order, for the observer/logs
    std::atomic<bool> done{false};
    std::atomic<bool> busy{false};
  };

  void AcceptLoop();
  void ServeConnection(Connection* connection);
  /// Joins finished connection threads (cheap: they are already done).
  void ReapFinishedLocked() CBIR_REQUIRES(connections_mu_);

  api::RequestHandler* handler_;
  TcpServerOptions options_;

  Socket listener_;
  int port_ = -1;
  std::thread accept_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  util::Mutex connections_mu_{util::LockRank::kTcpConnections,
                              "tcp_server_connections"};
  std::vector<std::unique_ptr<Connection>> connections_
      CBIR_GUARDED_BY(connections_mu_);

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_closed_{0};
  std::atomic<uint64_t> connections_reaped_idle_{0};
  std::atomic<uint64_t> requests_served_{0};
  std::atomic<uint64_t> decode_errors_{0};
};

}  // namespace cbir::net

#endif  // CBIR_NET_TCP_SERVER_H_

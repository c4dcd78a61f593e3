// CBIR shard router: a net::TcpServer front tier speaking the same wire
// protocol as cbir_server, fanning out over N backend shards. New sessions
// are consistent-hashed to a backend and pinned there (the relevance-feedback
// SVM state lives in that shard); first-round queries scatter to every
// healthy shard and merge by distance, answering degraded (frame flag 0x20)
// when a shard misses its deadline. An active health checker ejects dead
// backends (pinned sessions then fail fast with kUnavailable) and re-admits
// them when they recover.
//
//   ./example_cbir_server --port=7401 --first-session-id=1 &
//   ./example_cbir_server --port=7402 --first-session-id=1000001 &
//   ./example_cbir_router --port=7345 --backends=127.0.0.1:7401,127.0.0.1:7402 &
//   ./example_load_driver --remote=127.0.0.1:7345 --sessions=200
//
// The backends must serve the same corpus (same --synthetic-rows/--seed/...)
// — the router Describes each one at startup and refuses to start over a
// mismatch. SIGINT/SIGTERM drain in-flight requests and print final stats.
#include <atomic>
#include <csignal>
#include <chrono>
#include <iostream>
#include <memory>
#include <thread>

#include "net/tcp_server.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/process_stats.h"
#include "obs/structured_log.h"
#include "router/backend_pool.h"
#include "router/shard_router.h"
#include "util/flags.h"
#include "util/stopwatch.h"

namespace {

constexpr const char* kHelp =
    R"(cbir_router — session-affine scatter-gather front tier over cbir_server shards

 transport
  --port=N              listen port (default 7345; 0 = OS-assigned, printed)
  --host=S              bind address (default 127.0.0.1)
  --backends=LIST       comma-separated backend shards, host:port each
                        (required), e.g. 127.0.0.1:7401,127.0.0.1:7402
  --idle-timeout-ms=N   reap connections silent for N ms (default 0 = never)
  --drain-timeout-ms=N  shutdown grace for in-flight requests (default 1000)

 health checking / failover
  --probe-interval-ms=N   Describe-probe every backend this often (default 250)
  --eject-after=N         consecutive failures that eject a backend (default 2)
  --readmit-after=N       consecutive probe successes that re-admit (default 2)
  --probe-timeout-ms=N    probe RPC budget (default 500)
  --shard-deadline-ms=N   per-shard scatter budget; a slower shard is dropped
                          from the merge and the response goes out degraded
                          (default 1000)
  --rpc-timeout-ms=N      pinned-session forwarding budget (default 2000)

 observability
  --metrics-port=N      plaintext metrics-and-debug listener (0 = OS-assigned,
                        printed). Omit to disable. Endpoints: /metrics,
                        /healthz (200 while serving with >=1 healthy backend,
                        503 while draining or with none), /statusz
  --log-interval=F      per-event rate limit of the structured event log,
                        seconds (default 1.0). Backend ejections/re-admissions
                        (event=backend_down / backend_up) always log.
)";

using namespace cbir;

volatile std::sig_atomic_t g_stop = 0;

void HandleStopSignal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  auto flags_or = Flags::Parse(argc - 1, argv + 1);
  if (!flags_or.ok()) {
    std::cerr << flags_or.status() << "\n" << kHelp;
    return 1;
  }
  const Flags& flags = flags_or.value();
  if (flags.GetBool("help", false)) {
    std::cout << kHelp;
    return 0;
  }
  if (Status s = flags.RequireKnown(
          {"help", "port", "host", "backends", "idle-timeout-ms",
           "drain-timeout-ms", "probe-interval-ms", "eject-after",
           "readmit-after", "probe-timeout-ms", "shard-deadline-ms",
           "rpc-timeout-ms", "metrics-port", "log-interval"});
      !s.ok()) {
    std::cerr << s << "\n" << kHelp;
    return 1;
  }

  auto backends_or = router::ParseBackendList(flags.GetString("backends", ""));
  if (!backends_or.ok()) {
    std::cerr << backends_or.status() << "\n" << kHelp;
    return 1;
  }

  obs::StructuredLog slog(&std::cout, flags.GetDouble("log-interval", 1.0));

  router::BackendPoolOptions pool_options;
  pool_options.probe_interval_ms = flags.GetInt("probe-interval-ms", 250);
  pool_options.eject_after_failures = flags.GetInt("eject-after", 2);
  pool_options.readmit_after_successes = flags.GetInt("readmit-after", 2);
  pool_options.probe_timeout_ms = flags.GetInt("probe-timeout-ms", 500);
  pool_options.shard_deadline_ms = flags.GetInt("shard-deadline-ms", 1000);
  pool_options.session_retry.rpc_timeout_ms =
      flags.GetInt("rpc-timeout-ms", 2000);
  pool_options.log = &slog;

  router::BackendPool pool(backends_or.value(), pool_options);
  if (Status s = pool.Start(); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  router::ShardRouter shard_router(&pool, router::RouterOptions{});
  // The router counts into its own registry; exporters read Default().
  obs::MetricsRegistry::Default().Include(&shard_router.metrics());

  net::TcpServerOptions server_options;
  server_options.host = flags.GetString("host", "127.0.0.1");
  server_options.port = flags.GetInt("port", 7345);
  server_options.idle_timeout_ms = flags.GetInt("idle-timeout-ms", 0);
  server_options.drain_timeout_ms = flags.GetInt("drain-timeout-ms", 1000);
  server_options.connection_observer = [&slog](const char* event,
                                               uint64_t connection_id) {
    slog.Log(std::string("conn_") + event,
             {{"id", std::to_string(connection_id)}});
  };
  net::TcpServer server(&shard_router, server_options);
  if (Status s = server.Start(); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }

  const Stopwatch uptime;
  std::atomic<bool> draining{false};
  std::unique_ptr<obs::ExpositionServer> metrics_server;
  if (flags.Has("metrics-port")) {
    obs::MetricsRegistry::Default().OnGather([&pool] {
      const obs::ProcessStats p = obs::ReadProcessStats();
      obs::MetricsRegistry& r = obs::MetricsRegistry::Default();
      r.GetGauge("cbir_process_rss_bytes")->Set(p.rss_bytes);
      r.GetGauge("cbir_router_healthy_backends")
          ->Set(static_cast<int64_t>(pool.num_healthy()));
    });
    metrics_server = std::make_unique<obs::ExpositionServer>(
        &obs::MetricsRegistry::Default(), server_options.host,
        flags.GetInt("metrics-port", 0));
    metrics_server->SetStatusHandler("/healthz", [&draining, &pool] {
      obs::ExpositionServer::StatusResult result;
      if (draining.load(std::memory_order_acquire)) {
        result.code = 503;
        result.body = "draining\n";
      } else if (pool.num_healthy() == 0) {
        result.code = 503;
        result.body = "no healthy backends\n";
      } else {
        result.body = "ok\n";
      }
      return result;
    });
    metrics_server->SetHandler(
        "/statusz", [&uptime, &pool, &shard_router, &server] {
          std::string out = "cbir_router statusz\n";
          out += "uptime_seconds: " +
                 std::to_string(
                     static_cast<int64_t>(uptime.ElapsedSeconds())) +
                 "\n";
          out += "backends:";
          for (int b = 0; b < pool.num_backends(); ++b) {
            out += " " + pool.endpoint(b).Label() + "=" +
                   (pool.healthy(b) ? "healthy" : "ejected");
          }
          out += "\n";
          const router::RouterStats s = shard_router.stats();
          out += "sessions: " + std::to_string(s.sessions_started) +
                 " started/" + std::to_string(s.sessions_ended) + " ended/" +
                 std::to_string(s.active_sessions) + " active\n";
          out += "scatter: " + std::to_string(s.scatter_queries) +
                 " queries, " + std::to_string(s.degraded_responses) +
                 " degraded\n";
          out += "pinned: " + std::to_string(s.feedbacks_forwarded) +
                 " feedbacks forwarded, " +
                 std::to_string(s.failfast_unavailable) +
                 " failed fast (backend ejected)\n";
          const net::TcpServerStats n = server.stats();
          out += "connections: accepted=" +
                 std::to_string(n.connections_accepted) +
                 " closed=" + std::to_string(n.connections_closed) +
                 " decode_errors=" + std::to_string(n.decode_errors) + "\n";
          return out;
        });
    if (Status s = metrics_server->Start(); !s.ok()) {
      std::cerr << s << "\n";
      return 1;
    }
  }

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  const api::DescribeResponse& corpus = pool.describe();
  std::cout << "routing over " << pool.num_backends() << " backends ("
            << pool.num_healthy() << " healthy), corpus "
            << corpus.corpus_size << " images x " << corpus.dims
            << " dims, scheme=" << corpus.scheme << "\n"
            << "listening on " << server_options.host << ":" << server.port()
            << "\n";
  if (metrics_server != nullptr) {
    std::cout << "metrics listening on " << server_options.host << ":"
              << metrics_server->port() << "\n";
  }
  std::cout << std::flush;

  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::cout << "draining...\n";
  draining.store(true, std::memory_order_release);
  server.Stop();
  pool.Stop();
  if (metrics_server != nullptr) metrics_server->Stop();

  const router::RouterStats s = shard_router.stats();
  const router::BackendPoolStats p = pool.stats();
  const net::TcpServerStats n = server.stats();
  std::cout << "router stats: sessions=" << s.sessions_started << " started/"
            << s.sessions_ended << " ended scatter=" << s.scatter_queries
            << " degraded=" << s.degraded_responses
            << " feedbacks=" << s.feedbacks_forwarded
            << " failfast=" << s.failfast_unavailable << "\n"
            << "health: probes=" << p.probes << " failures="
            << p.probe_failures << " ejections=" << p.ejections
            << " readmissions=" << p.readmissions << "\n"
            << "connections accepted " << n.connections_accepted
            << ", requests served " << n.requests_served
            << ", decode errors " << n.decode_errors << "\n";
  return 0;
}

// CBIR retrieval server: one serve::RetrievalService behind the api wire
// protocol on a TCP port — the paper's deployment story as an actual network
// service. Any number of remote clients open feedback sessions (by corpus
// image id or by raw query feature vector), judge results, and every
// completed session grows the feedback log the coupled SVM mines.
//
// The corpus/service flags mirror examples/load_driver.cpp, so a driver
// started with the same --synthetic-rows/--seed/--scheme/... replays
// sessions whose rankings are byte-identical to an in-process run:
//
//   ./example_cbir_server --port=7345 --synthetic-rows=20000 &
//   ./example_load_driver --remote=127.0.0.1:7345 --sessions=200
//
// SIGINT/SIGTERM shut the server down cleanly (all connection threads
// joined) and print the final service stats.
#include <algorithm>
#include <atomic>
#include <csignal>
#include <chrono>
#include <iostream>
#include <memory>
#include <string_view>
#include <thread>

#include "api/dispatcher.h"
#include "core/feedback_scheme.h"
#include "logdb/log_store.h"
#include "logdb/simulated_user.h"
#include "net/tcp_server.h"
#include "obs/exposition.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/process_stats.h"
#include "obs/slo.h"
#include "obs/structured_log.h"
#include "retrieval/synthetic_features.h"
#include "serve/retrieval_service.h"
#include "util/flags.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace {

constexpr const char* kHelp =
    R"(cbir_server — TCP retrieval service over the api wire protocol

 transport
  --port=N              listen port (default 7345; 0 = OS-assigned, printed)
  --host=S              bind address (default 127.0.0.1; 0.0.0.0 = public)
  --idle-timeout-ms=N   reap connections silent for N ms (default 0 = never)
  --drain-timeout-ms=N  shutdown grace for in-flight requests (default 1000)

 fault tolerance
  --wal=PATH            durable feedback log: snapshot at PATH, write-ahead
                        log at PATH.wal. Every acknowledged session survives
                        kill -9; on boot the committed WAL prefix is replayed
                        (torn tail truncated) and the recovered count printed
  --max-inflight=N      admission cap: shed requests over N concurrently
                        in flight with kUnavailable (default 0 = unbounded)

 observability
  --metrics-port=N      plaintext metrics-and-debug listener (curl or nc the
                        port; 0 = OS-assigned, printed). Omit to disable.
                        Endpoints: /metrics (Prometheus exposition, also the
                        default for a path-less peer), /healthz (200 while
                        serving, 503 while draining), /statusz (uptime,
                        build, flags, sessions, SLO state), /flightz (flight
                        recorder dump), /slowz (the recorder's slow requests)
  --slow-request-ms=N   the flight recorder always captures, with its
                        per-stage span tree, any request whose server-side
                        time reaches N ms (default 0 = off); /slowz lists them
  --flight-capacity=N   flight recorder ring size, records (default 256;
                        0 disables the recorder)
  --flight-sample=N     capture 1 of every N healthy requests (default 64;
                        errors/sheds/slow requests are always captured)
  --slo-query-p99-ms=F  latency objective: p99 of request latency stays
                        under F ms (default 0 = no latency objective)
  --slo-error-ratio=F   error objective: at most this fraction of responses
                        non-OK (default 0 = no error objective). Breaches
                        set cbir_slo_breach and emit event=slo_breach;
                        windowed p99s are tracked even with no objectives
  --log-interval=F      per-event rate limit of the structured connection
                        log, seconds (default 1.0; suppressed events are
                        counted and reported on the next line through)

 corpus (must match the driver's for byte-identical rankings)
  --synthetic-rows=N    clustered 36-dim feature corpus (default 20000)
  --categories=N --images-per-category=N
                        render a real synthetic-Corel corpus instead (slow)
  --seed=N              master seed (default 17)

 service (see load_driver)
  --scheme=S            Euclidean | RF-SVM | LRF-2SVMs | LRF-CSVM
                        (default RF-SVM)
  --k=N                 default results per response (default 20)
  --rounds=N --judgments=N
                        expected session shape, used for the --depth default
                        (default 2 x 10)
  --depth=N             session ranking depth (0 = auto: k + rounds*judgments + 1)
  --noise=F             pre-collected log judgment noise (default 0.1)
  --max-sessions=N --ttl=F --cache-capacity=N --log-sessions=N
  --first-session-id=N  first session id this server hands out (default 1).
                        Give each shard behind a router a disjoint range
                        (e.g. 1, 1000001, 2000001) so ids never collide)

 index (see quickstart): --index=exact|signature (default signature),
  --signature_bits, --candidate_factor, --index-seed
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
  std::vector<std::string> known = retrieval::IndexFlagNames();
  for (const char* name :
       {"help", "port", "host", "idle-timeout-ms", "drain-timeout-ms", "wal",
        "max-inflight", "metrics-port", "slow-request-ms", "log-interval",
        "flight-capacity", "flight-sample", "slo-query-p99-ms",
        "slo-error-ratio",
        "synthetic-rows", "categories", "images-per-category",
        "seed", "scheme", "k", "rounds", "judgments", "depth", "noise",
        "max-sessions", "ttl", "cache-capacity", "log-sessions",
        "first-session-id"}) {
    known.push_back(name);
  }
  if (Status s = flags.RequireKnown(known); !s.ok()) {
    std::cerr << s << "\n" << kHelp;
    return 1;
  }

  // Structured timestamped key=value event log (connection lifecycle, WAL
  // events). Connection events share one per-event rate limit so a storm is
  // bounded; WAL events bypass it (LogAlways) — they are rare and must land.
  obs::StructuredLog slog(&std::cout, flags.GetDouble("log-interval", 1.0));

  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 17));
  const int k = flags.GetInt("k", 20);
  const int rounds = flags.GetInt("rounds", 2);
  const int judgments = flags.GetInt("judgments", 10);
  const double noise = flags.GetDouble("noise", 0.1);

  auto index_options = retrieval::IndexOptionsFromFlags(flags);
  if (!index_options.ok()) {
    std::cerr << index_options.status() << "\n" << kHelp;
    return 1;
  }
  if (!flags.Has("index")) {
    index_options->mode = retrieval::IndexMode::kSignature;
  }

  // ---- serving data, mirroring load_driver's construction exactly --------
  retrieval::ImageDatabase db = [&] {
    if (flags.Has("categories") || flags.Has("images-per-category")) {
      retrieval::DatabaseOptions db_options;
      db_options.corpus.num_categories = flags.GetInt("categories", 8);
      db_options.corpus.images_per_category =
          flags.GetInt("images-per-category", 40);
      db_options.corpus.width = 64;
      db_options.corpus.height = 64;
      db_options.corpus.seed = 21;
      std::cout << "rendering corpus ("
                << db_options.corpus.num_categories << " x "
                << db_options.corpus.images_per_category << " images)...\n";
      return retrieval::ImageDatabase::Build(db_options);
    }
    const int rows = flags.GetInt("synthetic-rows", 20000);
    std::cout << "building synthetic clustered corpus (" << rows
              << " rows)...\n";
    return retrieval::ClusteredDatabase(rows, seed);
  }();
  db.BuildIndex(index_options.value());

  logdb::LogCollectionOptions log_options;
  log_options.num_sessions = flags.GetInt("log-sessions", 150);
  log_options.session_size = 20;
  log_options.user.noise_rate = noise;
  log_options.seed = seed + 1;
  logdb::LogStore store;
  const std::string wal_path = flags.GetString("wal", "");
  if (wal_path.empty()) {
    store = logdb::CollectLogs(db.features(), db.categories(), log_options);
  } else {
    // Durable mode: the feedback log lives on disk and outlives the process.
    // A fresh store (first boot) is seeded with the simulated pre-collected
    // log and compacted so the baseline is in the snapshot, not the WAL.
    logdb::WalRecoveryStats recovery;
    auto store_or =
        logdb::LogStore::OpenDurable(wal_path, wal_path + ".wal", &recovery);
    if (!store_or.ok()) {
      std::cerr << store_or.status() << "\n";
      return 1;
    }
    store = std::move(store_or).value();
    if (store.num_sessions() == 0) {
      logdb::LogStore seeded =
          logdb::CollectLogs(db.features(), db.categories(), log_options);
      for (const logdb::LogSession& session : seeded.sessions()) {
        store.Append(session);
      }
      if (Status s = store.Compact(); !s.ok()) {
        std::cerr << "wal: seed compaction failed: " << s << "\n";
        return 1;
      }
      slog.LogAlways("wal_compacted",
                     {{"reason", "seed"},
                      {"sessions", std::to_string(store.num_sessions())}});
    }
    // One stable line the chaos-smoke CI job greps after a kill -9 restart.
    if (recovery.torn_reason.empty()) {
      slog.LogAlways(
          "wal_recovered",
          {{"sessions", std::to_string(store.num_sessions())},
           {"replayed_from_wal", std::to_string(recovery.sessions)},
           {"torn_bytes", std::to_string(recovery.torn_bytes)}});
    } else {
      slog.LogAlways(
          "wal_recovered",
          {{"sessions", std::to_string(store.num_sessions())},
           {"replayed_from_wal", std::to_string(recovery.sessions)},
           {"torn_bytes", std::to_string(recovery.torn_bytes)},
           {"torn_reason", "\"" + recovery.torn_reason + "\""}});
    }
  }
  const la::Matrix log_features =
      store.BuildMatrix(db.num_images()).ToDenseMatrix();

  serve::ServiceOptions service_options;
  service_options.scheme = flags.GetString("scheme", "RF-SVM");
  service_options.default_k = k;
  service_options.candidate_depth =
      flags.GetInt("depth", 0) > 0 ? flags.GetInt("depth", 0)
                                   : k + rounds * judgments + 1;
  service_options.sessions.max_sessions =
      static_cast<size_t>(flags.GetInt("max-sessions", 4096));
  service_options.sessions.ttl_seconds = flags.GetDouble("ttl", 0.0);
  service_options.cache.capacity =
      static_cast<size_t>(flags.GetInt("cache-capacity", 4096));
  service_options.max_inflight =
      static_cast<size_t>(flags.GetInt("max-inflight", 0));
  service_options.first_session_id =
      static_cast<uint64_t>(flags.GetInt("first-session-id", 1));

  auto service_or = serve::RetrievalService::Create(
      &db, &log_features, &store,
      core::MakeDefaultSchemeOptions(db, &log_features), service_options);
  if (!service_or.ok()) {
    std::cerr << service_or.status() << "\n" << kHelp;
    return 1;
  }
  api::Dispatcher dispatcher(service_or.value().get());
  // The service counts into its own registry; exporters read Default().
  obs::MetricsRegistry::Default().Include(&service_or.value()->metrics());

  // Pull-style gauges: every Snapshot() (wire MetricsResponse or a
  // --metrics-port scrape) refreshes these from the live service first.
  obs::MetricsRegistry::Default().SetHelp(
      "cbir_process_rss_bytes", "Resident set size from /proc/self/statm.");
  obs::MetricsRegistry::Default().SetHelp(
      "cbir_process_cpu_seconds",
      "Whole seconds of user+system CPU from /proc/self/stat.");
  obs::MetricsRegistry::Default().OnGather(
      [service = service_or.value().get(), store_ptr = &store] {
        obs::MetricsRegistry& r = obs::MetricsRegistry::Default();
        const serve::ServiceStats s = service->stats();
        r.GetGauge("cbir_serve_active_sessions")
            ->Set(static_cast<int64_t>(s.active_sessions));
        r.GetGauge("cbir_serve_uptime_seconds")
            ->Set(static_cast<int64_t>(s.elapsed_seconds));
        r.GetGauge("cbir_serve_cache_hit_rate_permille")
            ->Set(static_cast<int64_t>(s.cache_hit_rate * 1000.0));
        r.GetGauge("cbir_logdb_sessions")
            ->Set(static_cast<int64_t>(store_ptr->num_sessions()));
        const obs::ProcessStats p = obs::ReadProcessStats();
        r.GetGauge("cbir_process_rss_bytes")->Set(p.rss_bytes);
        r.GetGauge("cbir_process_cpu_seconds")
            ->Set(static_cast<int64_t>(p.cpu_seconds));
      });

  // Flight recorder: every completed request (decode errors included) is
  // offered; errors/sheds/slow always captured, healthy traffic sampled.
  std::unique_ptr<obs::FlightRecorder> flight;
  if (flags.GetInt("flight-capacity", 256) > 0) {
    obs::FlightRecorderOptions flight_options;
    flight_options.capacity =
        static_cast<size_t>(flags.GetInt("flight-capacity", 256));
    flight_options.sample_every =
        static_cast<uint64_t>(std::max(0, flags.GetInt("flight-sample", 64)));
    flight_options.slow_threshold_ms = flags.GetInt("slow-request-ms", 0);
    flight = std::make_unique<obs::FlightRecorder>(flight_options);
  }

  net::TcpServerOptions server_options;
  server_options.host = flags.GetString("host", "127.0.0.1");
  server_options.port = flags.GetInt("port", 7345);
  server_options.idle_timeout_ms = flags.GetInt("idle-timeout-ms", 0);
  server_options.drain_timeout_ms = flags.GetInt("drain-timeout-ms", 1000);
  server_options.flight_recorder = flight.get();
  server_options.connection_observer = [&slog](const char* event,
                                               uint64_t connection_id) {
    slog.Log(std::string("conn_") + event,
             {{"id", std::to_string(connection_id)}});
  };
  net::TcpServer server(&dispatcher, server_options);
  if (Status s = server.Start(); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }

  // Windowed SLO tracking over the net layer's since-boot series. Always on
  // (so /statusz shows windowed p99s even without objectives); breaches
  // alert through the structured log, rate-limited per event.
  obs::SloOptions slo_options;
  slo_options.query_p99_ms = flags.GetDouble("slo-query-p99-ms", 0.0);
  slo_options.error_ratio = flags.GetDouble("slo-error-ratio", 0.0);
  obs::SloTracker slo_tracker(&obs::MetricsRegistry::Default(), slo_options,
                              &slog);
  slo_tracker.Start();

  const Stopwatch uptime;
  std::atomic<bool> draining{false};
  std::unique_ptr<obs::ExpositionServer> metrics_server;
  if (flags.Has("metrics-port")) {
    metrics_server = std::make_unique<obs::ExpositionServer>(
        &obs::MetricsRegistry::Default(), server_options.host,
        flags.GetInt("metrics-port", 0));
    metrics_server->SetStatusHandler("/healthz", [&draining] {
      obs::ExpositionServer::StatusResult result;
      if (draining.load(std::memory_order_acquire)) {
        result.code = 503;
        result.body = "draining\n";
      } else {
        result.body = "ok\n";
      }
      return result;
    });
    metrics_server->SetHandler(
        "/statusz",
        [&flags, &server, &slo_tracker, &uptime, &flight,
         service = service_or.value().get()] {
          std::string out = "cbir_server statusz\n";
          out += "uptime_seconds: " +
                 std::to_string(static_cast<int64_t>(
                     uptime.ElapsedSeconds())) + "\n";
          out += std::string("build: ") + __VERSION__ + ", C++" +
                 std::to_string(__cplusplus / 100 % 100) + ", " + __DATE__ +
                 "\n";
          out += "flags:";
          for (const std::string& key : flags.Keys()) {
            out += " --" + key + "=" + flags.GetString(key, "");
          }
          out += "\n";
          const serve::ServiceStats s = service->stats();
          out += "active_sessions: " + std::to_string(s.active_sessions) +
                 "\n";
          out += "requests: " + std::to_string(s.requests) +
                 " (shed_overload=" +
                 std::to_string(s.requests_shed_overload) +
                 " shed_deadline=" +
                 std::to_string(s.requests_shed_deadline) + ")\n";
          if (flight != nullptr) {
            out += "flight_recorder: seen=" + std::to_string(flight->seen()) +
                   " captured=" + std::to_string(flight->captured()) +
                   " errors=" + std::to_string(flight->captured_errors()) +
                   "\n";
          }
          const net::TcpServerStats n = server.stats();
          out += "connections: accepted=" +
                 std::to_string(n.connections_accepted) +
                 " closed=" + std::to_string(n.connections_closed) +
                 " decode_errors=" + std::to_string(n.decode_errors) + "\n";
          out += slo_tracker.FormatState();
          return out;
        });
    metrics_server->SetHandler("/flightz", [&flight] {
      return flight != nullptr ? flight->Dump()
                               : std::string("flight recorder disabled\n");
    });
    metrics_server->SetHandler("/slowz", [&flight] {
      std::string out;
      if (flight != nullptr) {
        for (const obs::FlightRecord& record : flight->Snapshot()) {
          if (std::string_view(record.reason) != "slow") continue;
          out += obs::FormatSpanTree(record.trace_id, record.total_us,
                                     record.spans, record.counters) +
                 "\n";
        }
      }
      return out.empty() ? std::string("no slow requests recorded\n") : out;
    });
    if (Status s = metrics_server->Start(); !s.ok()) {
      std::cerr << s << "\n";
      return 1;
    }
  }

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  std::cout << "serving " << db.num_images()
            << " images (index=" << db.index()->name()
            << ", scheme=" << service_options.scheme
            << ", depth=" << service_options.candidate_depth << ")\n"
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

  std::cout << "shutting down...\n";
  draining.store(true, std::memory_order_release);
  server.Stop();
  if (metrics_server != nullptr) metrics_server->Stop();
  slo_tracker.Stop();
  if (flight != nullptr) {
    // The black box survives the crash-adjacent exits too: SIGTERM lands
    // here through g_stop, and the dump goes out before stats.
    std::cout << flight->Dump() << std::flush;
  }
  if (store.durable()) {
    // Fold the WAL into the snapshot on a clean exit; a kill -9 skips this
    // and the next boot replays the WAL instead.
    if (Status s = store.Compact(); !s.ok()) {
      std::cerr << "wal: final compaction failed: " << s << "\n";
    } else {
      slog.LogAlways("wal_compacted",
                     {{"reason", "shutdown"},
                      {"sessions", std::to_string(store.num_sessions())}});
    }
  }
  const net::TcpServerStats net_stats = server.stats();
  std::cout << serve::FormatServiceStats(service_or.value()->stats()) << "\n"
            << "connections accepted " << net_stats.connections_accepted
            << ", requests served " << net_stats.requests_served
            << ", decode errors " << net_stats.decode_errors
            << ", idle reaped " << net_stats.connections_reaped_idle << "\n"
            << "feedback log " << store.num_sessions() << " sessions ("
            << store.TotalJudgments() << " judgments)\n";
  return 0;
}

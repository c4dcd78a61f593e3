// The three workloads. Each builds its state fresh (kSetups times, keeping
// the last, so set-up time is a median), runs its closed loop for the
// requested seconds, checks the outputs, and reports either the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run).
#include <algorithm>
#include <filesystem>
#include <mutex>
#include <unistd.h>

#include "core/experiment.h"
#include "core/scheme_factory.h"
#include "retrieval/synthetic_features.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

using namespace cbir;

namespace {

constexpr int kSetups = 3;
/// The corpora and the feedback log are fixed, like a deployed collection
/// and the log it has gathered; the seed picks the queries and the users'
/// judgments.
constexpr uint64_t kServingCorpusSeed = 17;
/// The default log seed of examples/experiment_driver.cpp (--log-seed).
constexpr uint64_t kLogSeed = 7;
/// The paper's corpus: the synthetic-Corel seed calibrated to its Table 1.
constexpr uint64_t kPaperCorpusSeed = 42;
constexpr int kRoutedQueryPool = 64;

double Seconds(int64_t t0) { return static_cast<double>(NowNs() - t0) / 1e9; }

retrieval::IndexOptions IndexOf(retrieval::IndexMode mode) {
  retrieval::IndexOptions o;
  o.mode = mode;
  return o;
}

std::string ScratchDir(const Args& args, const std::string& what) {
  static int counter = 0;
  return args.work_dir + "/" + what + "-" + std::to_string(getpid()) + "-" +
         std::to_string(counter++);
}

void CheckDigest(const std::string& what, uint64_t got, uint64_t want,
                 bool break_digest, Report* report) {
  if (break_digest) want ^= 1;
  if (got == want) {
    report->Pass(what);
  } else {
    report->Fail(what + " (digest " + std::to_string(got) + " != expected " +
                 std::to_string(want) + ")");
  }
}

double CpuMsPerSession(uint64_t sessions, const Usage& before,
                       const Usage& after) {
  return (after.user_ms + after.sys_ms - before.user_ms - before.sys_ms) /
         static_cast<double>(sessions);
}

/// The end-to-end metrics of a timed phase, each the median over its
/// windows: `ends` are session completions, `first` and `round` the
/// client-side latencies.
void ReportEndToEnd(const Windows& w, const std::vector<int64_t>& ends,
                    const std::vector<Timed>& first,
                    const std::vector<Timed>& round, Report* report) {
  std::vector<int64_t> first_ends, round_ends;
  for (const Timed& t : first) first_ends.push_back(t.end_ns);
  for (const Timed& t : round) round_ends.push_back(t.end_ns);
  std::cout << "end-to-end values are taken over the " << w.quiet_count()
            << " of " << w.count()
            << " windows with the least host steal; n counts the samples "
               "inside them\n";
  report->Add("sessions_per_s", w.Rate(ends), "1/s", w.Inside(ends));
  report->Add("cpu_ms_per_session", w.CpuMsPer(ends), "ms", w.Inside(ends));
  report->Add("first_page_p50_ms", w.Quantile(first, 0.5) / 1e3, "ms",
              w.Inside(first_ends));
  report->Add("first_page_p90_ms", w.Quantile(first, 0.9) / 1e3, "ms",
              w.Inside(first_ends));
  report->Add("round_p50_ms", w.Quantile(round, 0.5) / 1e3, "ms",
              w.Inside(round_ends));
  report->Add("round_p90_ms", w.Quantile(round, 0.9) / 1e3, "ms",
              w.Inside(round_ends));
  std::cout << "host.steal_frac = " << w.Steal() << " fraction (quiet windows "
            << w.QuietSteal() << ")\n";
}

void ReportUtil(uint64_t sessions, const Usage& before, const Usage& after,
                Report* report) {
  const double n = static_cast<double>(sessions);
  report->Add("util.ctx_switches_per_session",
              static_cast<double>(after.ctx_switches - before.ctx_switches) / n,
              "count");
  report->Add("util.sys_cpu_ms_per_session", (after.sys_ms - before.sys_ms) / n,
              "ms");
}

void DumpSpans(const Args& args, const std::vector<SpanRecord>& spans) {
  const std::string path = args.work_dir + "/trace-" + args.workload + "-" +
                           std::to_string(args.seed) + ".tsv";
  if (Tracer::Dump(spans, path)) {
    std::cout << "spans: " << spans.size() << " written to " << path << "\n";
  }
}

void NoteErrors(const ClientSamples& s, Report* report) {
  report->CountOps(s.attempted, s.failed);
  std::cout << "error_rate = "
            << (s.attempted == 0 ? 0.0
                                 : static_cast<double>(s.failed) /
                                       static_cast<double>(s.attempted))
            << " fraction  (" << s.failed << " of " << s.attempted
            << " operations failed or refused)\n";
}

// ---------------------------------------------------------------- serving --

struct ServingState {
  std::unique_ptr<retrieval::ImageDatabase> db;
  logdb::LogStore seed_log;
  la::Matrix log_features;
  /// csvm_local's log store: the seed log plus every session the run ends.
  logdb::LogStore live_log;
  std::unique_ptr<serve::RetrievalService> service;  // csvm_local
  std::unique_ptr<RoutedStack> stack;                // routed_hot
  std::string dir;

  ~ServingState() {
    // Services and shards reference the corpus: drop them first.
    stack.reset();
    service.reset();
    if (!dir.empty()) std::filesystem::remove_all(dir);
  }
};

Result<std::unique_ptr<serve::RetrievalService>> NewService(
    const ServingState& s, const std::string& scheme,
    logdb::LogStore* log_store) {
  return serve::RetrievalService::Create(
      s.db.get(), &s.log_features, log_store,
      core::MakeDefaultSchemeOptions(*s.db, &s.log_features),
      ServingOptions(scheme));
}

Status StartFront(ServingState* s, const Args& args, const std::string& scheme,
                  bool routed, bool timed) {
  s->stack.reset();
  s->service.reset();
  if (routed) {
    if (!s->dir.empty()) std::filesystem::remove_all(s->dir);
    s->dir = ScratchDir(args, "routed");
    std::filesystem::create_directories(s->dir);
    auto stack = RoutedStack::Start(s->db.get(), &s->log_features,
                                    s->seed_log, scheme, s->dir, timed);
    if (!stack.ok()) return stack.status();
    s->stack = std::move(stack).value();
  } else {
    s->live_log = s->seed_log;
    auto service = NewService(*s, scheme, &s->live_log);
    if (!service.ok()) return service.status();
    s->service = std::move(service).value();
  }
  return Status::OK();
}

Result<std::vector<std::unique_ptr<SessionClient>>> Clients(
    const ServingState& s) {
  std::vector<std::unique_ptr<SessionClient>> out;
  for (int c = 0; c < kClients; ++c) {
    if (s.stack != nullptr) {
      auto client = RemoteClient(s.stack->port());
      if (!client.ok()) return client.status();
      out.push_back(std::move(client).value());
    } else {
      out.push_back(LocalClient(s.service.get()));
    }
  }
  return out;
}

/// The routed run's accounting: every call the clients made reached the
/// router exactly once, every shard call the router made is in the shards'
/// counters, nothing came back degraded, and every WAL append landed.
void CheckRouted(const LoopResult& loop, RoutedStack& stack, Report* report) {
  stack.Stop();
  const router::RouterStats rs = stack.router_stats();
  const serve::ServiceStats ss = stack.shard_stats();
  const net::TcpServerStats ns = stack.server_stats();
  const ClientSamples& c = loop.samples;
  const auto expect = [&](const std::string& what, uint64_t got,
                          uint64_t want) {
    if (got == want) {
      report->Pass(what + " = " + std::to_string(want));
    } else {
      report->Fail(what + ": " + std::to_string(got) + " != " +
                   std::to_string(want));
    }
  };
  expect("degraded replies seen by clients", c.degraded, 0);
  expect("router degraded responses", rs.degraded_responses, 0);
  expect("router requests served vs client calls", ns.requests_served,
         c.attempted);
  expect("shard sessions started vs client sessions", ss.sessions_started,
         loop.sessions);
  expect("shard candidate queries vs scattered first pages",
         ss.candidate_queries, RoutedStack::kShards * c.queries_ok);
  expect("shard feedbacks vs client rounds", ss.feedbacks, c.feedbacks_ok);
  // The service logs one record per applied feedback round.
  expect("shard log records appended vs client rounds",
         ss.log_sessions_appended, c.feedbacks_ok);
  if (Status s = stack.wal_status(); !s.ok()) {
    report->Fail("WAL: " + s.ToString());
  }
}

int RunServing(const Args& args, bool routed, Report* report) {
  const std::string scheme = routed ? "RF-SVM" : "LRF-CSVM";
  const uint64_t keep = args.tiny ? 16 : 800;
  const int rows = args.tiny ? 2000 : 20000;

  std::vector<double> setup_s, corpus_ms;
  std::unique_ptr<ServingState> state;
  for (int i = 0; i < kSetups; ++i) {
    state.reset();
    const int64_t t0 = NowNs();
    auto s = std::make_unique<ServingState>();
    s->db = std::make_unique<retrieval::ImageDatabase>(
        retrieval::ClusteredDatabase(rows, kServingCorpusSeed));
    corpus_ms.push_back(Seconds(t0) * 1e3);
    s->db->BuildIndex(IndexOf(retrieval::IndexMode::kSignature));
    s->seed_log = SeedLog(*s->db, kLogSeed);
    s->log_features =
        s->seed_log.BuildMatrix(s->db->num_images()).ToDenseMatrix();
    if (Status st = StartFront(s.get(), args, scheme, routed, false);
        !st.ok()) {
      report->Fail("setup: " + st.ToString());
      return 1;
    }
    setup_s.push_back(Seconds(t0));
    state = std::move(s);
  }
  const retrieval::ImageDatabase& db = *state->db;

  std::vector<int> pool;
  if (routed) {
    Rng rng(args.seed * 0x9E3779B97F4A7C15ull + 1);
    for (size_t id : rng.SampleWithoutReplacement(
             static_cast<size_t>(db.num_images()), kRoutedQueryPool)) {
      pool.push_back(static_cast<int>(id));
    }
  } else {
    for (int i = 0; i < db.num_images(); ++i) pool.push_back(i);
  }
  const SessionPlan plan = MakePlan(args.seed, pool, db.categories());

  // The reference: the same sessions, one at a time, on a fresh in-process
  // service (for routed_hot this also takes the router and wire out).
  const auto replay_digest = [&]() -> Result<uint64_t> {
    auto service = NewService(*state, scheme, nullptr);
    if (!service.ok()) return service.status();
    std::unique_ptr<SessionClient> client = LocalClient(service->get());
    return PageDigest(ReplaySessions(*client, plan, keep));
  };

  auto clients = Clients(*state);
  if (!clients.ok()) {
    report->Fail("connect: " + clients.status().ToString());
    return 1;
  }
  const double loop_seconds = args.trace ? args.seconds / 2 : args.seconds;
  const LoopResult loop =
      RunClosedLoop(clients.value(), plan, loop_seconds, keep, keep);
  clients->clear();
  NoteErrors(loop.samples, report);
  if (routed) CheckRouted(loop, *state->stack, report);

  if (!args.trace) {
    auto want = replay_digest();
    if (!want.ok()) {
      report->Fail("replay: " + want.status().ToString());
      return 1;
    }
    CheckDigest("final pages equal a single-client in-process replay",
                PageDigest(loop.kept), want.value(), args.break_digest,
                report);
    report->Add("setup_s", Median(setup_s), "s", setup_s.size());
    ReportEndToEnd(*loop.windows, loop.samples.session_end,
                   loop.samples.first_page, loop.samples.round, report);
    report->Add("p20", MeanP20(loop.kept, db.categories()), "fraction", keep);
    report->Add("map", MeanScopePrecision(loop.kept, db.categories()),
                "fraction", keep);
    report->Add("peak_rss_mb", ReadUsage().max_rss_mb, "MB");
    return 0;
  }

  // Traced half on fresh serving state, spans on.
  if (Status st = StartFront(state.get(), args, scheme, routed, true);
      !st.ok()) {
    report->Fail("traced setup: " + st.ToString());
    return 1;
  }
  auto traced_clients = Clients(*state);
  if (!traced_clients.ok()) {
    report->Fail("connect: " + traced_clients.status().ToString());
    return 1;
  }
  const uint64_t bytes0 = NetBytes();
  const uint64_t wal0 = CounterValue("cbir_logdb_wal_appends_total");
  Tracer::Clear();
  Tracer::SetEnabled(true);
  const LoopResult traced =
      RunClosedLoop(traced_clients.value(), plan, loop_seconds, keep, keep);
  Tracer::SetEnabled(false);
  traced_clients->clear();
  NoteErrors(traced.samples, report);
  std::vector<SpanRecord> spans = Tracer::Collect();
  Tracer::Clear();
  DumpSpans(args, spans);
  SpanTree tree;
  if (routed) {
    tree = LinkRoutedSpans(std::move(spans));
    CheckRouted(traced, *state->stack, report);
  } else {
    tree.spans = std::move(spans);
    tree.BuildChildren();
  }

  ReportUtil(traced.sessions, traced.usage_before, traced.usage_after, report);
  LayerInputs in;
  in.db = state->db.get();
  in.log_features = &state->log_features;
  in.seed_log = &state->seed_log;
  in.index = IndexOf(retrieval::IndexMode::kSignature);
  in.scheme = scheme;
  in.plan = plan;
  in.sessions = traced.kept;
  in.seed = args.seed;
  in.tiny = args.tiny;
  const double hit_rate = routed ? state->stack->shard_stats().cache_hit_rate
                                 : state->service->stats().cache_hit_rate;
  const std::vector<SessionResult> replayed =
      MeasureServeReplay(in, keep, hit_rate, report);
  const uint64_t want = PageDigest(replayed);
  CheckDigest("untraced final pages equal the in-process replay",
              PageDigest(loop.kept), want, args.break_digest, report);
  CheckDigest("traced final pages equal the in-process replay",
              PageDigest(traced.kept), want, args.break_digest, report);
  MeasureIndexAndRanking(in, report);
  MeasureCore(in, report);
  MeasureCodec(in, report);
  MeasureLogMatrix(in, report);
  if (routed) {
    ReportRoutedLayers(tree, *state->stack, traced.sessions,
                       NetBytes() - bytes0,
                       CounterValue("cbir_logdb_wal_appends_total") - wal0,
                       report);
  } else {
    in.sessions = replayed;
    MeasureRoutedProbe(in, ScratchDir(args, "probe"),
                       std::min(keep, kLayerSessions), report);
  }
  report->Add("retrieval.corpus_build_ms", Median(corpus_ms), "ms",
              corpus_ms.size());
  // Where a round's time goes: the client's view of each round split into
  // the self time of every layer span under it. What no layer span covers
  // is the unattributed part.
  const std::vector<double> rounds = tree.DurationsUs("client.round");
  std::cout << "round attribution (p50 self time per layer, us): total "
            << Median(rounds);
  for (const auto& [layer, us] : tree.LayerSelfUnder("client.round")) {
    std::cout << ", " << layer << " " << Median(us);
  }
  std::cout << "\n";
  const std::vector<double> unattributed = tree.SelfTimesUs("client.round");
  report->Add("unattributed_us_p50", Median(unattributed), "us",
              unattributed.size());
  report->Add("trace.overhead_frac",
              CpuMsPerSession(traced.sessions, traced.usage_before,
                              traced.usage_after) /
                      CpuMsPerSession(loop.sessions, loop.usage_before,
                                      loop.usage_after) -
                  1.0,
              "fraction");
  report->Add("host.steal_frac", StealFrac(loop.host_before, traced.host_after),
              "fraction");
  return 0;
}

// ------------------------------------------------------------ paper_table1 --

/// Per-call record of one Table 1 pass: latencies per scheme and an
/// order-independent digest of every ranking's first page.
struct CallLog {
  std::mutex mu;
  std::vector<Timed> calls[4];
  uint64_t digest = 0;
};

const char* const kRankSpans[4] = {"core.rank.Euclidean", "core.rank.RF-SVM",
                                   "core.rank.LRF-2SVMs",
                                   "core.rank.LRF-CSVM"};

/// Times each Rank call of the wrapped scheme into a CallLog.
class TimedScheme : public core::FeedbackScheme {
 public:
  TimedScheme(std::shared_ptr<core::FeedbackScheme> inner, int slot,
              CallLog* log)
      : inner_(std::move(inner)), slot_(slot), log_(log) {}
  std::string name() const override { return inner_->name(); }
  Result<std::vector<int>> Rank(const core::FeedbackContext& ctx) const override {
    const int64_t t0 = NowNs();
    Result<std::vector<int>> ranked = Status::Internal("unset");
    {
      Span span(kRankSpans[slot_]);
      ranked = inner_->Rank(ctx);
    }
    const int64_t end = NowNs();
    uint64_t d = Mix(Mix(0xCBF29CE484222325ull, static_cast<uint64_t>(slot_)),
                     static_cast<uint64_t>(ctx.query_id));
    if (ranked.ok()) {
      const std::vector<int>& r = ranked.value();
      for (size_t i = 0; i < r.size() && i < kPageK; ++i) {
        d = Mix(d, static_cast<uint64_t>(r[i]));
      }
    }
    std::lock_guard<std::mutex> lock(log_->mu);
    log_->calls[slot_].push_back({end, static_cast<double>(end - t0) / 1e3});
    log_->digest += d;
    return ranked;
  }

 private:
  std::shared_ptr<core::FeedbackScheme> inner_;
  int slot_;
  CallLog* log_;
};

struct PaperState {
  std::unique_ptr<retrieval::ImageDatabase> db;
  logdb::LogStore seed_log;
  la::Matrix log_features;
  std::vector<std::shared_ptr<core::FeedbackScheme>> schemes;
};

struct PassLoop {
  std::vector<Timed> first, round;  ///< Euclidean and LRF-CSVM Rank calls
  std::vector<int64_t> session_end;  ///< a query ends with its last scheme
  std::vector<core::ExperimentResult> quality;
  uint64_t digest0 = 0;
  uint64_t sessions = 0;
  Usage usage_before, usage_after;
  HostCpu host_before, host_after;
  std::unique_ptr<Windows> windows;
};

}  // namespace

int RunCsvmLocal(const Args& args, Report* report) {
  return RunServing(args, false, report);
}

int RunRoutedHot(const Args& args, Report* report) {
  return RunServing(args, true, report);
}

int RunPaperTable1(const Args& args, Report* report) {
  const int queries = args.tiny ? 20 : 200;
  const int quality_passes = args.tiny ? 1 : 8;

  std::vector<double> setup_s, corpus_ms;
  std::unique_ptr<PaperState> state;
  for (int i = 0; i < kSetups; ++i) {
    state.reset();
    const int64_t t0 = NowNs();
    auto s = std::make_unique<PaperState>();
    retrieval::DatabaseOptions options;
    options.corpus.num_categories = args.tiny ? 5 : 20;
    options.corpus.images_per_category = args.tiny ? 40 : 100;
    options.corpus.width = options.corpus.height = args.tiny ? 48 : 96;
    options.corpus.seed = kPaperCorpusSeed;
    options.num_threads = kClients;
    s->db = std::make_unique<retrieval::ImageDatabase>(
        retrieval::ImageDatabase::Build(options));
    corpus_ms.push_back(Seconds(t0) * 1e3);
    s->db->BuildIndex(IndexOf(retrieval::IndexMode::kExact));
    s->seed_log = SeedLog(*s->db, kLogSeed);
    s->log_features =
        s->seed_log.BuildMatrix(s->db->num_images()).ToDenseMatrix();
    s->schemes = core::MakePaperSchemes(
        core::MakeDefaultSchemeOptions(*s->db, &s->log_features));
    setup_s.push_back(Seconds(t0));
    state = std::move(s);
  }

  const auto run_pass = [&](int pass, int threads, CallLog* log) {
    std::vector<std::shared_ptr<core::FeedbackScheme>> timed;
    for (int i = 0; i < 4; ++i) {
      timed.push_back(std::make_shared<TimedScheme>(state->schemes[i], i, log));
    }
    core::ExperimentOptions options;
    options.num_queries = queries;
    options.seed = args.seed * 7919 + static_cast<uint64_t>(pass);
    options.num_threads = threads;
    Span span("core.pass");
    return core::RunExperiment(*state->db, &state->log_features, timed,
                               options);
  };
  const auto run_loop = [&](double seconds, int min_passes) {
    PassLoop loop;
    loop.usage_before = ReadUsage();
    loop.host_before = ReadHostCpu();
    loop.windows = std::make_unique<Windows>(seconds, WindowCount(seconds));
    for (int pass = 0; NowNs() < loop.windows->end_ns() || pass < min_passes;
         ++pass) {
      CallLog log;
      core::ExperimentResult r = run_pass(pass, kClients, &log);
      loop.first.insert(loop.first.end(), log.calls[0].begin(),
                        log.calls[0].end());
      loop.round.insert(loop.round.end(), log.calls[3].begin(),
                        log.calls[3].end());
      for (const Timed& t : log.calls[3]) loop.session_end.push_back(t.end_ns);
      if (pass == 0) loop.digest0 = log.digest;
      if (pass < quality_passes) loop.quality.push_back(std::move(r));
      loop.sessions += static_cast<uint64_t>(queries);
    }
    loop.windows->Join();
    loop.usage_after = ReadUsage();
    loop.host_after = ReadHostCpu();
    return loop;
  };

  const double loop_seconds = args.trace ? args.seconds / 2 : args.seconds;
  const PassLoop loop = run_loop(loop_seconds, quality_passes);
  // Every query is one initial retrieval plus one round in four schemes.
  report->CountOps(loop.sessions * 4, 0);

  // Checks: pass 0 again on one thread gives the same rankings and table,
  // and the paper's MAP ordering holds over the quality passes.
  {
    CallLog log;
    const core::ExperimentResult serial = run_pass(0, 1, &log);
    CheckDigest("pass 0 rankings equal a single-threaded replay", log.digest,
                loop.digest0, args.break_digest, report);
    bool same = serial.schemes.size() == loop.quality[0].schemes.size();
    for (size_t s = 0; same && s < serial.schemes.size(); ++s) {
      same = serial.schemes[s].precision == loop.quality[0].schemes[s].precision;
    }
    if (same) {
      report->Pass("pass 0 precision table equals the single-threaded replay");
    } else {
      report->Fail("pass 0 precision table differs from the replay");
    }
  }
  double map[4] = {0, 0, 0, 0};
  double p20 = 0.0;
  for (const core::ExperimentResult& r : loop.quality) {
    for (int s = 0; s < 4; ++s) map[s] += r.schemes[s].map / quality_passes;
    p20 += r.schemes[3].precision[0] / quality_passes;
  }
  std::cout << "MAP over " << quality_passes * queries
            << " queries: Euclidean " << map[0] << ", RF-SVM " << map[1]
            << ", LRF-2SVMs " << map[2] << ", LRF-CSVM " << map[3] << "\n";
  if (map[0] < map[1] && map[1] < map[2] && map[2] < map[3]) {
    report->Pass("MAP ordered Euclidean < RF-SVM < LRF-2SVMs < LRF-CSVM");
  } else {
    report->Fail("MAP ordering Euclidean < RF-SVM < LRF-2SVMs < LRF-CSVM");
  }

  if (!args.trace) {
    report->Add("setup_s", Median(setup_s), "s", setup_s.size());
    ReportEndToEnd(*loop.windows, loop.session_end, loop.first, loop.round,
                   report);
    report->Add("p20", p20, "fraction",
                static_cast<size_t>(quality_passes * queries));
    report->Add("map", map[3], "fraction",
                static_cast<size_t>(quality_passes * queries));
    report->Add("peak_rss_mb", ReadUsage().max_rss_mb, "MB");
    return 0;
  }

  Tracer::Clear();
  Tracer::SetEnabled(true);
  const PassLoop traced = run_loop(loop_seconds, 1);
  Tracer::SetEnabled(false);
  report->CountOps(traced.sessions * 4, 0);
  SpanTree tree;
  tree.spans = Tracer::Collect();
  Tracer::Clear();
  DumpSpans(args, tree.spans);
  for (const char* name : kRankSpans) {
    tree.LinkAcrossThreads(name, {"core.pass"});
  }
  tree.BuildChildren();

  ReportUtil(traced.sessions, traced.usage_before, traced.usage_after, report);

  LayerInputs in;
  in.db = state->db.get();
  in.log_features = &state->log_features;
  in.seed_log = &state->seed_log;
  in.index = IndexOf(retrieval::IndexMode::kExact);
  in.scheme = "LRF-CSVM";
  std::vector<int> pool;
  for (int i = 0; i < state->db->num_images(); ++i) pool.push_back(i);
  in.plan = MakePlan(args.seed, pool, state->db->categories());
  in.seed = args.seed;
  in.tiny = args.tiny;
  const uint64_t sessions = args.tiny ? 16 : kLayerSessions;
  in.sessions = MeasureServeReplay(in, sessions, -1.0, report);
  MeasureIndexAndRanking(in, report);
  MeasureCore(in, report);
  MeasureCodec(in, report);
  MeasureLogMatrix(in, report);
  MeasureRoutedProbe(in, ScratchDir(args, "probe"), sessions, report);
  report->Add("retrieval.corpus_build_ms", Median(corpus_ms), "ms",
              corpus_ms.size());
  // RunExperiment's own time per query: each pass's two worker threads'
  // time less what the schemes' Rank calls under it account for.
  std::vector<double> unattributed;
  for (size_t i = 0; i < tree.spans.size(); ++i) {
    if (std::string(tree.spans[i].name) != "core.pass") continue;
    const double wall =
        static_cast<double>(tree.spans[i].end_ns - tree.spans[i].start_ns) /
        1e3;
    double ranked = 0.0;
    for (int32_t c : tree.children[i]) {
      ranked +=
          static_cast<double>(tree.spans[c].end_ns - tree.spans[c].start_ns) /
          1e3;
    }
    unattributed.push_back((wall * kClients - ranked) / queries);
  }
  report->Add("unattributed_us_p50", Median(unattributed), "us",
              unattributed.size());
  report->Add("trace.overhead_frac",
              CpuMsPerSession(traced.sessions, traced.usage_before,
                              traced.usage_after) /
                      CpuMsPerSession(loop.sessions, loop.usage_before,
                                      loop.usage_after) -
                  1.0,
              "fraction");
  report->Add("host.steal_frac", StealFrac(loop.host_before, traced.host_after),
              "fraction");
  return 0;
}

}  // namespace perfbench

// Per-layer measurements of the traced run. Each one times a call into a
// layer's public function, or reads a public stats struct or registry
// counter, on the workload's own corpus, scheme and recorded sessions.
#include <algorithm>
#include <filesystem>

#include "api/codec.h"
#include "core/experiment.h"
#include "core/scheme_factory.h"
#include "retrieval/ranker.h"
#include "workloads.h"

namespace perfbench {

using namespace cbir;

namespace {

double UsSince(int64_t t0) { return static_cast<double>(NowNs() - t0) / 1e3; }

std::vector<int> SampleQueries(const LayerInputs& in, size_t limit) {
  std::vector<int> out;
  for (const SessionResult& s : in.sessions) {
    if (out.size() >= limit) break;
    out.push_back(s.query_id);
  }
  return out;
}

}  // namespace

void MeasureIndexAndRanking(const LayerInputs& in, Report* report) {
  const retrieval::Index* index = in.db->index();
  const std::vector<int> queries = SampleQueries(in, 200);
  std::vector<double> query_us, rank_us;
  double candidates = 0.0;
  for (int q : queries) {
    const la::Vec feature = in.db->feature(q);
    int64_t t0 = NowNs();
    {
      Span span("index.query");
      (void)index->Query(feature, kDepth);
    }
    query_us.push_back(UsSince(t0));
    candidates += static_cast<double>(index->Candidates(feature, kDepth).size());
    t0 = NowNs();
    {
      Span span("retrieval.rank_by_euclidean");
      (void)retrieval::RankByEuclidean(in.db->features(), feature);
    }
    rank_us.push_back(UsSince(t0));
  }
  report->Add("index.query_us_p50", Median(query_us), "us", query_us.size());
  report->Add("index.candidates_per_query",
              candidates / static_cast<double>(queries.size()), "count");
  report->Add("index.recall_proxy", index->stats().recall_proxy, "fraction");

  std::vector<double> build_ms;
  for (int i = 0; i < 3; ++i) {
    std::unique_ptr<retrieval::Index> fresh = retrieval::MakeIndex(in.index);
    const int64_t t0 = NowNs();
    {
      Span span("index.build");
      fresh->Build(in.db->features());
    }
    build_ms.push_back(UsSince(t0) / 1e3);
  }
  report->Add("index.build_ms", Median(build_ms), "ms", build_ms.size());
  report->Add("retrieval.rank_by_euclidean_us_p50", Median(rank_us), "us",
              rank_us.size());
}

void MeasureCore(const LayerInputs& in, Report* report) {
  const core::SchemeOptions scheme_options =
      core::MakeDefaultSchemeOptions(*in.db, in.log_features);

  // One recorded round, ranked again and again from a cold session state.
  if (in.sessions.empty() || in.sessions.front().rounds.empty()) {
    report->Fail("core: no recorded round to replay");
    return;
  }
  const SessionResult& recorded = in.sessions.front();
  auto scheme = core::MakeScheme(in.scheme, scheme_options);
  if (!scheme.ok()) {
    report->Fail("core: " + scheme.status().ToString());
    return;
  }
  std::vector<double> rank_us;
  const int repeats = in.tiny ? 3 : 40;
  for (int i = 0; i < repeats; ++i) {
    core::SessionState state;
    core::FeedbackContext ctx;
    ctx.db = in.db;
    ctx.log_features = in.log_features;
    ctx.query_id = recorded.query_id;
    ctx.candidate_depth = kDepth;
    ctx.session_state = &state;
    for (const logdb::LogEntry& e : recorded.rounds.front()) {
      ctx.labeled_ids.push_back(e.image_id);
      ctx.labels.push_back(static_cast<double>(e.judgment));
    }
    if (Status s = ctx.Prepare(); !s.ok()) {
      report->Fail("core: " + s.ToString());
      return;
    }
    const int64_t t0 = NowNs();
    Result<std::vector<int>> ranked = Status::Internal("unset");
    {
      Span span("core.rank");
      ranked = scheme.value()->Rank(ctx);
    }
    rank_us.push_back(UsSince(t0));
    if (!ranked.ok()) {
      report->Fail("core: " + ranked.status().ToString());
      return;
    }
  }
  report->Add("core.rank_us_p50", Median(rank_us), "us", rank_us.size());

  // One Table 1 pass per scheme on this corpus.
  core::ExperimentOptions options;
  options.num_queries = in.tiny ? 10 : 200;
  options.seed = in.seed;
  options.num_threads = kClients;
  for (const auto& s : core::MakePaperSchemes(scheme_options)) {
    const int64_t t0 = NowNs();
    {
      Span span("core.pass");
      (void)core::RunExperiment(*in.db, in.log_features, {s}, options);
    }
    report->Add("core.pass_s." + s->name(), UsSince(t0) / 1e6, "s");
  }
}

void MeasureCodec(const LayerInputs& in, Report* report) {
  std::vector<double> encode_us, decode_us;
  bool round_trip_ok = true;
  const int repeats = in.tiny ? 1 : 5;
  for (int rep = 0; rep < repeats; ++rep) {
    uint64_t session_id = 1000;
    for (const SessionResult& s : in.sessions) {
      // The frames one session exchanges, as the client sends and receives
      // them.
      ++session_id;
      std::vector<api::Request> requests;
      std::vector<api::Response> responses;
      const auto ranking = [](const std::vector<int>& page) {
        return std::vector<int32_t>(page.begin(), page.end());
      };
      api::StartSessionResponse started;
      started.session_id = session_id;
      api::QueryResponse first;
      first.ranking = ranking(s.first_page);
      requests.push_back(
          api::StartSessionRequest{api::QuerySpec::ById(s.query_id)});
      responses.push_back(started);
      requests.push_back(api::QueryRequest{session_id, kDepth});
      responses.push_back(first);
      for (const auto& round : s.rounds) {
        api::FeedbackResponse next;
        next.ranking = ranking(s.final_page);
        requests.push_back(api::FeedbackRequest{session_id, kDepth, round});
        responses.push_back(next);
      }
      requests.push_back(api::EndSessionRequest{session_id});
      responses.push_back(api::EndSessionResponse{});
      const double frames =
          static_cast<double>(requests.size() + responses.size());

      std::vector<std::vector<uint8_t>> request_bytes, response_bytes;
      int64_t t0 = NowNs();
      {
        Span span("api.encode");
        for (const api::Request& r : requests) {
          request_bytes.push_back(api::EncodeRequest(r));
        }
        for (const api::Response& r : responses) {
          response_bytes.push_back(api::EncodeResponse(r));
        }
      }
      encode_us.push_back(UsSince(t0) / frames);

      std::vector<Result<api::Request>> decoded_requests;
      std::vector<Result<api::Response>> decoded_responses;
      t0 = NowNs();
      {
        Span span("api.decode");
        for (const auto& b : request_bytes) {
          decoded_requests.push_back(api::DecodeRequest(b.data(), b.size()));
        }
        for (const auto& b : response_bytes) {
          decoded_responses.push_back(api::DecodeResponse(b.data(), b.size()));
        }
      }
      decode_us.push_back(UsSince(t0) / frames);
      for (size_t i = 0; i < requests.size(); ++i) {
        round_trip_ok &= decoded_requests[i].ok() &&
                         decoded_requests[i].value() == requests[i];
      }
      for (size_t i = 0; i < responses.size(); ++i) {
        round_trip_ok &= decoded_responses[i].ok() &&
                         decoded_responses[i].value() == responses[i];
      }
    }
  }
  if (round_trip_ok) {
    report->Pass("codec round trip of every recorded frame");
  } else {
    report->Fail("codec round trip changed a recorded frame");
  }
  report->Add("api.encode_us_p50", Median(encode_us), "us", encode_us.size());
  report->Add("api.decode_us_p50", Median(decode_us), "us", decode_us.size());
}

void MeasureLogMatrix(const LayerInputs& in, Report* report) {
  std::vector<double> ms;
  for (int i = 0; i < 3; ++i) {
    const int64_t t0 = NowNs();
    {
      Span span("logdb.build_matrix");
      (void)in.seed_log->BuildMatrix(in.db->num_images()).ToDenseMatrix();
    }
    ms.push_back(UsSince(t0) / 1e3);
  }
  report->Add("logdb.build_matrix_ms", Median(ms), "ms", ms.size());
}

std::vector<SessionResult> MeasureServeReplay(const LayerInputs& in,
                                              uint64_t count,
                                              double cache_hit_rate,
                                              Report* report) {
  auto service = serve::RetrievalService::Create(
      in.db, in.log_features, nullptr,
      core::MakeDefaultSchemeOptions(*in.db, in.log_features),
      ServingOptions(in.scheme));
  if (!service.ok()) {
    report->Fail("serve: " + service.status().ToString());
    return {};
  }
  const char* kSvm[] = {"cbir_svm_solves_total", "cbir_svm_iterations_total",
                        "cbir_svm_kernel_cache_hits_total",
                        "cbir_svm_kernel_cache_misses_total",
                        "cbir_svm_unconverged_total"};
  uint64_t before[5];
  for (int i = 0; i < 5; ++i) before[i] = CounterValue(kSvm[i]);
  Tracer::Clear();
  Tracer::SetEnabled(true);
  std::unique_ptr<SessionClient> client = LocalClient(service.value().get());
  std::vector<SessionResult> replayed =
      ReplaySessions(*client, in.plan, count);
  Tracer::SetEnabled(false);
  double delta[5];
  for (int i = 0; i < 5; ++i) {
    delta[i] = static_cast<double>(CounterValue(kSvm[i]) - before[i]);
  }
  SpanTree tree;
  tree.spans = Tracer::Collect();
  Tracer::Clear();
  for (const char* name : {"serve.query", "serve.feedback", "serve.end"}) {
    const std::vector<double> us = tree.DurationsUs(name);
    report->Add(std::string(name) + "_us_p50", Median(us), "us", us.size());
  }
  if (cache_hit_rate < 0) cache_hit_rate = service.value()->stats().cache_hit_rate;
  report->Add("serve.cache_hit_rate", cache_hit_rate, "fraction");

  const double sessions = static_cast<double>(count);
  report->Add("svm.solves_per_session", delta[0] / sessions, "count");
  report->Add("svm.iterations_per_solve",
              delta[0] > 0 ? delta[1] / delta[0] : 0.0, "count");
  report->Add("svm.kernel_cache_hit_rate",
              delta[2] + delta[3] > 0 ? delta[2] / (delta[2] + delta[3]) : 0.0,
              "fraction");
  report->Add("svm.unconverged_total", delta[4], "count");
  return replayed;
}

SpanTree LinkRoutedSpans(std::vector<SpanRecord> spans) {
  SpanTree tree;
  tree.spans = std::move(spans);
  for (const char* name :
       {"router.start", "router.query", "router.feedback", "router.end"}) {
    tree.LinkAcrossThreads(name, {"net.rpc"});
  }
  tree.LinkAcrossThreads("shard.start", {"router.start"});
  tree.LinkAcrossThreads("shard.candidates", {"router.query"});
  tree.LinkAcrossThreads("shard.query", {"router.query"});
  tree.LinkAcrossThreads("shard.feedback", {"router.feedback"});
  tree.LinkAcrossThreads("shard.end", {"router.end"});
  tree.BuildChildren();
  return tree;
}

void ReportRoutedLayers(const SpanTree& tree, const RoutedStack& stack,
                        uint64_t sessions, uint64_t net_bytes,
                        uint64_t wal_appends, Report* report) {
  const std::vector<double> rpc = tree.SelfTimesUs("net.rpc");
  const std::vector<double> router = tree.SelfTimesUs("router.");
  report->Add("net.rpc_us_p50", Median(rpc), "us", rpc.size());
  report->Add("router.handle_us_p50", Median(router), "us", router.size());
  const router::RouterStats rs = stack.router_stats();
  const serve::ServiceStats ss = stack.shard_stats();
  report->Add("router.scatter_legs_per_query",
              rs.scatter_queries == 0
                  ? 0.0
                  : static_cast<double>(ss.candidate_queries) /
                        static_cast<double>(rs.scatter_queries),
              "count");
  report->Add("router.degraded_total",
              static_cast<double>(rs.degraded_responses), "count");
  const double n = static_cast<double>(sessions);
  report->Add("api.bytes_per_session", static_cast<double>(net_bytes) / n,
              "bytes");
  report->Add("logdb.wal_appends_per_session",
              static_cast<double>(wal_appends) / n, "count");
  std::cout << "trace: " << tree.ambiguous_links
            << " cross-thread links had more than one candidate parent\n";
}

uint64_t NetBytes() {
  return CounterValue("cbir_net_bytes_read_total") +
         CounterValue("cbir_net_bytes_written_total");
}

void MeasureRoutedProbe(const LayerInputs& in, const std::string& dir,
                        uint64_t count, Report* report) {
  std::filesystem::create_directories(dir);
  {
    auto stack = RoutedStack::Start(in.db, in.log_features, *in.seed_log,
                                    in.scheme, dir, /*timed=*/true);
    if (!stack.ok()) {
      report->Fail("routed probe: " + stack.status().ToString());
      return;
    }
    auto client = RemoteClient(stack.value()->port());
    if (!client.ok()) {
      report->Fail("routed probe: " + client.status().ToString());
      return;
    }
    const uint64_t bytes0 = NetBytes();
    const uint64_t wal0 = CounterValue("cbir_logdb_wal_appends_total");
    Tracer::Clear();
    Tracer::SetEnabled(true);
    const std::vector<SessionResult> routed =
        ReplaySessions(*client.value(), in.plan, count);
    Tracer::SetEnabled(false);
    const uint64_t bytes = NetBytes() - bytes0;
    const uint64_t wal = CounterValue("cbir_logdb_wal_appends_total") - wal0;
    const SpanTree tree = LinkRoutedSpans(Tracer::Collect());
    Tracer::Clear();
    ReportRoutedLayers(tree, *stack.value(), count, bytes, wal, report);
    const std::vector<SessionResult> local(
        in.sessions.begin(),
        in.sessions.begin() + static_cast<ptrdiff_t>(
                                  std::min<size_t>(count, in.sessions.size())));
    if (PageDigest(routed) != PageDigest(local)) {
      report->Fail("routed probe pages differ from the in-process replay");
    } else {
      report->Pass("routed probe pages equal the in-process replay");
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace perfbench

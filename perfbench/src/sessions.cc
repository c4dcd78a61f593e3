#include <algorithm>
#include <atomic>
#include <thread>
#include <unordered_set>
#include <utility>

#include "core/feedback_scheme.h"
#include "net/tcp_client.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

using namespace cbir;

int WindowCount(double seconds) {
  return std::max(4, static_cast<int>(seconds * kWindowsPerSecond + 0.5));
}

SessionPlan MakePlan(uint64_t seed, std::vector<int> query_pool,
                     const std::vector<int>& categories) {
  SessionPlan plan;
  plan.seed = seed;
  plan.query_pool = std::move(query_pool);
  plan.categories = categories;
  plan.user = std::make_shared<const logdb::SimulatedUser>(
      categories, logdb::UserModel{kJudgmentNoise});
  return plan;
}

// ---------------------------------------------------------------- clients --

namespace {

class Local : public SessionClient {
 public:
  explicit Local(serve::RetrievalService* service) : service_(service) {}
  Result<uint64_t> Start(int query_id) override {
    Span span("serve.start");
    return service_->StartSession(query_id);
  }
  Result<std::vector<int>> Query(uint64_t session, int k) override {
    Span span("serve.query");
    return service_->Query(session, k);
  }
  Result<std::vector<int>> Feedback(uint64_t session,
                                    const std::vector<logdb::LogEntry>& round,
                                    int k) override {
    Span span("serve.feedback");
    return service_->Feedback(session, round, k);
  }
  Status End(uint64_t session) override {
    Span span("serve.end");
    return service_->EndSession(session);
  }

 private:
  serve::RetrievalService* service_;
};

class Remote : public SessionClient {
 public:
  explicit Remote(net::TcpClient client) : client_(std::move(client)) {}
  Result<uint64_t> Start(int query_id) override {
    Span span("net.rpc");
    return client_.StartSession(api::QuerySpec::ById(query_id));
  }
  Result<std::vector<int>> Query(uint64_t session, int k) override {
    Span span("net.rpc");
    return client_.Query(session, k);
  }
  Result<std::vector<int>> Feedback(uint64_t session,
                                    const std::vector<logdb::LogEntry>& round,
                                    int k) override {
    Span span("net.rpc");
    return client_.Feedback(session, round, k);
  }
  Status End(uint64_t session) override {
    Span span("net.rpc");
    return client_.EndSession(session);
  }
  bool degraded() const override { return client_.last_degraded(); }

 private:
  net::TcpClient client_;
};

}  // namespace

std::unique_ptr<SessionClient> LocalClient(serve::RetrievalService* s) {
  return std::make_unique<Local>(s);
}

Result<std::unique_ptr<SessionClient>> RemoteClient(int port) {
  auto client = net::TcpClient::Connect("127.0.0.1", port, 2000);
  if (!client.ok()) return client.status();
  return std::unique_ptr<SessionClient>(
      std::make_unique<Remote>(std::move(client).value()));
}

// --------------------------------------------------------------- sessions --

namespace {

void NewRequest() {
  if (Tracer::enabled()) Tracer::SetRequest(Tracer::NewRequestId());
}

/// One session: StartSession + Query, kRounds Feedback rounds judged by
/// the plan's simulated user, EndSession. Samples and counts go to
/// `samples`.
SessionResult RunSession(SessionClient& client, const SessionPlan& plan,
                         uint64_t index, ClientSamples* samples) {
  SessionResult out;
  Rng rng(plan.seed ^ (0x5851F42D4C957F2Dull * (index + 1)));
  out.query_id = plan.query_pool[rng.UniformInt(plan.query_pool.size())];

  uint64_t session = 0;
  bool started = false;
  bool ok = false;
  NewRequest();
  const int64_t t0 = NowNs();
  {
    Span span("client.first_page");
    Result<uint64_t> start = client.Start(out.query_id);
    ++samples->attempted;
    if (start.ok()) {
      started = true;
      session = start.value();
      Result<std::vector<int>> page = client.Query(session, kDepth);
      ++samples->attempted;
      if (page.ok()) {
        ok = true;
        out.first_page = std::move(page).value();
        ++samples->queries_ok;
        if (client.degraded()) ++samples->degraded;
      }
    }
  }
  if (ok) {
    const int64_t now = NowNs();
    samples->first_page.push_back({now, static_cast<double>(now - t0) / 1e3});
  } else {
    ++samples->failed;
  }

  std::vector<int> page = out.first_page;
  std::unordered_set<int> judged{out.query_id};
  const int query_category =
      plan.categories[static_cast<size_t>(out.query_id)];
  for (int r = 0; r < kRounds && ok; ++r) {
    std::vector<logdb::LogEntry> round;
    for (int id : page) {
      if (static_cast<int>(round.size()) >= kJudgments) break;
      if (!judged.insert(id).second) continue;
      round.push_back(
          logdb::LogEntry{id, plan.user->Judge(id, query_category, &rng)});
    }
    NewRequest();
    const int64_t t = NowNs();
    Result<std::vector<int>> next = Status::Internal("unset");
    {
      Span span("client.round");
      next = client.Feedback(session, round, kDepth);
    }
    ++samples->attempted;
    out.rounds.push_back(std::move(round));
    if (!next.ok()) {
      ++samples->failed;
      ok = false;
      break;
    }
    const int64_t now = NowNs();
    samples->round.push_back({now, static_cast<double>(now - t) / 1e3});
    ++samples->feedbacks_ok;
    if (client.degraded()) ++samples->degraded;
    page = std::move(next).value();
  }
  if (started) {
    NewRequest();
    Status end;
    {
      Span span("client.end");
      end = client.End(session);
    }
    ++samples->attempted;
    if (!end.ok()) {
      ++samples->failed;
      ok = false;
    }
  }
  out.ok = ok;
  if (ok) {
    out.final_page = std::move(page);
    samples->session_end.push_back(NowNs());
  }
  return out;
}

}  // namespace

LoopResult RunClosedLoop(
    const std::vector<std::unique_ptr<SessionClient>>& clients,
    const SessionPlan& plan, double seconds, uint64_t min_sessions,
    uint64_t keep) {
  LoopResult out;
  out.kept.resize(keep);
  std::vector<ClientSamples> per_client(clients.size());
  std::atomic<uint64_t> next{0};

  out.usage_before = ReadUsage();
  out.host_before = ReadHostCpu();
  out.windows = std::make_unique<Windows>(seconds, WindowCount(seconds));
  const int64_t deadline = out.windows->end_ns();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      ClientSamples& samples = per_client[c];
      samples.first_page.reserve(1 << 16);
      samples.round.reserve(1 << 17);
      samples.session_end.reserve(1 << 16);
      while (NowNs() < deadline || next.load() < min_sessions) {
        const uint64_t s = next.fetch_add(1);
        SessionResult r = RunSession(*clients[c], plan, s, &samples);
        if (s < keep) out.kept[s] = std::move(r);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  out.windows->Join();
  out.usage_after = ReadUsage();
  out.host_after = ReadHostCpu();
  out.sessions = next.load();

  ClientSamples& all = out.samples;
  for (const ClientSamples& s : per_client) {
    all.first_page.insert(all.first_page.end(), s.first_page.begin(),
                          s.first_page.end());
    all.round.insert(all.round.end(), s.round.begin(), s.round.end());
    all.session_end.insert(all.session_end.end(), s.session_end.begin(),
                           s.session_end.end());
    all.attempted += s.attempted;
    all.failed += s.failed;
    all.degraded += s.degraded;
    all.feedbacks_ok += s.feedbacks_ok;
    all.queries_ok += s.queries_ok;
  }
  return out;
}

std::vector<SessionResult> ReplaySessions(SessionClient& client,
                                          const SessionPlan& plan,
                                          uint64_t count) {
  std::vector<SessionResult> out;
  ClientSamples ignored;
  for (uint64_t s = 0; s < count; ++s) {
    out.push_back(RunSession(client, plan, s, &ignored));
  }
  return out;
}

uint64_t PageDigest(const std::vector<SessionResult>& sessions) {
  uint64_t d = 0xCBF29CE484222325ull;
  for (const SessionResult& s : sessions) {
    d = Mix(d, s.ok ? 1 : 0);
    d = Mix(d, static_cast<uint64_t>(s.query_id));
    d = Mix(d, s.final_page.size());
    for (int id : s.final_page) d = Mix(d, static_cast<uint64_t>(id));
  }
  return d;
}

namespace {

double PrecisionAt(const SessionResult& s, const std::vector<int>& categories,
                   int n) {
  const int query_category = categories[static_cast<size_t>(s.query_id)];
  int hits = 0;
  for (int i = 0; i < n && i < static_cast<int>(s.final_page.size()); ++i) {
    if (categories[static_cast<size_t>(s.final_page[static_cast<size_t>(i)])] ==
        query_category) {
      ++hits;
    }
  }
  return static_cast<double>(hits) / n;
}

}  // namespace

double MeanP20(const std::vector<SessionResult>& sessions,
               const std::vector<int>& categories) {
  if (sessions.empty()) return 0.0;
  double sum = 0.0;
  for (const SessionResult& s : sessions) sum += PrecisionAt(s, categories, 20);
  return sum / static_cast<double>(sessions.size());
}

double MeanScopePrecision(const std::vector<SessionResult>& sessions,
                          const std::vector<int>& categories) {
  if (sessions.empty()) return 0.0;
  double sum = 0.0;
  for (const SessionResult& s : sessions) {
    for (int scope : {20, 30, 40}) sum += PrecisionAt(s, categories, scope);
  }
  return sum / (3.0 * static_cast<double>(sessions.size()));
}

serve::ServiceOptions ServingOptions(const std::string& scheme) {
  serve::ServiceOptions o;
  o.scheme = scheme;
  o.default_k = kPageK;
  o.candidate_depth = kDepth;
  o.sessions.max_sessions = 4096;
  o.cache.capacity = 4096;
  return o;
}

logdb::LogStore SeedLog(const retrieval::ImageDatabase& db, uint64_t seed) {
  logdb::LogCollectionOptions options;
  options.num_sessions = kLogSessions;
  options.session_size = 20;
  options.user.noise_rate = kJudgmentNoise;
  options.seed = seed;
  return logdb::CollectLogs(db.features(), db.categories(), options);
}

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Default().GetCounter(name)->value();
}

// ---------------------------------------------------------- routed stack --

uint64_t TimingHandler::KeyOf(const api::Request& request) {
  enum Tag : uint64_t { kStart = 1, kFirstPage, kRound, kEnd };
  const auto query_of = [this](uint64_t session) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = session_query_.find(session);
    return it == session_query_.end() ? -1 : it->second;
  };
  const auto key = [](Tag tag, int query) {
    return query < 0 ? 0 : Mix(tag, static_cast<uint64_t>(query));
  };
  if (const auto* r = std::get_if<api::StartSessionRequest>(&request)) {
    return key(kStart, r->query.corpus_id);
  }
  if (const auto* r = std::get_if<api::CandidateRequest>(&request)) {
    return key(kFirstPage, r->query.corpus_id);
  }
  if (const auto* r = std::get_if<api::QueryRequest>(&request)) {
    return key(kFirstPage, query_of(r->session_id));
  }
  if (const auto* r = std::get_if<api::EndSessionRequest>(&request)) {
    return key(kEnd, query_of(r->session_id));
  }
  if (const auto* r = std::get_if<api::FeedbackRequest>(&request)) {
    uint64_t k = kRound;
    for (const logdb::LogEntry& e : r->round) {
      k = Mix(k, static_cast<uint64_t>(e.image_id) * 2 +
                     (e.judgment > 0 ? 1 : 0));
    }
    return k;
  }
  return 0;
}

api::Response TimingHandler::HandleRequest(const api::Request& request,
                                           const api::RequestEnvelope& envelope,
                                           int64_t elapsed_ms,
                                           api::ResponseContext* context) {
  size_t slot = 5;
  switch (request.index()) {
    case 0: slot = 0; break;  // StartSession
    case 1: slot = 1; break;  // Query
    case 2: slot = 2; break;  // Feedback
    case 3: slot = 3; break;  // EndSession
    case 7: slot = 4; break;  // Candidate
    default: break;
  }
  api::Response response = [&] {
    Span span(names_[slot], KeyOf(request));
    return inner_->HandleRequest(request, envelope, elapsed_ms, context);
  }();
  const auto* start = std::get_if<api::StartSessionRequest>(&request);
  const auto* started = std::get_if<api::StartSessionResponse>(&response);
  if (start != nullptr && started != nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    session_query_[started->session_id] = start->query.corpus_id;
  } else if (const auto* end = std::get_if<api::EndSessionRequest>(&request)) {
    std::lock_guard<std::mutex> lock(mu_);
    session_query_.erase(end->session_id);
  }
  return response;
}

namespace {

const std::vector<const char*> kRouterSpans = {
    "router.start", "router.query", "router.feedback",
    "router.end",   "router.candidates", "router.other"};
const std::vector<const char*> kShardSpans = {
    "shard.start", "shard.query", "shard.feedback",
    "shard.end",   "shard.candidates", "shard.other"};

}  // namespace

Result<std::unique_ptr<RoutedStack>> RoutedStack::Start(
    const retrieval::ImageDatabase* db, const la::Matrix* log_features,
    const logdb::LogStore& seed_log, const std::string& scheme,
    const std::string& dir, bool timed) {
  std::unique_ptr<RoutedStack> stack(new RoutedStack);
  std::vector<router::BackendEndpoint> endpoints;
  for (int i = 0; i < kShards; ++i) {
    auto shard = std::make_unique<Shard>();
    const std::string base = dir + "/shard" + std::to_string(i);
    auto store = logdb::LogStore::OpenDurable(base + ".snap", base + ".wal");
    if (!store.ok()) return store.status();
    shard->store = std::move(store).value();
    for (const logdb::LogSession& s : seed_log.sessions()) {
      shard->store.Append(s);
    }
    if (Status s = shard->store.Compact(); !s.ok()) return s;

    serve::ServiceOptions options = ServingOptions(scheme);
    options.first_session_id = 1 + static_cast<uint64_t>(i) * 1000000000ull;
    auto service = serve::RetrievalService::Create(
        db, log_features, &shard->store,
        core::MakeDefaultSchemeOptions(*db, log_features), options);
    if (!service.ok()) return service.status();
    shard->service = std::move(service).value();
    shard->dispatcher = std::make_unique<api::Dispatcher>(shard->service.get());
    api::RequestHandler* handler = shard->dispatcher.get();
    if (timed) {
      shard->timing = std::make_unique<TimingHandler>(handler, kShardSpans);
      handler = shard->timing.get();
    }
    shard->server =
        std::make_unique<net::TcpServer>(handler, net::TcpServerOptions{});
    if (Status s = shard->server->Start(); !s.ok()) return s;
    endpoints.push_back({"127.0.0.1", shard->server->port()});
    stack->shards_.push_back(std::move(shard));
  }
  stack->pool_ = std::make_unique<router::BackendPool>(
      endpoints, router::BackendPoolOptions{});
  if (Status s = stack->pool_->Start(); !s.ok()) return s;
  stack->router_ = std::make_unique<router::ShardRouter>(
      stack->pool_.get(), router::RouterOptions{});
  api::RequestHandler* handler = stack->router_.get();
  if (timed) {
    stack->timing_ = std::make_unique<TimingHandler>(handler, kRouterSpans);
    handler = stack->timing_.get();
  }
  stack->server_ =
      std::make_unique<net::TcpServer>(handler, net::TcpServerOptions{});
  if (Status s = stack->server_->Start(); !s.ok()) return s;
  return stack;
}

void RoutedStack::Stop() {
  // Front to back, so no tier is torn down under an in-flight request.
  if (server_ != nullptr) server_->Stop();
  if (pool_ != nullptr) pool_->Stop();
  for (auto& shard : shards_) {
    if (shard->server != nullptr) shard->server->Stop();
  }
}

serve::ServiceStats RoutedStack::shard_stats() const {
  serve::ServiceStats sum;
  for (const auto& shard : shards_) {
    const serve::ServiceStats s = shard->service->stats();
    sum.queries += s.queries;
    sum.feedbacks += s.feedbacks;
    sum.candidate_queries += s.candidate_queries;
    sum.requests += s.requests;
    sum.sessions_started += s.sessions_started;
    sum.sessions_ended += s.sessions_ended;
    sum.cache_hits += s.cache_hits;
    sum.cache_misses += s.cache_misses;
    sum.log_sessions_appended += s.log_sessions_appended;
  }
  const uint64_t lookups = sum.cache_hits + sum.cache_misses;
  sum.cache_hit_rate =
      lookups == 0 ? 0.0
                   : static_cast<double>(sum.cache_hits) /
                         static_cast<double>(lookups);
  return sum;
}

Status RoutedStack::wal_status() const {
  for (const auto& shard : shards_) {
    if (Status s = shard->store.wal_status(); !s.ok()) return s;
  }
  return Status::OK();
}

}  // namespace perfbench

#include "net/retrying_client.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

#include "obs/metrics.h"

namespace cbir::net {

namespace {

/// Registry twins of RetryingClientStats — aggregated across every client in
/// the process, where the struct is per-instance.
struct ClientMetrics {
  obs::Counter* rpcs;
  obs::Counter* attempts;
  obs::Counter* retries;
  obs::Counter* reconnects;
  obs::Counter* exhausted;
};

const ClientMetrics& RegistryCounters() {
  static const ClientMetrics metrics = [] {
    obs::MetricsRegistry& r = obs::MetricsRegistry::Default();
    ClientMetrics m;
    m.rpcs = r.GetCounter("cbir_client_rpcs_total");
    m.attempts = r.GetCounter("cbir_client_attempts_total");
    m.retries = r.GetCounter("cbir_client_retries_total");
    m.reconnects = r.GetCounter("cbir_client_reconnects_total");
    m.exhausted = r.GetCounter("cbir_client_rpcs_exhausted_total");
    return m;
  }();
  return metrics;
}

}  // namespace

RetryingClient::RetryingClient(std::string host, int port,
                               RetryOptions options, FaultInjector* injector)
    : host_(std::move(host)),
      port_(port),
      options_(options),
      injector_(injector),
      rng_state_(options.seed == 0 ? 1 : options.seed) {}

double RetryingClient::NextUniform() {
  rng_state_ += 0x9E3779B97F4A7C15ull;
  uint64_t z = rng_state_;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

Result<TcpClient*> RetryingClient::EnsureConnected() {
  if (client_.has_value() && client_->connected()) return &*client_;
  if (client_.has_value()) {
    client_.reset();
    ++stats_.reconnects;
    RegistryCounters().reconnects->Increment();
  }
  CBIR_ASSIGN_OR_RETURN(
      TcpClient client,
      TcpClient::Connect(host_, port_, options_.connect_timeout_ms));
  if (options_.rpc_timeout_ms > 0) {
    CBIR_RETURN_NOT_OK(client.ArmDeadlines(options_.rpc_timeout_ms));
  }
  client.set_fault_injector(injector_);
  if (options_.checksum) client.EnableChecksum();
  client_.emplace(std::move(client));
  return &*client_;
}

bool RetryingClient::ShouldRetry(const Status& status, bool* reconnect) {
  switch (status.code()) {
    case StatusCode::kUnavailable:
      // The server shed us on purpose; the connection itself is healthy.
      *reconnect = false;
      return true;
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kIoError:
      // A lost reply, a dead server, or a reset stream: the connection may
      // be desynchronized (a late reply to the timed-out request could be
      // mistaken for the retry's), so always rebuild it.
      *reconnect = true;
      return true;
    case StatusCode::kDataLoss:
      // A frame failed its CRC — the bytes on this connection cannot be
      // trusted, so rebuild and resend (idempotency seq makes that safe
      // even for Feedback).
      *reconnect = true;
      return true;
    default:
      return false;
  }
}

void RetryingClient::Backoff(int attempt) {
  const double cap = static_cast<double>(options_.max_backoff_ms);
  const double grown = static_cast<double>(options_.initial_backoff_ms) *
                       std::pow(2.0, attempt);
  const double ceiling = std::min(cap, grown);
  const int sleep_ms = static_cast<int>(NextUniform() * ceiling);
  if (sleep_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
  }
}

template <typename T, typename Fn>
Result<T> RetryingClient::WithRetry(Fn&& fn) {
  ++stats_.rpcs;
  RegistryCounters().rpcs->Increment();
  Result<T> out = Status::Internal("retrying client: no attempt ran");
  const int attempts = std::max(options_.max_attempts, 1);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      ++stats_.retries;
      RegistryCounters().retries->Increment();
      Backoff(attempt - 1);
    }
    ++stats_.attempts;
    RegistryCounters().attempts->Increment();
    Result<TcpClient*> client = EnsureConnected();
    out = client.ok() ? fn(*client.value()) : Result<T>(client.status());
    if (out.ok()) return out;
    bool reconnect = false;
    if (!ShouldRetry(out.status(), &reconnect)) return out;
    if (reconnect && client_.has_value()) {
      client_->Close();  // EnsureConnected rebuilds on the next attempt
    }
  }
  ++stats_.exhausted;
  RegistryCounters().exhausted->Increment();
  return out;
}

Result<uint64_t> RetryingClient::StartSession(const api::QuerySpec& query) {
  return WithRetry<uint64_t>(
      [&](TcpClient& client) { return client.StartSession(query); });
}

Result<std::vector<int>> RetryingClient::Query(uint64_t session_id, int k) {
  return WithRetry<std::vector<int>>(
      [&](TcpClient& client) { return client.Query(session_id, k); });
}

Result<std::vector<int>> RetryingClient::Feedback(
    uint64_t session_id, const std::vector<logdb::LogEntry>& round, int k,
    uint32_t seq) {
  // One seq per *logical* call: every wire attempt of this Feedback carries
  // the same number, so the service applies it at most once no matter how
  // many retries it takes to hear the answer. A caller-supplied (nonzero)
  // seq takes precedence — the router's per-session counter.
  if (seq == 0) {
    seq = next_seq_++;
    if (next_seq_ == 0) next_seq_ = 1;  // 0 means "no seq" on the wire
  }
  return WithRetry<std::vector<int>>([&](TcpClient& client) {
    return client.Feedback(session_id, round, k, seq);
  });
}

Status RetryingClient::EndSession(uint64_t session_id) {
  // A retried EndSession whose original landed gets NotFound back — the
  // session is gone, which is exactly what the caller asked for.
  Result<bool> out = WithRetry<bool>([&](TcpClient& client) -> Result<bool> {
    CBIR_RETURN_NOT_OK(client.EndSession(session_id));
    return true;
  });
  return out.ok() ? Status::OK() : out.status();
}

Result<api::StatsResponse> RetryingClient::Stats() {
  return WithRetry<api::StatsResponse>(
      [&](TcpClient& client) { return client.Stats(); });
}

Result<api::MetricsResponse> RetryingClient::Metrics() {
  return WithRetry<api::MetricsResponse>(
      [&](TcpClient& client) { return client.Metrics(); });
}

Result<api::DescribeResponse> RetryingClient::Describe() {
  return WithRetry<api::DescribeResponse>(
      [&](TcpClient& client) { return client.Describe(); });
}

Result<std::vector<api::Candidate>> RetryingClient::Candidates(
    const api::QuerySpec& query, int k) {
  return WithRetry<std::vector<api::Candidate>>(
      [&](TcpClient& client) { return client.Candidates(query, k); });
}

}  // namespace cbir::net

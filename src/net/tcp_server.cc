#include "net/tcp_server.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "api/codec.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stopwatch.h"

namespace cbir::net {

namespace {

/// Registry series the transport writes. Looked up once (registration takes
/// the registry mutex); every update after that is a relaxed fetch_add.
struct NetMetrics {
  obs::Counter* connections_accepted;
  obs::Counter* connections_closed;
  obs::Counter* connections_reaped_idle;
  obs::Counter* requests;
  obs::Counter* responses_error;
  obs::Counter* decode_errors;
  obs::Counter* bytes_read;
  obs::Counter* bytes_written;
  obs::LatencyHistogram* stage_decode;
  obs::LatencyHistogram* stage_encode;
  obs::LatencyHistogram* stage_write;
  obs::LatencyHistogram* request_us;
};

const NetMetrics& Metrics() {
  static const NetMetrics metrics = [] {
    obs::MetricsRegistry& r = obs::MetricsRegistry::Default();
    NetMetrics m;
    m.connections_accepted =
        r.GetCounter("cbir_net_connections_accepted_total");
    m.connections_closed = r.GetCounter("cbir_net_connections_closed_total");
    m.connections_reaped_idle =
        r.GetCounter("cbir_net_connections_reaped_idle_total");
    m.requests = r.GetCounter("cbir_net_requests_total");
    m.responses_error = r.GetCounter("cbir_net_responses_error_total");
    m.decode_errors = r.GetCounter("cbir_net_decode_errors_total");
    m.bytes_read = r.GetCounter("cbir_net_bytes_read_total");
    m.bytes_written = r.GetCounter("cbir_net_bytes_written_total");
    m.stage_decode = r.GetHistogram("cbir_request_stage_us", "stage", "decode");
    m.stage_encode = r.GetHistogram("cbir_request_stage_us", "stage", "encode");
    m.stage_write = r.GetHistogram("cbir_request_stage_us", "stage", "write");
    m.request_us = r.GetHistogram("cbir_net_request_us");
    r.SetHelp("cbir_net_requests_total",
              "Requests fully served (decoded, dispatched, response "
              "written).");
    r.SetHelp("cbir_net_responses_error_total",
              "Responses written with a non-OK wire status, including "
              "deadline sheds and decode-error replies.");
    r.SetHelp("cbir_net_decode_errors_total",
              "Frames that failed to decode (connection closed after).");
    r.SetHelp("cbir_net_request_us",
              "End-to-end server latency per request, decode through "
              "socket write.");
    r.SetHelp("cbir_request_stage_us",
              "Per-stage request latency, labeled by stage.");
    return m;
  }();
  return metrics;
}

/// Every response alternative carries a `status` field; this is the one
/// place the transport needs it generically (error accounting + the flight
/// recorder's capture policy).
const api::WireStatus& StatusOf(const api::Response& response) {
  return *std::visit(
      [](const auto& message) { return &message.status; }, response);
}

/// Server-side trace ids for requests whose client sent none: a counter fed
/// through a 64-bit mix (splitmix64 finalizer) so ids are unique and don't
/// collide with small client-chosen ids.
uint64_t GenerateTraceId() {
  static std::atomic<uint64_t> next{1};
  uint64_t x = next.fetch_add(1, std::memory_order_relaxed);
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

TcpServer::TcpServer(api::RequestHandler* handler, TcpServerOptions options)
    : handler_(handler),
      options_(std::move(options)) {}

TcpServer::~TcpServer() { Stop(); }

Status TcpServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("tcp server: already started");
  }
  CBIR_ASSIGN_OR_RETURN(
      listener_,
      Socket::ListenTcp(options_.host, options_.port, options_.backlog));
  port_ = listener_.local_port();
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void TcpServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  // Unblock accept(); the loop sees stopping_ and exits.
  listener_.Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
  // Graceful drain. Idle connections (parked in recv between frames) are
  // unblocked immediately — there is no response in flight to tear. Busy
  // ones are left alone for up to drain_timeout_ms so the response frame
  // they are computing or writing reaches the wire whole; after each
  // finishes its current request it sees stopping_ and exits on its own.
  {
    util::MutexLock lock(connections_mu_);
    for (auto& connection : connections_) {
      if (!connection->busy.load(std::memory_order_acquire)) {
        connection->socket.Shutdown();
      }
    }
  }
  const auto drain_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(std::max(options_.drain_timeout_ms, 0));
  for (;;) {
    bool any_busy = false;
    {
      util::MutexLock lock(connections_mu_);
      for (auto& connection : connections_) {
        if (!connection->done.load(std::memory_order_acquire) &&
            connection->busy.load(std::memory_order_acquire)) {
          any_busy = true;
          break;
        }
      }
    }
    if (!any_busy || std::chrono::steady_clock::now() >= drain_deadline) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Hard stop for whatever outlived the drain window, then join everything.
  std::vector<std::unique_ptr<Connection>> to_join;
  {
    util::MutexLock lock(connections_mu_);
    for (auto& connection : connections_) connection->socket.Shutdown();
    to_join.swap(connections_);
  }
  for (auto& connection : to_join) {
    if (connection->thread.joinable()) connection->thread.join();
  }
}

void TcpServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    Result<Socket> accepted = listener_.Accept();
    if (!accepted.ok()) {
      if (stopping_.load(std::memory_order_acquire)) break;
      // Transient accept failure (e.g. EMFILE when fds run out): reap
      // finished connections — that releases their fds — and back off
      // instead of busy-spinning on the failing accept.
      {
        util::MutexLock lock(connections_mu_);
        ReapFinishedLocked();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    const uint64_t connection_id =
        connections_accepted_.fetch_add(1, std::memory_order_relaxed) + 1;
    Metrics().connections_accepted->Increment();
    if (options_.connection_observer) {
      options_.connection_observer("accepted", connection_id);
    }
    auto connection = std::make_unique<Connection>();
    connection->socket = std::move(accepted).value();
    connection->id = connection_id;
    Connection* raw = connection.get();
    {
      util::MutexLock lock(connections_mu_);
      ReapFinishedLocked();
      connections_.push_back(std::move(connection));
    }
    // The thread starts after the connection is registered so Stop() can
    // always see (and shut down) every socket a live thread reads from.
    raw->thread = std::thread([this, raw] { ServeConnection(raw); });
  }
}

void TcpServer::ReapFinishedLocked() {
  for (size_t i = 0; i < connections_.size();) {
    if (connections_[i]->done.load(std::memory_order_acquire)) {
      if (connections_[i]->thread.joinable()) connections_[i]->thread.join();
      connections_[i] = std::move(connections_.back());
      connections_.pop_back();
    } else {
      ++i;
    }
  }
}

void TcpServer::ServeConnection(Connection* connection) {
  const Socket& socket = connection->socket;
  if (options_.idle_timeout_ms > 0) {
    // The reaper needs no extra thread: the kernel timeout turns a silent
    // peer into a kDeadlineExceeded on the next header read.
    socket.SetReadTimeout(options_.idle_timeout_ms);
  }
  std::vector<uint8_t> header(api::kFrameHeaderBytes);
  std::vector<uint8_t> body;
  while (!stopping_.load(std::memory_order_acquire)) {
    bool clean_eof = false;
    if (const Status s =
            socket.ReadFully(header.data(), header.size(), &clean_eof);
        !s.ok() || clean_eof) {
      if (s.code() == StatusCode::kDeadlineExceeded) {
        // No frame within the idle window (or one trickling impossibly
        // slowly): reap the connection, freeing its thread and fd.
        connections_reaped_idle_.fetch_add(1, std::memory_order_relaxed);
        Metrics().connections_reaped_idle->Increment();
        if (options_.connection_observer) {
          options_.connection_observer("reaped_idle", connection->id);
        }
      }
      break;  // disconnect (clean between frames, or torn — either way done)
    }
    Metrics().bytes_read->Increment(header.size());
    Result<api::FrameHeader> frame =
        api::DecodeFrameHeader(header.data(), header.size());
    Result<api::Request> request =
        Status::Internal("tcp server: request not decoded");
    api::RequestEnvelope envelope;
    uint64_t decode_us = 0;
    if (frame.ok()) {
      body.resize(frame->body_size);
      if (!socket.ReadFully(body.data(), body.size()).ok()) break;
      Metrics().bytes_read->Increment(body.size());
      const Stopwatch decode_watch;
      request =
          api::DecodeRequestBody(*frame, body.data(), body.size(), &envelope);
      decode_us = static_cast<uint64_t>(decode_watch.ElapsedSeconds() * 1e6);
      Metrics().stage_decode->Record(static_cast<double>(decode_us));
    } else {
      request = frame.status();
    }
    // The frame is fully read: from here to the end of the response write
    // the connection is busy, and Stop()'s drain leaves it alone.
    connection->busy.store(true, std::memory_order_release);
    const Stopwatch dispatch_watch;
    if (!request.ok()) {
      // Malformed frame: answer with the typed error, then close — after a
      // framing error the byte stream cannot be resynchronized.
      decode_errors_.fetch_add(1, std::memory_order_relaxed);
      Metrics().decode_errors->Increment();
      Metrics().responses_error->Increment();
      api::ErrorResponse error;
      error.status = api::ToWireStatus(request.status());
      if (options_.flight_recorder != nullptr) {
        // Even an undecodable frame leaves a flight record (error capture
        // is 100%): a server-generated trace id, the decode span, and the
        // raw type byte the frame claimed (0 when the header itself died).
        obs::RequestTrace trace(GenerateTraceId());
        trace.AddSpan("decode", 0, decode_us, 0);
        options_.flight_recorder->Record(
            trace, frame.ok() ? static_cast<uint8_t>(frame->type) : 0,
            error.status.code, decode_us);
      }
      const std::vector<uint8_t> reply =
          api::EncodeResponse(api::Response(std::move(error)));
      socket.WriteAll(reply.data(), reply.size());  // best-effort
      connection->busy.store(false, std::memory_order_release);
      break;
    }
    // The request's span tree: the client's trace id when the envelope
    // carries one, a server-generated id otherwise (every slow-log line has
    // an id to grep for either way). TraceScope makes it the thread's
    // current trace, so the serve layer's spans attach without the trace
    // being threaded through the dispatcher's signatures.
    obs::RequestTrace trace(envelope.has_trace_id ? envelope.trace_id
                                                  : GenerateTraceId());
    trace.AddSpan("decode", 0, decode_us, 0);
    bool wrote = false;
    uint64_t total_us = 0;
    uint32_t status_code = 0;
    {
      obs::TraceScope trace_scope(&trace);
      api::ResponseContext context;
      const api::Response response = handler_->HandleRequest(
          request.value(), envelope,
          static_cast<int64_t>(dispatch_watch.ElapsedSeconds() * 1e3),
          &context);
      status_code = StatusOf(response).code;
      // The response's transport flags: degraded when the handler says so,
      // the checksum trailer echoed whenever the request carried one.
      api::ResponseFrameOptions frame_options;
      frame_options.degraded = context.degraded;
      frame_options.checksum = envelope.has_checksum;
      api::ResponseProfile profile;
      std::vector<uint8_t> reply;
      {
        obs::ScopedSpan span("encode", Metrics().stage_encode);
        if (envelope.has_profile) {
          // EXPLAIN: serialize the trace as it stands — every stage up to
          // and including solve; encode/write have not happened yet and so
          // cannot appear in their own payload.
          profile.trace_id = trace.trace_id();
          profile.total_us = decode_us + trace.elapsed_us();
          profile.spans.reserve(trace.spans().size());
          for (const obs::TraceSpan& s : trace.spans()) {
            profile.spans.push_back(
                {s.name, s.start_us, s.duration_us,
                 static_cast<uint8_t>(std::clamp(s.depth, 0, 255))});
          }
          profile.counters.reserve(trace.counters().size());
          for (const obs::TraceCounter& c : trace.counters()) {
            profile.counters.push_back({c.name, c.value});
          }
          frame_options.profile = &profile;
        }
        reply = api::EncodeResponse(response, frame_options);
      }
      if (reply.size() > api::kFrameHeaderBytes + api::kMaxFrameBody) {
        // The peer's decoder would reject this frame and desynchronize; send
        // a typed error of bounded size instead (e.g. a full-corpus ranking
        // at many millions of rows — ask for a smaller k / bounded depth).
        api::ErrorResponse too_big;
        too_big.status = api::ToWireStatus(Status::OutOfRange(
            "tcp server: response frame exceeds the protocol body limit"));
        status_code = too_big.status.code;
        api::ResponseFrameOptions error_options;
        error_options.checksum = envelope.has_checksum;
        reply = api::EncodeResponse(api::Response(std::move(too_big)),
                                    error_options);
      }
      {
        obs::ScopedSpan span("write", Metrics().stage_write);
        wrote = socket.WriteAll(reply.data(), reply.size()).ok();
      }
      if (wrote) Metrics().bytes_written->Increment(reply.size());
      total_us = decode_us + trace.elapsed_us();
    }
    connection->busy.store(false, std::memory_order_release);
    if (!wrote) break;
    requests_served_.fetch_add(1, std::memory_order_relaxed);
    Metrics().requests->Increment();
    if (status_code != 0) Metrics().responses_error->Increment();
    Metrics().request_us->Record(static_cast<double>(total_us));
    if (options_.flight_recorder != nullptr) {
      options_.flight_recorder->Record(
          trace, static_cast<uint8_t>(api::TypeOf(request.value())),
          status_code, total_us);
    }
  }
  // Shutdown (not Close) so the peer sees EOF now; Stop() may concurrently
  // Shutdown the same fd, which is safe where a close/reuse race is not.
  // The fd itself is released when the connection is reaped or at Stop().
  socket.Shutdown();
  connections_closed_.fetch_add(1, std::memory_order_relaxed);
  Metrics().connections_closed->Increment();
  if (options_.connection_observer) {
    options_.connection_observer("closed", connection->id);
  }
  connection->done.store(true, std::memory_order_release);
}

TcpServerStats TcpServer::stats() const {
  TcpServerStats stats;
  stats.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  stats.connections_closed =
      connections_closed_.load(std::memory_order_relaxed);
  stats.connections_reaped_idle =
      connections_reaped_idle_.load(std::memory_order_relaxed);
  stats.requests_served = requests_served_.load(std::memory_order_relaxed);
  stats.decode_errors = decode_errors_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace cbir::net

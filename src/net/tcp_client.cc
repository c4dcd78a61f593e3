#include "net/tcp_client.h"

#include <atomic>
#include <string>
#include <utility>
#include <variant>

namespace cbir::net {

namespace {

/// Unwraps the expected response alternative: a transport-level
/// ErrorResponse or a non-OK wire status becomes the equivalent typed
/// Status; a different alternative means the peer broke the in-order
/// protocol.
template <typename Expected>
Result<Expected> Expect(Result<api::Response> response) {
  if (!response.ok()) return response.status();
  if (const auto* error = std::get_if<api::ErrorResponse>(&response.value())) {
    return api::FromWireStatus(error->status);
  }
  auto* typed = std::get_if<Expected>(&response.value());
  if (typed == nullptr) {
    return Status::Internal("tcp client: unexpected response type");
  }
  if (!typed->status.ok()) return api::FromWireStatus(typed->status);
  return std::move(*typed);
}

std::vector<int> FromWireRanking(const std::vector<int32_t>& ranking) {
  return std::vector<int>(ranking.begin(), ranking.end());
}

}  // namespace

Result<TcpClient> TcpClient::Connect(const std::string& host, int port,
                                     int connect_timeout_ms) {
  CBIR_ASSIGN_OR_RETURN(Socket socket,
                        Socket::ConnectTcp(host, port, connect_timeout_ms));
  return TcpClient(std::move(socket));
}

Result<TcpClient> TcpClient::ConnectEndpoint(const std::string& endpoint,
                                             int connect_timeout_ms) {
  const size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == endpoint.size()) {
    return Status::InvalidArgument(
        "tcp client: endpoint must be host:port, got '" + endpoint + "'");
  }
  int port = 0;
  try {
    port = std::stoi(endpoint.substr(colon + 1));
  } catch (...) {
    return Status::InvalidArgument("tcp client: bad port in '" + endpoint +
                                   "'");
  }
  return Connect(endpoint.substr(0, colon), port, connect_timeout_ms);
}

Status TcpClient::ArmDeadlines(int rpc_timeout_ms) {
  if (!socket_.valid()) {
    return Status::FailedPrecondition("tcp client: not connected");
  }
  CBIR_RETURN_NOT_OK(socket_.SetReadTimeout(rpc_timeout_ms));
  CBIR_RETURN_NOT_OK(socket_.SetWriteTimeout(rpc_timeout_ms));
  rpc_timeout_ms_ = rpc_timeout_ms;
  return Status::OK();
}

api::RequestEnvelope TcpClient::BaseEnvelope() {
  api::RequestEnvelope envelope;
  if (rpc_timeout_ms_ > 0) {
    envelope.has_deadline = true;
    envelope.deadline_ms = static_cast<uint32_t>(rpc_timeout_ms_);
  }
  if (tracing_) {
    // Client-chosen ids: a counter mixed through the splitmix64 finalizer,
    // so concurrent clients rarely collide and the id is greppable in the
    // server's flight recorder.
    static std::atomic<uint64_t> next{1};
    uint64_t x = next.fetch_add(1, std::memory_order_relaxed);
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    x ^= x >> 31;
    if (x == 0) x = 1;
    envelope.has_trace_id = true;
    envelope.trace_id = x;
    last_trace_id_ = x;
  }
  if (profiling_) envelope.has_profile = true;
  if (checksum_) envelope.has_checksum = true;
  return envelope;
}

Status TcpClient::Send(const api::Request& request) {
  return Send(request, api::RequestEnvelope{});
}

Status TcpClient::Send(const api::Request& request,
                       const api::RequestEnvelope& envelope) {
  if (!socket_.valid()) {
    return Status::FailedPrecondition("tcp client: not connected");
  }
  const std::vector<uint8_t> frame = api::EncodeRequest(request, envelope);
  if (frame.size() > api::kFrameHeaderBytes + api::kMaxFrameBody) {
    // The server would reject the frame and close; fail locally with the
    // same typed error instead of desynchronizing the stream.
    return Status::OutOfRange(
        "tcp client: request frame exceeds the protocol body limit");
  }
  if (injector_ != nullptr) {
    return injector_->SendFrame(socket_, frame.data(), frame.size());
  }
  return socket_.WriteAll(frame.data(), frame.size());
}

Result<api::Response> TcpClient::Receive() {
  if (!socket_.valid()) {
    return Status::FailedPrecondition("tcp client: not connected");
  }
  std::vector<uint8_t> header(api::kFrameHeaderBytes);
  bool clean_eof = false;
  CBIR_RETURN_NOT_OK(
      socket_.ReadFully(header.data(), header.size(), &clean_eof));
  if (clean_eof) {
    return Status::IoError("tcp client: server closed the connection");
  }
  CBIR_ASSIGN_OR_RETURN(api::FrameHeader frame, api::DecodeFrameHeader(
                                                    header.data(),
                                                    header.size()));
  std::vector<uint8_t> body(frame.body_size);
  CBIR_RETURN_NOT_OK(socket_.ReadFully(body.data(), body.size()));
  // A profiled response (v2 + 0x08) refreshes last_profile_; any other
  // frame clears it, so the profile always describes the last response.
  // Likewise last_degraded_ always describes the last response.
  last_profile_.reset();
  last_degraded_ = false;
  api::ResponseProfile profile;
  bool degraded = false;
  Result<api::Response> response = api::DecodeResponseBody(
      frame, body.data(), body.size(), &profile, &degraded);
  if (response.ok() && (frame.flags & api::kFrameFlagProfile) != 0) {
    last_profile_ = std::move(profile);
  }
  if (response.ok()) last_degraded_ = degraded;
  return response;
}

Result<api::Response> TcpClient::Call(const api::Request& request) {
  return Call(request, BaseEnvelope());
}

Result<api::Response> TcpClient::Call(const api::Request& request,
                                      const api::RequestEnvelope& envelope) {
  CBIR_RETURN_NOT_OK(Send(request, envelope));
  return Receive();
}

Result<uint64_t> TcpClient::StartSession(const api::QuerySpec& query) {
  api::StartSessionRequest request;
  request.query = query;
  CBIR_ASSIGN_OR_RETURN(
      api::StartSessionResponse response,
      Expect<api::StartSessionResponse>(Call(api::Request(request))));
  return response.session_id;
}

Result<std::vector<int>> TcpClient::Query(uint64_t session_id, int k) {
  api::QueryRequest request;
  request.session_id = session_id;
  request.k = static_cast<int32_t>(k);
  CBIR_ASSIGN_OR_RETURN(api::QueryResponse response,
                        Expect<api::QueryResponse>(Call(api::Request(request))));
  return FromWireRanking(response.ranking);
}

Result<std::vector<int>> TcpClient::Feedback(
    uint64_t session_id, const std::vector<logdb::LogEntry>& round, int k,
    uint32_t seq) {
  api::FeedbackRequest request;
  request.session_id = session_id;
  request.k = static_cast<int32_t>(k);
  request.round = round;
  api::RequestEnvelope envelope = BaseEnvelope();
  if (seq != 0) {
    envelope.has_seq = true;
    envelope.seq = seq;
  }
  CBIR_ASSIGN_OR_RETURN(
      api::FeedbackResponse response,
      Expect<api::FeedbackResponse>(
          Call(api::Request(std::move(request)), envelope)));
  return FromWireRanking(response.ranking);
}

Status TcpClient::EndSession(uint64_t session_id) {
  api::EndSessionRequest request;
  request.session_id = session_id;
  Result<api::EndSessionResponse> response =
      Expect<api::EndSessionResponse>(Call(api::Request(request)));
  return response.status();
}

Result<api::StatsResponse> TcpClient::Stats() {
  return Expect<api::StatsResponse>(Call(api::Request(api::StatsRequest{})));
}

Result<api::MetricsResponse> TcpClient::Metrics() {
  return Expect<api::MetricsResponse>(
      Call(api::Request(api::MetricsRequest{})));
}

Result<api::DescribeResponse> TcpClient::Describe() {
  return Expect<api::DescribeResponse>(
      Call(api::Request(api::DescribeRequest{})));
}

Result<std::vector<api::Candidate>> TcpClient::Candidates(
    const api::QuerySpec& query, int k) {
  api::CandidateRequest request;
  request.query = query;
  request.k = static_cast<int32_t>(k);
  CBIR_ASSIGN_OR_RETURN(
      api::CandidateResponse response,
      Expect<api::CandidateResponse>(Call(api::Request(std::move(request)))));
  return std::move(response.candidates);
}

}  // namespace cbir::net

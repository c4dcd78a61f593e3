#include "obs/exposition.h"

#include <utility>

namespace cbir::obs {

namespace {

/// How long the accept thread waits for a request line before falling back
/// to /metrics. Short enough that `nc host port < /dev/null` (which sends
/// nothing) barely notices, long enough for any real client's first packet.
constexpr int kRequestReadTimeoutMs = 250;
/// Upper bound on request bytes read (line + headers); a peer streaming
/// garbage is cut off here.
constexpr size_t kMaxRequestBytes = 4096;

/// Reads until the end of the HTTP request (blank line), EOF, the read
/// timeout, or the byte cap, and returns the first line. Draining the full
/// request head matters: responding and closing with unread bytes in the
/// receive buffer makes the kernel RST the connection, which can discard
/// the response before curl reads it.
std::string ReadRequestLine(const net::Socket& client) {
  std::string first_line;
  bool have_line = false;
  std::string tail;  // last 4 bytes, to spot the blank line
  for (size_t i = 0; i < kMaxRequestBytes; ++i) {
    char byte = 0;
    bool eof = false;
    if (!client.ReadFully(&byte, 1, &eof).ok() || eof) break;
    if (!have_line) {
      if (byte == '\n') {
        have_line = true;
      } else if (byte != '\r') {
        first_line.push_back(byte);
      }
    }
    tail.push_back(byte);
    if (tail.size() > 4) tail.erase(tail.begin());
    if (tail == "\r\n\r\n" || (tail.size() >= 2 && tail.substr(tail.size() - 2) == "\n\n")) {
      break;
    }
  }
  return first_line;
}

/// "GET /statusz HTTP/1.0" -> "/statusz" (query string stripped); empty
/// when the line does not look like a request.
std::string ParsePath(const std::string& request_line) {
  const size_t sp1 = request_line.find(' ');
  if (sp1 == std::string::npos) return "";
  const size_t sp2 = request_line.find(' ', sp1 + 1);
  std::string path = sp2 == std::string::npos
                         ? request_line.substr(sp1 + 1)
                         : request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);
  return path;
}

}  // namespace

ExpositionServer::ExpositionServer(MetricsRegistry* registry,
                                   std::string host, int port)
    : registry_(registry), host_(std::move(host)), requested_port_(port) {}

ExpositionServer::~ExpositionServer() { Stop(); }

void ExpositionServer::SetHandler(const std::string& path, Handler handler) {
  handlers_[path] = std::move(handler);
}

void ExpositionServer::SetStatusHandler(const std::string& path,
                                        StatusHandler handler) {
  status_handlers_[path] = std::move(handler);
}

Status ExpositionServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("exposition server: already started");
  }
  CBIR_ASSIGN_OR_RETURN(
      listener_, net::Socket::ListenTcp(host_, requested_port_, 16));
  port_ = listener_.local_port();
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void ExpositionServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  listener_.Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
}

void ExpositionServer::ServeOne(const net::Socket& client) {
  // A scraper that stops draining must not wedge the accept loop, and a
  // peer that never sends a request line must still get /metrics.
  client.SetWriteTimeout(2000);
  client.SetReadTimeout(kRequestReadTimeoutMs);
  const std::string path = ParsePath(ReadRequestLine(client));

  const char* status_line = "200 OK";
  std::string body;
  std::string content_type = "text/plain; charset=utf-8";
  if (path.empty() || path == "/metrics" || path == "/") {
    // Prometheus' registered exposition-format version rides the
    // content type so real scrapers ingest it without content sniffing.
    body = registry_->RenderExposition();
    content_type = "text/plain; version=0.0.4";
  } else if (const auto sit = status_handlers_.find(path);
             sit != status_handlers_.end()) {
    StatusResult result = sit->second();
    if (result.code != 200) status_line = "503 Service Unavailable";
    body = std::move(result.body);
  } else if (const auto it = handlers_.find(path); it != handlers_.end()) {
    body = it->second();
  } else {
    status_line = "404 Not Found";
    body = "404 not found: " + path + "\n";
  }
  const std::string response =
      "HTTP/1.0 " + std::string(status_line) + "\r\n"
      "Content-Type: " + content_type + "\r\n"
      "Content-Length: " + std::to_string(body.size()) + "\r\n"
      "Connection: close\r\n"
      "\r\n" + body;
  // Counted before the write: a client that has read the whole response
  // must already see its scrape in scrapes().
  scrapes_.fetch_add(1, std::memory_order_relaxed);
  client.WriteAll(response.data(), response.size());  // best-effort
  client.Shutdown();
}

void ExpositionServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    Result<net::Socket> accepted = listener_.Accept();
    if (!accepted.ok()) {
      if (stopping_.load(std::memory_order_acquire)) break;
      continue;
    }
    const net::Socket client = std::move(accepted).value();
    ServeOne(client);
  }
}

}  // namespace cbir::obs

#include "obs/export.h"

#include <sys/socket.h>
#include <sys/time.h>

#include <cstdlib>
#include <utility>

#include "common/error.h"
#include "common/strings.h"
#include "obs/metrics.h"

namespace chaser::obs {

namespace {

/// A scraper that never sends a full request line should not pin a
/// connection slot forever: closed after this many idle loop rounds.
constexpr int kIdleRoundLimit = 10;

/// Requests are one GET line + a few headers; anything larger is abuse.
constexpr std::size_t kMaxRequestBytes = 8 * 1024;

std::string HttpMessage(int status, const std::string& content_type,
                        const std::string& body) {
  const char* reason = status == 200   ? "OK"
                       : status == 404 ? "Not Found"
                       : status == 400 ? "Bad Request"
                                       : "Error";
  std::string out = StrFormat("HTTP/1.0 %d %s\r\n", status, reason);
  out += "Content-Type: " + content_type + "\r\n";
  out += StrFormat("Content-Length: %zu\r\n", body.size());
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

/// A connection's request bytes until the blank line that ends them.
struct Request : net::Connection {
  std::string in;
};

}  // namespace

HttpResponse HttpGet(const std::string& host, std::uint16_t port,
                     const std::string& path, int timeout_ms) {
  net::TcpSocket sock = net::TcpSocket::Connect(host, port);
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  const std::string request = "GET " + path +
                              " HTTP/1.0\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  sock.SendAll(request.data(), request.size());
  std::string raw;
  char buf[16 * 1024];
  for (;;) {
    const std::size_t n = sock.Recv(buf, sizeof(buf));  // throws on timeout
    if (n == 0) break;
    raw.append(buf, n);
  }
  // "HTTP/1.x NNN ..." — we only need the code and the body.
  if (raw.size() < 12 || raw.compare(0, 5, "HTTP/") != 0) {
    throw ConfigError("obs: malformed HTTP response from " + host + ":" +
                      std::to_string(port) + path);
  }
  const std::size_t sp = raw.find(' ');
  HttpResponse resp;
  resp.status = std::atoi(raw.c_str() + sp + 1);
  const std::size_t blank = raw.find("\r\n\r\n");
  if (blank != std::string::npos) resp.body = raw.substr(blank + 4);
  return resp;
}

std::string TryScrape(const std::string& endpoint, const std::string& path,
                      int timeout_ms) {
  if (endpoint.empty()) return "";
  try {
    const net::Endpoint ep = net::ParseEndpoint(endpoint);
    const HttpResponse r = HttpGet(ep.host, ep.port, path, timeout_ms);
    if (r.status == 200) return r.body;
  } catch (const ChaserError&) {
  }
  return "";
}

bool PrometheusValue(const std::string& text, const std::string& series,
                     double* out) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    if (text.compare(pos, series.size(), series) == 0 &&
        pos + series.size() < eol && text[pos + series.size()] == ' ') {
      *out = std::strtod(text.c_str() + pos + series.size() + 1, nullptr);
      return true;
    }
    pos = eol + 1;
  }
  return false;
}

ExportServer::ExportServer(Options options)
    : options_(std::move(options)),
      loop_(options_.host, options_.port, this, kIdleRoundLimit) {}

std::string ExportServer::endpoint() const {
  return StrFormat("%s:%u", options_.host.c_str(),
                   static_cast<unsigned>(port()));
}

std::unique_ptr<net::Connection> ExportServer::OnConnect() {
  return std::make_unique<Request>();
}

bool ExportServer::OnRecv(net::Connection& conn, const char* data,
                          std::size_t n) {
  std::string& in = static_cast<Request&>(conn).in;
  in.append(data, n);
  if (in.size() > kMaxRequestBytes) return false;
  if (in.find("\r\n\r\n") != std::string::npos) {
    conn.out = Respond(in);
    conn.close_when_drained = true;  // HTTP/1.0 + Connection: close
  }
  return true;
}

std::string ExportServer::Respond(const std::string& request) {
  Registry& registry =
      options_.registry != nullptr ? *options_.registry : Registry::Global();
  // Request line: "GET <path> HTTP/1.x". Anything else is a 400; the path
  // decides the rest. The scrape itself is counted in the registry it
  // serves, so a dashboard can watch its own cost.
  const std::string line = request.substr(0, request.find("\r\n"));
  std::string path;
  if (line.compare(0, 4, "GET ") == 0) {
    const std::size_t sp = line.find(' ', 4);
    path = line.substr(4, sp == std::string::npos ? std::string::npos : sp - 4);
  }
  if (path.empty()) return HttpMessage(400, "text/plain", "bad request\n");
  if (path == "/metrics") {
    registry.GetCounter("obs_scrapes_total").Inc();
    return HttpMessage(200, "text/plain; version=0.0.4",
                       registry.ToPrometheus());
  }
  if (path == "/status") {
    if (!options_.status_body) {
      return HttpMessage(404, "text/plain", "no status source\n");
    }
    registry.GetCounter("obs_scrapes_total").Inc();
    return HttpMessage(200, "application/json", options_.status_body());
  }
  if (path == "/healthz") return HttpMessage(200, "text/plain", "ok\n");
  return HttpMessage(404, "text/plain", "unknown path\n");
}

}  // namespace chaser::obs

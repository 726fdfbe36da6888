#include "obs/export.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <utility>

#include "common/error.h"
#include "common/strings.h"
#include "obs/metrics.h"

namespace chaser::obs {

namespace {

/// A scraper that never sends a full request line should not pin a
/// connection slot forever: reaped after this many idle 500ms poll rounds.
constexpr int kIdleTickLimit = 10;

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

ExportServer::ExportServer(Options options) : options_(std::move(options)) {
  listener_ = net::TcpListener::Bind(options_.host, options_.port);
  port_ = listener_.port();
  net::SetNonBlocking(listener_.fd());
  if (::pipe(wake_pipe_) != 0) {
    listener_.Close();
    throw ConfigError("obs: export server pipe() failed");
  }
  net::SetNonBlocking(wake_pipe_[0]);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Loop(); });
}

ExportServer::~ExportServer() { Stop(); }

void ExportServer::Stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stop_requested_.store(true, std::memory_order_release);
  const char byte = 0;
  [[maybe_unused]] const ssize_t rc = ::write(wake_pipe_[1], &byte, 1);
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_release);
  conns_.clear();
  listener_.Close();
  for (int& fd : wake_pipe_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
}

std::string ExportServer::endpoint() const {
  return StrFormat("%s:%u", options_.host.c_str(),
                   static_cast<unsigned>(port_));
}

void ExportServer::BuildResponse(Connection& conn) {
  Registry& registry =
      options_.registry != nullptr ? *options_.registry : Registry::Global();
  // Request line: "GET <path> HTTP/1.x". Anything else is a 400; the path
  // decides the rest. The scrape itself is counted in the registry it
  // serves, so a dashboard can watch its own cost.
  const std::size_t eol = conn.in.find("\r\n");
  const std::string line =
      eol == std::string::npos ? conn.in : conn.in.substr(0, eol);
  std::string path;
  if (line.compare(0, 4, "GET ") == 0) {
    const std::size_t sp = line.find(' ', 4);
    path = line.substr(4, sp == std::string::npos ? std::string::npos : sp - 4);
  }
  if (path.empty()) {
    conn.out = HttpMessage(400, "text/plain", "bad request\n");
  } else if (path == "/metrics") {
    registry.GetCounter("obs_scrapes_total").Inc();
    conn.out = HttpMessage(200, "text/plain; version=0.0.4",
                           registry.ToPrometheus());
  } else if (path == "/status") {
    if (options_.status_body) {
      registry.GetCounter("obs_scrapes_total").Inc();
      conn.out = HttpMessage(200, "application/json", options_.status_body());
    } else {
      conn.out = HttpMessage(404, "text/plain", "no status source\n");
    }
  } else if (path == "/healthz") {
    conn.out = HttpMessage(200, "text/plain", "ok\n");
  } else {
    conn.out = HttpMessage(404, "text/plain", "unknown path\n");
  }
  conn.responded = true;
}

void ExportServer::FlushWrites(Connection& conn) {
  while (!conn.out.empty()) {
    const ssize_t rc = ::send(conn.sock.fd(), conn.out.data(), conn.out.size(),
                              MSG_NOSIGNAL);
    if (rc > 0) {
      conn.out.erase(0, static_cast<std::size_t>(rc));
      continue;
    }
    if (rc < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (rc < 0 && errno == EINTR) continue;
    conn.sock.Close();
    return;
  }
}

void ExportServer::Loop() {
  std::vector<pollfd> fds;
  char buf[16 * 1024];
  while (!stop_requested_.load(std::memory_order_acquire)) {
    fds.clear();
    fds.push_back({listener_.fd(), POLLIN, 0});
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    for (const auto& conn : conns_) {
      short events = POLLIN;
      if (!conn->out.empty()) events |= POLLOUT;
      fds.push_back({conn->sock.fd(), events, 0});
    }
    const std::size_t polled_conns = conns_.size();
    const int rc = ::poll(fds.data(), fds.size(), 500);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents & POLLIN) {
      while (::read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
      }
    }
    if (fds[0].revents & POLLIN) {
      for (;;) {
        const int cfd = listener_.Accept();
        if (cfd < 0) break;
        net::SetNonBlocking(cfd);
        auto conn = std::make_unique<Connection>();
        conn->sock = net::TcpSocket(cfd);
        conns_.push_back(std::move(conn));
      }
    }
    for (std::size_t i = 0; i < polled_conns; ++i) {
      Connection& conn = *conns_[i];
      const pollfd& pfd = fds[i + 2];
      bool drop = false;
      bool progressed = false;
      if (pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) drop = true;
      if (!drop && (pfd.revents & POLLIN) && !conn.responded) {
        for (;;) {
          const ssize_t n = ::recv(conn.sock.fd(), buf, sizeof(buf), 0);
          if (n > 0) {
            conn.in.append(buf, static_cast<std::size_t>(n));
            progressed = true;
            if (static_cast<ssize_t>(sizeof(buf)) != n) break;
            continue;
          }
          if (n == 0) {
            drop = true;  // EOF before a complete request
            break;
          }
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          if (errno == EINTR) continue;
          drop = true;
          break;
        }
        if (!drop && conn.in.size() > kMaxRequestBytes) drop = true;
        if (!drop && conn.in.find("\r\n\r\n") != std::string::npos) {
          BuildResponse(conn);
        }
      }
      if (!drop && !conn.out.empty()) {
        FlushWrites(conn);
        progressed = true;
      }
      if (!drop && !conn.sock.valid()) drop = true;
      // HTTP/1.0 + Connection: close — once the response drained, we close.
      if (!drop && conn.responded && conn.out.empty()) drop = true;
      if (!drop) {
        conn.idle_ticks = progressed ? 0 : conn.idle_ticks + 1;
        if (conn.idle_ticks > kIdleTickLimit) drop = true;
      }
      if (drop) {
        conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(i));
        --i;
        break;  // fds no longer lines up with conns_; next round rebuilds
      }
    }
  }
}

}  // namespace chaser::obs

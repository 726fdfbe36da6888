// Observability scrape endpoint: a tiny zero-dependency HTTP/1.0 server on
// the net socket layer, mounted in chaser_run / chaser_hubd behind
// --obs-port. It serves exactly three read-only paths:
//
//   /metrics   Prometheus text exposition rendered from an obs::Registry
//   /status    the campaign status.json payload (whatever the host process
//              would write to --status), rendered on demand
//   /healthz   "ok\n" — liveness for fleet supervisors and smoke scripts
//
// Design mirrors HubServer: one poll(2) event loop on a background thread
// owns every connection (wake pipe for Stop(), nonblocking listener,
// per-connection buffers). HTTP here is deliberately minimal — parse the
// request line of a GET, answer with Content-Length + Connection: close,
// drop the connection. No keep-alive, no TLS, no request bodies; scrapers
// (Prometheus, chaser_fleet, chaser_top, curl) all speak this subset.
//
// Identity-safety rule (DESIGN.md §5.5): the server only *reads* registry
// and status state. Campaign results are byte-identical whether or not the
// endpoint exists or anyone ever scrapes it.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.h"

namespace chaser::obs {

class Registry;

/// Minimal HTTP GET response: status code + body (headers are dropped).
struct HttpResponse {
  int status = 0;
  std::string body;
};

/// Blocking HTTP/1.0 GET of `path` from host:port with a receive deadline.
/// Throws ConfigError on connect failure, timeout, or a malformed status
/// line. This is the scrape client used by chaser_fleet and chaser_top.
HttpResponse HttpGet(const std::string& host, std::uint16_t port,
                     const std::string& path, int timeout_ms = 2000);

/// The body of a 200 answer to GET `path` from a "host:port" endpoint, or ""
/// on any failure: a dead or restarting worker is normal for a dashboard.
std::string TryScrape(const std::string& endpoint, const std::string& path,
                      int timeout_ms);

/// Looks up one series line ("name 42" or "name{k=\"v\"} 42") in Prometheus
/// text and parses its value. Returns false when the series is absent.
bool PrometheusValue(const std::string& text, const std::string& series,
                     double* out);

class ExportServer {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;  ///< 0 = ephemeral; see port() after start.
    /// Registry backing /metrics; nullptr means Registry::Global().
    Registry* registry = nullptr;
    /// Renders the /status body on demand. When unset, /status answers 404
    /// (hubd without a campaign still serves /metrics + /healthz).
    std::function<std::string()> status_body;
  };

  /// Binds, listens, and launches the event loop thread. Throws ConfigError
  /// if the bind fails (the thread is never started in that case).
  explicit ExportServer(Options options);
  ~ExportServer();

  ExportServer(const ExportServer&) = delete;
  ExportServer& operator=(const ExportServer&) = delete;

  void Stop();

  std::uint16_t port() const { return port_; }
  const std::string& host() const { return options_.host; }
  /// "host:port" as a scraper would dial it.
  std::string endpoint() const;

 private:
  struct Connection {
    net::TcpSocket sock;
    std::string in;        // request bytes until the blank line
    std::string out;       // response bytes not yet written
    bool responded = false;
    int idle_ticks = 0;    // poll rounds without progress; reaped at limit
  };

  void Loop();
  void BuildResponse(Connection& conn);
  void FlushWrites(Connection& conn);

  Options options_;
  net::TcpListener listener_;
  std::uint16_t port_ = 0;
  int wake_pipe_[2] = {-1, -1};
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::vector<std::unique_ptr<Connection>> conns_;
};

}  // namespace chaser::obs

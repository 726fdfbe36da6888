// Observability scrape endpoint: a tiny zero-dependency HTTP/1.0 server on
// the net socket layer, mounted in chaser_run / chaser_hubd behind
// --obs-port. It serves exactly three read-only paths:
//
//   /metrics   Prometheus text exposition rendered from an obs::Registry
//   /status    the campaign status.json payload (whatever the host process
//              would write to --status), rendered on demand
//   /healthz   "ok\n" — liveness for fleet supervisors and smoke scripts
//
// It runs on net::ServerLoop (net/server_loop.h), the poll(2) loop that
// also serves chaser_hubd's hub protocol, and adds only HTTP and three
// limits of its own: a request is at most 8 KiB, a connection idle for 10
// loop rounds (500 ms each when quiet) is closed, and every connection
// closes once its response has drained. HTTP here is deliberately minimal —
// parse the request line of a GET, answer with Content-Length +
// Connection: close. No keep-alive, no TLS, no request bodies; scrapers
// (Prometheus, chaser_fleet, chaser_top, curl) all speak this subset.
//
// Identity-safety rule (DESIGN.md §5.5): the server only *reads* registry
// and status state. Campaign results are byte-identical whether or not the
// endpoint exists or anyone ever scrapes it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "net/server_loop.h"

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

class ExportServer : private net::ServerLoop::Handler {
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

  /// Binds, listens, and starts serving. Throws ConfigError if the bind
  /// fails (nothing is started in that case).
  explicit ExportServer(Options options);

  ExportServer(const ExportServer&) = delete;
  ExportServer& operator=(const ExportServer&) = delete;

  void Stop() { loop_.Stop(); }

  std::uint16_t port() const { return loop_.port(); }
  const std::string& host() const { return options_.host; }
  /// "host:port" as a scraper would dial it.
  std::string endpoint() const;

 private:
  std::unique_ptr<net::Connection> OnConnect() override;
  bool OnRecv(net::Connection& conn, const char* data, std::size_t n) override;
  /// The whole response to a complete request.
  std::string Respond(const std::string& request);

  Options options_;
  /// Last: it starts after, and stops before, the state its calls read.
  net::ServerLoop loop_;
};

}  // namespace chaser::obs

// chaser_hubd — standalone TaintHub service.
//
// Runs a HubServer (hub/remote/server.h) in the foreground until SIGINT or
// SIGTERM, then prints its lifetime stats and exits. Shard workers connect
// with `chaser_run --hub HOST:PORT`; chaser_fleet spawns one automatically
// with --spawn-hub.
//
//   chaser_hubd                     # 127.0.0.1, ephemeral port
//   chaser_hubd --port 7707
//   chaser_hubd --hub-fault drop=0.05,retries=3,seed=9
//   chaser_hubd --obs-port 0        # + HTTP scrape endpoint
//
// The first stdout line is machine-readable so a parent process reading a
// pipe can learn the bound (possibly ephemeral) port; with --obs-port a
// second machine-readable line follows for the scrape endpoint:
//
//   chaser_hubd: listening on 127.0.0.1:43117
//   chaser_hubd: obs listening on 127.0.0.1:43118
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include <unistd.h>

#include "common/error.h"
#include "common/strings.h"
#include "hub/remote/protocol.h"
#include "hub/remote/server.h"
#include "obs/export.h"

namespace {

using namespace chaser;

volatile std::sig_atomic_t g_stop = 0;

void OnSignal(int) { g_stop = 1; }

void Usage() {
  std::printf(
      "usage: chaser_hubd [options]\n"
      "\n"
      "options:\n"
      "  --host H            bind address (default 127.0.0.1)\n"
      "  --port P            bind port (default 0 = ephemeral; the bound\n"
      "                      port is printed on the first stdout line)\n"
      "  --hub-fault SPEC    install a fault model in every new session;\n"
      "                      same spec as chaser_run --hub-fault\n"
      "  --obs-port P        also serve /metrics (Prometheus wire counters,\n"
      "                      per-command latency), /status (server stats\n"
      "                      JSON) and /healthz over HTTP on --host:P\n"
      "                      (0 = ephemeral, echoed on the second line)\n"
      "  --help              this text\n");
}

/// /status body for a hub daemon: the live ServerStats as JSON.
std::string HubStatusJson(const hub::remote::HubServer& server) {
  const hub::remote::ServerStats s = server.stats();
  return StrFormat(
      "{\"role\": \"hubd\", \"running\": %s, \"connections_accepted\": %llu, "
      "\"connections_dropped\": %llu, \"conn_errors\": %llu, "
      "\"hello_errors\": %llu, \"commands\": %llu, "
      "\"records_published\": %llu}\n",
      server.running() ? "true" : "false",
      static_cast<unsigned long long>(s.connections_accepted),
      static_cast<unsigned long long>(s.connections_dropped),
      static_cast<unsigned long long>(s.conn_errors),
      static_cast<unsigned long long>(s.hello_errors),
      static_cast<unsigned long long>(s.commands),
      static_cast<unsigned long long>(s.records_published));
}

}  // namespace

int main(int argc, char** argv) {
  hub::remote::HubServer::Options options;
  int obs_port = -1;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--host") {
        if (i + 1 >= argc) throw ConfigError("missing value for --host");
        options.host = argv[++i];
      } else if (a == "--port") {
        if (i + 1 >= argc) throw ConfigError("missing value for --port");
        std::uint64_t p = 0;
        if (!ParseU64(argv[++i], &p) || p > 65535) {
          throw ConfigError("--port expects 0..65535");
        }
        options.port = static_cast<std::uint16_t>(p);
      } else if (a == "--hub-fault") {
        if (i + 1 >= argc) throw ConfigError("missing value for --hub-fault");
        options.default_fault = hub::remote::ParseHubFaultSpec(argv[++i]);
      } else if (a == "--obs-port") {
        if (i + 1 >= argc) throw ConfigError("missing value for --obs-port");
        std::uint64_t p = 0;
        if (!ParseU64(argv[++i], &p) || p > 65535) {
          throw ConfigError("--obs-port expects 0..65535");
        }
        obs_port = static_cast<int>(p);
      } else if (a == "--help" || a == "-h") {
        Usage();
        return 0;
      } else {
        throw ConfigError("unknown flag '" + a + "'");
      }
    }

    hub::remote::HubServer server(options);
    std::printf("chaser_hubd: listening on %s:%u\n", options.host.c_str(),
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);  // parents read the port from a pipe before EOF

    std::unique_ptr<obs::ExportServer> export_server;
    if (obs_port >= 0) {
      obs::ExportServer::Options eo;
      eo.host = options.host;
      eo.port = static_cast<std::uint16_t>(obs_port);
      eo.status_body = [&server] { return HubStatusJson(server); };
      export_server = std::make_unique<obs::ExportServer>(std::move(eo));
      std::printf("chaser_hubd: obs listening on %s\n",
                  export_server->endpoint().c_str());
      std::fflush(stdout);
    }

    std::signal(SIGINT, OnSignal);
    std::signal(SIGTERM, OnSignal);
    while (g_stop == 0) {
      // The event loop runs on the server's own thread; this thread only
      // waits for a shutdown signal (pause() returns on any handled signal).
      pause();
    }

    // The scrape endpoint goes first so /status never reads a stopped
    // server's stats mid-teardown.
    export_server.reset();
    server.Stop();
    const hub::remote::ServerStats s = server.stats();
    std::printf(
        "chaser_hubd: %llu connections (%llu dropped, %llu protocol errors, "
        "%llu hello errors), %llu commands, %llu records published\n",
        static_cast<unsigned long long>(s.connections_accepted),
        static_cast<unsigned long long>(s.connections_dropped),
        static_cast<unsigned long long>(s.conn_errors),
        static_cast<unsigned long long>(s.hello_errors),
        static_cast<unsigned long long>(s.commands),
        static_cast<unsigned long long>(s.records_published));
    return 0;
  } catch (const ChaserError& e) {
    std::fprintf(stderr, "chaser_hubd: %s\n", e.what());
    return 2;
  }
}

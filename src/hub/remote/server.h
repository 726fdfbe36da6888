// HubServer: the engine inside chaser_hubd (and the loopback tests).
//
// It serves the hub protocol on net::ServerLoop (net/server_loop.h), the
// poll(2) loop that also serves the HTTP scrape endpoint: the loop owns the
// listener, the connections and their sockets, and this file adds framing,
// the hello, command dispatch and the limits below. Each connection gets
// its *own* TaintHub session: shard workers Clear() the hub between
// trials, and sessions keep one worker's reset from wiping another's
// in-flight records. (A shared hub across workers would also destroy
// per-trial determinism — hub clocks would interleave.)
//
// Robustness rules (DESIGN.md §5.7): a malformed frame, an oversized or
// zero-length frame, a bad hello, or an out-queue overflow closes *that
// connection only* and the server never aborts. Post-hello protocol
// violations count in stats().conn_errors / `hub_conn_errors`; rejected
// hellos count separately in stats().hello_errors / `hub_hello_errors`, so
// protocol-version skew is distinguishable from corruption. A rejected
// hello is answered with an error frame before its connection closes.
//
// Backpressure: responses queue in a bounded per-connection buffer
// (Options::max_out_bytes). A client that stops reading while issuing
// commands overflows the bound and is dropped; its untainted polls surface
// at the worker as retry-exhausted `taint_lost`, the same path as the
// HubFaultModel outage.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "hub/tainthub.h"
#include "net/frame.h"
#include "net/server_loop.h"

namespace chaser::hub::remote {

struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_dropped = 0;  // peer EOF + error drops
  std::uint64_t conn_errors = 0;          // protocol violations after hello
  std::uint64_t hello_errors = 0;         // rejected hellos (version skew)
  std::uint64_t commands = 0;             // frames dispatched after hello
  std::uint64_t records_published = 0;    // across all batches and sessions
};

class HubServer : private net::ServerLoop::Handler {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;  // 0 = ephemeral; see port()
    /// Fault model pre-installed in every new session (chaser_hubd
    /// --hub-fault). Clients may override per-connection.
    HubFaultModel default_fault;
    /// Bound on one connection's queued-but-unsent response bytes.
    std::size_t max_out_bytes = 2 * net::kMaxFramePayload;
  };

  /// Binds, listens, and starts serving. Throws ConfigError if the bind
  /// fails. Stop() (also run by the destructor) is idempotent.
  explicit HubServer(Options options);
  ~HubServer() override;

  HubServer(const HubServer&) = delete;
  HubServer& operator=(const HubServer&) = delete;

  void Stop();

  bool running() const { return loop_.running(); }
  /// The bound port (resolves ephemeral binds).
  std::uint16_t port() const { return loop_.port(); }

  ServerStats stats() const;

 private:
  struct Session : net::Connection {
    net::FrameDecoder decoder;
    bool hello_done = false;
    /// Closing for a protocol violation after the hello (or a corrupt
    /// stream before it): counted in conn_errors when it closes.
    bool protocol_error = false;
    TaintHub hub;  // per-connection hub state
  };

  std::unique_ptr<net::Connection> OnConnect() override;
  bool OnRecv(net::Connection& conn, const char* data, std::size_t n) override;
  void OnSent(net::Connection& conn, std::size_t n) override;
  void OnClose(net::Connection& conn) override;
  void OnRoundEnd(std::size_t queued) override;
  /// Returns false on a protocol violation after the hello. A rejected
  /// hello queues its error frame and marks the session to close once it
  /// has drained.
  bool HandleFrame(Session& conn, const std::string& payload);
  /// Post-hello command dispatch, timed into hub_cmd_ns{cmd=...}.
  bool DispatchCommand(Session& conn, const std::string& payload,
                       std::size_t pos, std::uint64_t cmd);

  Options options_;
  /// Last out-buffer total this server pushed into the shared
  /// hub_out_buffer_bytes gauge; deltas keep several servers (loopback
  /// tests) from clobbering each other's contribution.
  std::int64_t published_out_bytes_ = 0;

  mutable std::mutex stats_mutex_;
  ServerStats stats_;
  /// Last: it starts after, and stops before, the state its calls read.
  net::ServerLoop loop_;
};

}  // namespace chaser::hub::remote

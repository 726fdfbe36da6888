// ServerLoop: the one poll(2) server both TCP services run on, chaser_hubd's
// hub protocol (hub/remote/server.h) and the HTTP scrape endpoint
// (obs/export.h).
//
// One background thread owns a nonblocking listener, a self-pipe that
// Stop() writes to wake it, and every accepted connection. Each round it
// polls them all (500 ms at most), accepts what is pending, reads what
// arrived, writes what is queued and closes what ended. The bytes mean
// nothing to it: its Handler parses them, queues answers in
// Connection::out and says when a connection ends. The loop closes a
// connection when
//   - the peer closed it, or a socket call on it failed;
//   - the handler refused its bytes (OnRecv returned false);
//   - the handler set close_when_drained and `out` has drained;
//   - it spent more than idle_round_limit rounds in a row neither reading
//     nor writing (when the limit is set).
// A misbehaving peer costs only its own connection: the loop never aborts.
// Handler calls come from the loop thread only.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.h"

namespace chaser::net {

/// One accepted connection. Handlers derive from it to keep their protocol
/// state beside the socket.
class Connection {
 public:
  Connection() = default;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  virtual ~Connection() = default;

  /// Bytes queued for the peer; the loop writes them as the socket drains.
  std::string out;
  /// Read nothing more, and close once `out` has drained.
  bool close_when_drained = false;

 private:
  friend class ServerLoop;
  TcpSocket sock_;
  int idle_rounds_ = 0;
};

class ServerLoop {
 public:
  /// The protocol a loop serves.
  class Handler {
   public:
    virtual ~Handler() = default;
    /// A peer connected: the state to keep for it.
    virtual std::unique_ptr<Connection> OnConnect() = 0;
    /// The peer sent data[0..n). Returns false to close the connection at
    /// once, unsent `out` bytes and all.
    virtual bool OnRecv(Connection& conn, const char* data, std::size_t n) = 0;
    /// n bytes of conn.out went to the socket.
    virtual void OnSent(Connection& /*conn*/, std::size_t /*n*/) {}
    /// The loop is about to close conn. Stop() closes the connections
    /// still open without calling this.
    virtual void OnClose(Connection& /*conn*/) {}
    /// A round ended with `queued` bytes waiting in the out buffers.
    virtual void OnRoundEnd(std::size_t /*queued*/) {}
  };

  /// Binds and listens on host:port (0: an ephemeral port, see port()),
  /// then starts the loop thread, which calls `handler` until Stop(). A
  /// connection closes after idle_round_limit idle rounds in a row (0:
  /// never). Throws ConfigError if the bind fails; no thread starts then.
  ServerLoop(const std::string& host, std::uint16_t port, Handler* handler,
             int idle_round_limit = 0);
  ~ServerLoop();

  ServerLoop(const ServerLoop&) = delete;
  ServerLoop& operator=(const ServerLoop&) = delete;

  /// Joins the loop thread and closes every connection. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  std::uint16_t port() const { return port_; }

 private:
  void Loop();
  void AcceptAll();
  /// One round of one connection; false when it must close.
  bool Serve(Connection& conn, short revents);
  bool Read(Connection& conn, bool* progressed);
  bool Flush(Connection& conn);

  Handler* handler_;
  const int idle_round_limit_;
  std::uint16_t port_ = 0;
  TcpSocket listener_;
  int wake_pipe_[2] = {-1, -1};
  std::vector<std::unique_ptr<Connection>> conns_;
  std::vector<char> buf_;
  std::atomic<bool> running_{false};
  std::thread thread_;
};

}  // namespace chaser::net

// Thin RAII wrappers over POSIX TCP sockets: a blocking client socket for
// the hub wire protocol and HTTP scrapes, and the listener that
// net/server_loop.h serves both from. IPv4 only (campaign fleets are
// rack-local); no TLS.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace chaser::net {

/// Owns one socket fd. Movable, not copyable; closes on destruction.
class TcpSocket {
 public:
  TcpSocket() = default;
  explicit TcpSocket(int fd) : fd_(fd) {}
  TcpSocket(TcpSocket&& other) noexcept;
  TcpSocket& operator=(TcpSocket&& other) noexcept;
  TcpSocket(const TcpSocket&) = delete;
  TcpSocket& operator=(const TcpSocket&) = delete;
  ~TcpSocket();

  /// Blocking connect to host:port. Throws common ConfigError on failure
  /// (unknown host, refused, ...).
  static TcpSocket Connect(const std::string& host, std::uint16_t port);

  int fd() const { return fd_; }

  /// Write all of data[0..n); throws ConfigError if the peer vanished.
  /// SIGPIPE is suppressed (MSG_NOSIGNAL) so a dead peer is an exception,
  /// never a process kill.
  void SendAll(const char* data, std::size_t n);

  /// Blocking read of up to n bytes. Returns the byte count, 0 on orderly
  /// EOF; throws ConfigError on a socket error.
  std::size_t Recv(char* buf, std::size_t n);

  void Close();

 private:
  int fd_ = -1;
};

/// A nonblocking socket listening on host:port (SO_REUSEADDR). Port 0 binds
/// an ephemeral port; *bound_port gets the one the kernel picked (test
/// servers, chaser_hubd --port 0). Throws ConfigError.
TcpSocket Listen(const std::string& host, std::uint16_t port,
                 std::uint16_t* bound_port);

/// Endpoint spec "host:port" (e.g. "127.0.0.1:7700"). Throws ConfigError on
/// a missing/invalid port.
struct Endpoint {
  std::string host;
  std::uint16_t port = 0;
};
Endpoint ParseEndpoint(const std::string& spec);

/// Make fd nonblocking (the server loop's sockets and wake pipe). Returns
/// false on fcntl failure.
bool SetNonBlocking(int fd);

}  // namespace chaser::net

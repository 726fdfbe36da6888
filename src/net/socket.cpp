#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/error.h"
#include "common/strings.h"

namespace chaser::net {

namespace {

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

in_addr ResolveHost(const std::string& host) {
  in_addr addr{};
  const std::string h = (host.empty() || host == "localhost") ? "127.0.0.1" : host;
  if (inet_pton(AF_INET, h.c_str(), &addr) != 1) {
    throw ConfigError("net: cannot parse IPv4 address '" + host + "'");
  }
  return addr;
}

}  // namespace

TcpSocket::TcpSocket(TcpSocket&& other) noexcept : fd_(other.fd_) {
  other.fd_ = -1;
}

TcpSocket& TcpSocket::operator=(TcpSocket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

TcpSocket::~TcpSocket() { Close(); }

void TcpSocket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

TcpSocket TcpSocket::Connect(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw ConfigError(Errno("net: socket()"));
  TcpSocket sock(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr = ResolveHost(host);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw ConfigError(Errno(StrFormat("net: connect to %s:%u", host.c_str(),
                                      static_cast<unsigned>(port))));
  }
  // Command/response round trips dominate the protocol; Nagle only hurts.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return sock;
}

void TcpSocket::SendAll(const char* data, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t rc = ::send(fd_, data + sent, n - sent, MSG_NOSIGNAL);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw ConfigError(Errno("net: send"));
    }
    sent += static_cast<std::size_t>(rc);
  }
}

std::size_t TcpSocket::Recv(char* buf, std::size_t n) {
  for (;;) {
    const ssize_t rc = ::recv(fd_, buf, n, 0);
    if (rc >= 0) return static_cast<std::size_t>(rc);
    if (errno == EINTR) continue;
    throw ConfigError(Errno("net: recv"));
  }
}

TcpSocket Listen(const std::string& host, std::uint16_t port,
                 std::uint16_t* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw ConfigError(Errno("net: socket()"));
  TcpSocket sock(fd);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr = ResolveHost(host);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw ConfigError(Errno(StrFormat("net: bind %s:%u", host.c_str(),
                                      static_cast<unsigned>(port))));
  }
  if (::listen(fd, 64) != 0) throw ConfigError(Errno("net: listen"));
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    throw ConfigError(Errno("net: getsockname"));
  }
  *bound_port = ntohs(bound.sin_port);
  SetNonBlocking(fd);
  return sock;
}

Endpoint ParseEndpoint(const std::string& spec) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon + 1 >= spec.size()) {
    throw ConfigError("net: endpoint '" + spec + "' is not host:port");
  }
  std::uint64_t port = 0;
  if (!ParseU64(spec.substr(colon + 1), &port) || port == 0 || port > 65535) {
    throw ConfigError("net: endpoint '" + spec + "' has an invalid port");
  }
  return {spec.substr(0, colon), static_cast<std::uint16_t>(port)};
}

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace chaser::net

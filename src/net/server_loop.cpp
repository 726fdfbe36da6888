#include "net/server_loop.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "common/error.h"

namespace chaser::net {

namespace {

/// A round ends after this long even when nothing happens, so idle
/// connections age and Stop() is never missed.
constexpr int kPollTimeoutMs = 500;

}  // namespace

ServerLoop::ServerLoop(const std::string& host, std::uint16_t port,
                       Handler* handler, int idle_round_limit)
    : handler_(handler),
      idle_round_limit_(idle_round_limit),
      listener_(Listen(host, port, &port_)),
      buf_(64 * 1024) {
  if (::pipe(wake_pipe_) != 0) throw ConfigError("net: pipe() failed");
  SetNonBlocking(wake_pipe_[0]);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Loop(); });
}

ServerLoop::~ServerLoop() { Stop(); }

void ServerLoop::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  const char byte = 0;
  [[maybe_unused]] const ssize_t rc = ::write(wake_pipe_[1], &byte, 1);
  if (thread_.joinable()) thread_.join();
  conns_.clear();
  listener_.Close();
  for (int& fd : wake_pipe_) {
    ::close(fd);
    fd = -1;
  }
}

void ServerLoop::Loop() {
  std::vector<pollfd> fds;
  while (running()) {
    fds.clear();
    fds.push_back({listener_.fd(), POLLIN, 0});
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    for (const auto& conn : conns_) {
      const int events = (conn->close_when_drained ? 0 : POLLIN) |
                         (conn->out.empty() ? 0 : POLLOUT);
      fds.push_back({conn->sock_.fd(), static_cast<short>(events), 0});
    }
    // Connections accepted below are not in fds: only these were polled.
    const std::size_t polled = conns_.size();
    if (::poll(fds.data(), fds.size(), kPollTimeoutMs) < 0) {
      if (errno == EINTR) continue;
      break;  // poll itself failed: shut down rather than spin
    }
    if (fds[1].revents & POLLIN) {
      while (::read(wake_pipe_[0], buf_.data(), buf_.size()) > 0) {
      }
    }
    if (fds[0].revents & POLLIN) AcceptAll();
    std::size_t queued = 0;
    for (std::size_t i = 0; i < polled; ++i) {
      if (Serve(*conns_[i], fds[i + 2].revents)) {
        queued += conns_[i]->out.size();
      } else {
        handler_->OnClose(*conns_[i]);
        conns_[i].reset();
      }
    }
    std::erase(conns_, nullptr);
    handler_->OnRoundEnd(queued);
  }
}

void ServerLoop::AcceptAll() {
  for (;;) {
    const int fd = ::accept(listener_.fd(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // none pending (EAGAIN), or a transient failure
    }
    SetNonBlocking(fd);
    std::unique_ptr<Connection> conn = handler_->OnConnect();
    conn->sock_ = TcpSocket(fd);
    conns_.push_back(std::move(conn));
  }
}

bool ServerLoop::Serve(Connection& conn, short revents) {
  if (revents & (POLLERR | POLLHUP | POLLNVAL)) return false;
  bool progressed = false;
  if ((revents & POLLIN) && !Read(conn, &progressed)) return false;
  if (!conn.out.empty()) {
    if (!Flush(conn)) return false;
    progressed = true;
  }
  if (conn.close_when_drained && conn.out.empty()) return false;
  if (idle_round_limit_ > 0) {
    conn.idle_rounds_ = progressed ? 0 : conn.idle_rounds_ + 1;
    if (conn.idle_rounds_ > idle_round_limit_) return false;
  }
  return true;
}

bool ServerLoop::Read(Connection& conn, bool* progressed) {
  for (;;) {
    const ssize_t n = ::recv(conn.sock_.fd(), buf_.data(), buf_.size(), 0);
    if (n > 0) {
      *progressed = true;
      if (!handler_->OnRecv(conn, buf_.data(), static_cast<std::size_t>(n))) {
        return false;
      }
      if (conn.close_when_drained ||
          static_cast<std::size_t>(n) < buf_.size()) {
        return true;
      }
      continue;
    }
    if (n == 0) return false;  // EOF: a torn trailing request goes with it
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno != EINTR) return false;
  }
}

bool ServerLoop::Flush(Connection& conn) {
  while (!conn.out.empty()) {
    const ssize_t n = ::send(conn.sock_.fd(), conn.out.data(), conn.out.size(),
                             MSG_NOSIGNAL);
    if (n > 0) {
      handler_->OnSent(conn, static_cast<std::size_t>(n));
      conn.out.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;  // the peer is gone
  }
  return true;
}

}  // namespace chaser::net

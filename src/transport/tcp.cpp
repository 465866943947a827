#include "transport/tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "util/logging.h"

namespace mgrid::transport {

namespace {

std::string errno_text(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

void set_nodelay(int fd) {
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

bool parse_ipv4(const std::string& host, std::uint16_t port,
                sockaddr_in& addr) {
  addr = sockaddr_in{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  return ::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1;
}

/// socket/bind/listen on `address:port` and reads back the bound port.
int listen_tcp(const std::string& who, const std::string& address,
               std::uint16_t port, std::uint16_t& bound_port) {
  sockaddr_in addr{};
  if (!parse_ipv4(address, port, addr)) {
    throw std::runtime_error(who + ": bad bind address " + address);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error(who + ": " + errno_text("socket"));
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 64) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error(who + ": bind/listen on " + address + ":" +
                             std::to_string(port) + ": " + reason);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    const std::string reason = errno_text("getsockname");
    ::close(fd);
    throw std::runtime_error(who + ": " + reason);
  }
  bound_port = ntohs(bound.sin_port);
  return fd;
}

/// Waits for a non-blocking connect to finish within `seconds`.
bool finish_connect(int fd, double seconds, std::string& error) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration<double>(seconds > 0.0 ? seconds : 5.0);
  for (;;) {
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now());
    if (remaining.count() <= 0) {
      error = "connect: timed out";
      return false;
    }
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    const int polled = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
    if (polled < 0 && errno == EINTR) continue;
    if (polled < 0) {
      error = errno_text("poll");
      return false;
    }
    if (polled > 0) break;
  }
  int so_error = 0;
  socklen_t len = sizeof(so_error);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0) {
    error = errno_text("getsockopt");
    return false;
  }
  if (so_error != 0) {
    error = std::string("connect: ") + std::strerror(so_error);
    return false;
  }
  return true;
}

}  // namespace

int connect_tcp(const std::string& host, std::uint16_t port,
                double timeout_seconds, std::string& error) {
  sockaddr_in addr{};
  if (!parse_ipv4(host, port, addr)) {
    error = "bad host address " + host;
    return -1;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    error = errno_text("socket");
    return -1;
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    error = errno_text("fcntl");
    ::close(fd);
    return -1;
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  bool connected = rc == 0;
  if (!connected) {
    if (errno == EINPROGRESS) {
      connected = finish_connect(fd, timeout_seconds, error);
    } else {
      error = errno_text("connect");
    }
  }
  if (connected && ::fcntl(fd, F_SETFL, flags) < 0) {
    error = errno_text("fcntl");
    connected = false;
  }
  if (!connected) {
    ::close(fd);
    return -1;
  }
  // LU batches are latency-sensitive and already coalesced by the caller.
  set_nodelay(fd);
  return fd;
}

bool send_all(int fd, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const char*>(data);
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, bytes + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

void set_io_timeout(int fd, double seconds) {
  timeval tv{};
  if (seconds > 0.0) {
    tv.tv_sec = static_cast<time_t>(seconds);
    tv.tv_usec =
        static_cast<suseconds_t>((seconds - std::floor(seconds)) * 1e6);
  }
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

ConnectionServer::ConnectionServer(std::string name, Handler handler,
                                   Rejecter rejecter)
    : name_(std::move(name)),
      handler_(std::move(handler)),
      rejecter_(std::move(rejecter)) {}

ConnectionServer::~ConnectionServer() { stop(); }

void ConnectionServer::start(const std::string& address,
                             std::uint16_t port) {
  if (running() || stopped_) {
    throw std::runtime_error(name_ + ": already started");
  }
  listen_fd_ = listen_tcp(name_, address, port, bound_port_);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_main(); });
}

void ConnectionServer::stop() {
  if (stopped_ || !running()) {
    stopped_ = true;
    return;
  }
  stopping_.store(true, std::memory_order_release);
  // shutdown() wakes the blocking accept(); close() alone is not
  // guaranteed to on Linux.
  (void)::shutdown(listen_fd_, SHUT_RDWR);
  accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const Connection& connection : connections_) {
      if (connection.fd >= 0) (void)::shutdown(connection.fd, SHUT_RDWR);
    }
  }
  // The accept thread is gone, so the list no longer changes shape.
  for (Connection& connection : connections_) connection.thread.join();
  connections_.clear();
  running_.store(false, std::memory_order_release);
  stopped_ = true;
}

void ConnectionServer::accept_main() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // After shutdown() this is the orderly stop. Anything else is
      // transient (EMFILE, ENFILE, ECONNABORTED, ENOBUFS): back off so fd
      // exhaustion cannot turn this loop into a busy spin, then retry.
      if (stopping_.load(std::memory_order_acquire)) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    set_nodelay(fd);
    if (!admit(fd)) {
      rejected_busy_.fetch_add(1, std::memory_order_relaxed);
      if (rejecter_) rejecter_(fd);
      ::close(fd);
    }
  }
}

bool ConnectionServer::admit(int fd) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t live = 0;
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (it->done) {
      it->thread.join();  // already past its last use of the lock
      it = connections_.erase(it);
    } else {
      ++live;
      ++it;
    }
  }
  if (live >= kMaxConnections) return false;
  Connection& connection = connections_.emplace_back();
  connection.fd = fd;
  try {
    connection.thread = std::thread([this, &connection] { serve(connection); });
  } catch (const std::system_error&) {
    connections_.pop_back();  // no thread to spare: refuse like a full server
    return false;
  }
  return true;
}

void ConnectionServer::serve(Connection& connection) {
  // `fd` was set before this thread started and only this thread clears it.
  const int fd = connection.fd;
  try {
    handler_(fd);
  } catch (const std::exception& e) {
    util::log_error(name_, ": connection handler failed: ", e.what());
  }
  // Closed under the lock so stop() never shuts down a reused fd number.
  const std::lock_guard<std::mutex> lock(mutex_);
  ::close(fd);
  connection.fd = -1;
  connection.done = true;
}

}  // namespace mgrid::transport

// The one TCP transport core every socket in the process goes through.
//
// Socket helpers: connect_tcp (non-blocking connect with a wall deadline),
// send_all (MSG_NOSIGNAL, EINTR and short-write safe) and set_io_timeout.
//
// ConnectionServer: one accept thread, and one thread per accepted
// connection, up to kMaxConnections live at once. An idle peer therefore
// costs a thread but never delays another connection (a fixed worker pool
// lets a few idle sockets starve everyone queued behind them). At the cap a
// new connection is refused: the optional rejecter runs (HTTP writes a
// 503), the fd is closed and rejected_busy counts it. Transient accept
// errors (EMFILE, ENFILE, ECONNABORTED, ...) back off briefly and retry, so
// fd exhaustion neither spins the loop nor stops the server for good.
// stop() shuts the listener and every live connection down (waking their
// blocking recv/send) and joins every thread.
//
// The traffic this serves is small (a shard sees one router connection, its
// followers and short admin scrapes), which is why a thread per connection
// is the simplest design that fits; a many-connection workload would call
// for an event loop instead.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <thread>

namespace mgrid::transport {

/// Blocking TCP connect with a wall deadline: the socket is non-blocking
/// for the connect, so a black-holed peer cannot park the caller in the
/// kernel's minutes-long default; poll() re-arms the remaining budget after
/// EINTR. The returned fd is blocking, close-on-exec and TCP_NODELAY.
/// Returns -1 with `error` set on failure.
[[nodiscard]] int connect_tcp(const std::string& host, std::uint16_t port,
                              double timeout_seconds, std::string& error);

/// Writes every byte; false on error or timeout. MSG_NOSIGNAL, so a peer
/// that hangs up cannot SIGPIPE the process.
bool send_all(int fd, const void* data, std::size_t size);

/// Sets SO_RCVTIMEO and SO_SNDTIMEO; `seconds` <= 0 clears both (blocking
/// calls wait until data, an error or shutdown()).
void set_io_timeout(int fd, double seconds);

class ConnectionServer {
 public:
  /// Live connections beyond this are refused.
  static constexpr std::size_t kMaxConnections = 64;

  /// Serves one connection on its own thread. The server owns the fd and
  /// closes it after the handler returns.
  using Handler = std::function<void(int fd)>;
  /// Runs on the accept thread for a connection refused at the cap, just
  /// before the server closes it.
  using Rejecter = std::function<void(int fd)>;

  /// `name` prefixes error messages ("LuServer: bad bind address ...").
  ConnectionServer(std::string name, Handler handler,
                   Rejecter rejecter = nullptr);
  ~ConnectionServer();  ///< Implies stop().

  ConnectionServer(const ConnectionServer&) = delete;
  ConnectionServer& operator=(const ConnectionServer&) = delete;

  /// Binds and listens on `address:port` (0 = ephemeral) and starts the
  /// accept thread. Throws std::runtime_error on socket/bind failure or
  /// when already started.
  void start(const std::string& address, std::uint16_t port);

  /// Stops accepting, shuts every live connection down and joins every
  /// thread. Idempotent; a stopped server cannot be restarted.
  void stop();

  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }
  /// Bound port (resolves port 0 after start()); 0 before start().
  [[nodiscard]] std::uint16_t port() const noexcept { return bound_port_; }
  /// Connections accepted, refused ones included.
  [[nodiscard]] std::uint64_t accepted() const noexcept {
    return accepted_.load(std::memory_order_relaxed);
  }
  /// Connections refused at the cap (or when no thread could start).
  [[nodiscard]] std::uint64_t rejected_busy() const noexcept {
    return rejected_busy_.load(std::memory_order_relaxed);
  }

 private:
  struct Connection {
    int fd = -1;        ///< Guarded by mutex_; -1 once closed.
    bool done = false;  ///< Guarded by mutex_; the thread may be joined.
    std::thread thread;
  };

  void accept_main();
  /// Reaps finished connections and starts a thread for `fd`; false when
  /// the cap is reached or no thread can be started.
  bool admit(int fd);
  void serve(Connection& connection);

  std::string name_;
  Handler handler_;
  Rejecter rejecter_;

  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  bool stopped_ = false;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_busy_{0};

  std::mutex mutex_;
  /// std::list: each thread holds a reference to its own element.
  std::list<Connection> connections_;

  std::thread accept_thread_;
};

}  // namespace mgrid::transport

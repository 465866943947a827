// Minimal embedded HTTP/1.1 server for live observability endpoints.
//
// Dependency-free (POSIX sockets only), built on the transport core
// (transport/tcp.h): every accepted connection gets its own thread, up to
// transport::ConnectionServer::kMaxConnections live at once; a connection
// beyond the cap gets an immediate 503 and close, so a scrape storm cannot
// pile up file descriptors or threads. Each connection serves exactly one
// request (`Connection: close` semantics — a scrape is one round trip,
// keep-alive buys nothing but lifecycle bugs; pipelined bytes after the
// first head are ignored, the response closes the connection) and is
// bounded in every dimension: header bytes (431 beyond max_request_bytes),
// a declared body (413 — the admin plane is read-only, judged by
// Content-Length/Transfer-Encoding, not by how the bytes happened to land
// in recv()) and wall time (SO_RCVTIMEO/SO_SNDTIMEO).
//
// stop() is idempotent: the listener and every live connection are shut
// down and every thread is joined before stop() returns — no leaked
// threads or sockets under ASan/TSan, which the CI presets assert.
//
// The server itself is route-agnostic; the registered Handler maps requests
// to responses (see serve/admin.h for the mgrid admin surface). http_get()
// is the matching minimal blocking client used by the test suites and the
// scrape-under-load bench.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "transport/tcp.h"

namespace mgrid::obs::http {

/// One parsed request. Header names are lower-cased; values are trimmed.
struct Request {
  std::string method;   ///< "GET", "POST", ... (upper-case as received).
  std::string target;   ///< Raw request target, e.g. "/statusz?verbose=1".
  std::string path;     ///< Target up to '?', e.g. "/statusz".
  std::string query;    ///< After '?', "" when absent.
  std::string version;  ///< "HTTP/1.1" or "HTTP/1.0".
  std::vector<std::pair<std::string, std::string>> headers;

  /// First header with this (lower-case) name, nullptr when absent.
  [[nodiscard]] const std::string* header(std::string_view name) const;
};

struct Response {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;

  [[nodiscard]] static Response text(int status, std::string body);
  [[nodiscard]] static Response json(int status, std::string body);
  [[nodiscard]] static Response not_found();
};

/// Standard reason phrase for a status code ("OK", "Not Found", ...).
[[nodiscard]] const char* status_reason(int status) noexcept;

struct ServerOptions {
  /// Loopback by default: the admin plane is an operator surface, not a
  /// public API. Set "0.0.0.0" explicitly to expose it.
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral; the bound port is readable via Server::port().
  std::uint16_t port = 0;
  /// Request head (request line + headers) byte bound; 431 beyond.
  std::size_t max_request_bytes = 16 * 1024;
  /// Per-connection socket read/write timeout.
  double io_timeout_seconds = 5.0;
};

/// Monotonic server counters (snapshot copy).
struct ServerStats {
  std::uint64_t accepted = 0;       ///< Connections accepted.
  /// Well-formed requests parsed. Counted exactly once per request after
  /// the full head has been assembled — a head trickling in byte-by-byte
  /// across many recv() calls (slowloris) still counts as one.
  std::uint64_t requests = 0;
  std::uint64_t served = 0;         ///< Responses written (any status).
  std::uint64_t rejected_busy = 0;  ///< 503s at the connection cap.
  std::uint64_t bad_requests = 0;   ///< 400/413/431 protocol rejections.
  std::uint64_t io_errors = 0;      ///< Timeouts / resets mid-request.
};

using Handler = std::function<Response(const Request&)>;

class Server {
 public:
  /// The handler runs on connection threads and must be thread-safe. It is
  /// invoked for every well-formed request regardless of method.
  Server(ServerOptions options, Handler handler);
  ~Server();  ///< Implies stop().

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and starts the accept thread. Throws
  /// std::runtime_error on socket/bind failure or when already started.
  void start();

  /// Stops accepting, shuts live connections down, joins every thread.
  /// Idempotent; a stopped server cannot be restarted.
  void stop();

  [[nodiscard]] bool running() const noexcept;
  /// Bound port (resolves port 0 after start()); 0 before start().
  [[nodiscard]] std::uint16_t port() const noexcept;
  [[nodiscard]] ServerStats stats() const;

 private:
  void serve_connection(int fd);
  void write_response(int fd, const Response& response, bool head_only);

  ServerOptions options_;
  Handler handler_;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> bad_requests_{0};
  std::atomic<std::uint64_t> io_errors_{0};

  /// Last: its threads use everything above.
  transport::ConnectionServer connections_;
};

/// Minimal blocking GET client (tests, benches, smoke scripts). Returns
/// ok=false with `error` set on connect/timeout/protocol failure; headers
/// beyond the status line are parsed but only Content-Type is retained.
struct ClientResponse {
  bool ok = false;
  int status = 0;
  std::string content_type;
  std::string body;
  std::string error;
};

[[nodiscard]] ClientResponse http_get(const std::string& host,
                                      std::uint16_t port,
                                      const std::string& target,
                                      double timeout_seconds = 5.0);

}  // namespace mgrid::obs::http

#include "obs/http.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace mgrid::obs::http {

namespace {

constexpr std::string_view kHeaderTerminator = "\r\n\r\n";

std::string lower(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string_view trim(std::string_view text) {
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.front()))) {
    text.remove_prefix(1);
  }
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  return text;
}

/// Parses the request head (everything before the blank line). Returns
/// false on a malformed request line or header.
bool parse_head(std::string_view head, Request& request) {
  const std::size_t line_end = head.find("\r\n");
  const std::string_view request_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  const std::size_t method_end = request_line.find(' ');
  if (method_end == std::string_view::npos) return false;
  const std::size_t target_end = request_line.find(' ', method_end + 1);
  if (target_end == std::string_view::npos) return false;
  request.method = std::string(request_line.substr(0, method_end));
  request.target = std::string(
      request_line.substr(method_end + 1, target_end - method_end - 1));
  request.version = std::string(trim(request_line.substr(target_end + 1)));
  if (request.method.empty() || request.target.empty() ||
      request.target[0] != '/' ||
      request.version.rfind("HTTP/", 0) != 0) {
    return false;
  }
  const std::size_t question = request.target.find('?');
  request.path = request.target.substr(0, question);
  request.query = question == std::string::npos
                      ? std::string{}
                      : request.target.substr(question + 1);

  std::size_t cursor = line_end == std::string_view::npos
                           ? head.size()
                           : line_end + 2;
  while (cursor < head.size()) {
    std::size_t next = head.find("\r\n", cursor);
    if (next == std::string_view::npos) next = head.size();
    const std::string_view line = head.substr(cursor, next - cursor);
    cursor = next + 2;
    if (line.empty()) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) return false;
    request.headers.emplace_back(lower(trim(line.substr(0, colon))),
                                 std::string(trim(line.substr(colon + 1))));
  }
  return true;
}

}  // namespace

const std::string* Request::header(std::string_view name) const {
  for (const auto& [key, value] : headers) {
    if (key == name) return &value;
  }
  return nullptr;
}

Response Response::text(int status, std::string body) {
  Response response;
  response.status = status;
  response.body = std::move(body);
  return response;
}

Response Response::json(int status, std::string body) {
  Response response;
  response.status = status;
  response.content_type = "application/json";
  response.body = std::move(body);
  return response;
}

Response Response::not_found() { return text(404, "not found\n"); }

const char* status_reason(int status) noexcept {
  switch (status) {
    case 200:
      return "OK";
    case 204:
      return "No Content";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 413:
      return "Content Too Large";
    case 431:
      return "Request Header Fields Too Large";
    case 500:
      return "Internal Server Error";
    case 503:
      return "Service Unavailable";
    default:
      return "Unknown";
  }
}

Server::Server(ServerOptions options, Handler handler)
    : options_(std::move(options)),
      handler_(std::move(handler)),
      connections_(
          "http::Server",
          [this](int fd) {
            transport::set_io_timeout(fd, options_.io_timeout_seconds);
            serve_connection(fd);
          },
          [this](int fd) {
            // Sent before the request is read, so the method is unknown —
            // an empty body (Content-Length: 0) is right for GET and HEAD.
            transport::set_io_timeout(fd, options_.io_timeout_seconds);
            write_response(fd, Response::text(503, ""), false);
          }) {
  if (!handler_) {
    throw std::invalid_argument("http::Server: handler must be set");
  }
}

Server::~Server() { stop(); }

void Server::start() {
  connections_.start(options_.bind_address, options_.port);
}

void Server::stop() { connections_.stop(); }

bool Server::running() const noexcept { return connections_.running(); }

std::uint16_t Server::port() const noexcept { return connections_.port(); }

ServerStats Server::stats() const {
  ServerStats out;
  out.accepted = connections_.accepted();
  out.requests = requests_.load(std::memory_order_relaxed);
  out.served = served_.load(std::memory_order_relaxed);
  out.rejected_busy = connections_.rejected_busy();
  out.bad_requests = bad_requests_.load(std::memory_order_relaxed);
  out.io_errors = io_errors_.load(std::memory_order_relaxed);
  return out;
}

void Server::serve_connection(int fd) {
  std::string head;
  head.reserve(512);
  char buffer[2048];
  // A HEAD request must get headers-only responses on the rejection paths
  // too; the method is the first bytes of the head, readable even when the
  // rest is oversized or malformed.
  const auto is_head = [&head] { return head.rfind("HEAD ", 0) == 0; };
  std::size_t terminator = std::string::npos;
  while (terminator == std::string::npos) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      io_errors_.fetch_add(1, std::memory_order_relaxed);
      return;  // timeout or peer reset before a full head arrived
    }
    const std::size_t scan_from =
        head.size() >= 3 ? head.size() - 3 : std::size_t{0};
    head.append(buffer, static_cast<std::size_t>(n));
    terminator = head.find(kHeaderTerminator, scan_from);
    // Bound the head whether it trickles in or lands in one read: reject
    // both an unterminated head that outgrew the limit and a complete head
    // larger than it.
    const std::size_t head_bytes =
        terminator == std::string::npos ? head.size() : terminator;
    if (head_bytes > options_.max_request_bytes) {
      bad_requests_.fetch_add(1, std::memory_order_relaxed);
      write_response(fd, Response::text(431, "request head too large\n"),
                     is_head());
      return;
    }
  }
  Request request;
  if (!parse_head(std::string_view(head).substr(0, terminator), request)) {
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    write_response(fd, Response::text(400, "malformed request\n"), is_head());
    return;
  }
  // One well-formed request parsed — exactly one count, however many recv()
  // calls the head trickled in across.
  requests_.fetch_add(1, std::memory_order_relaxed);
  // The admin plane is read-only: a request that *declares* a body is
  // refused outright rather than read and ignored. Judged by the headers
  // alone — stray bytes after the head terminator are a pipelined follow-up
  // request, not a body, and are dropped when the connection closes.
  const std::string* content_length = request.header("content-length");
  if ((content_length != nullptr && *content_length != "0") ||
      request.header("transfer-encoding") != nullptr) {
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    write_response(fd, Response::text(413, "request bodies not accepted\n"),
                   is_head());
    return;
  }

  const bool head_only = request.method == "HEAD";
  if (head_only) request.method = "GET";
  write_response(fd, handler_(request), head_only);
}

void Server::write_response(int fd, const Response& response,
                            bool head_only) {
  std::string head;
  head.reserve(128);
  head += "HTTP/1.1 ";
  head += std::to_string(response.status);
  head += ' ';
  head += status_reason(response.status);
  head += "\r\nContent-Type: ";
  head += response.content_type;
  head += "\r\nContent-Length: ";
  head += std::to_string(response.body.size());
  head += "\r\nConnection: close\r\n\r\n";
  bool ok = transport::send_all(fd, head.data(), head.size());
  if (ok && !head_only) {
    ok = transport::send_all(fd, response.body.data(), response.body.size());
  }
  if (ok) {
    served_.fetch_add(1, std::memory_order_relaxed);
  } else {
    io_errors_.fetch_add(1, std::memory_order_relaxed);
  }
}

ClientResponse http_get(const std::string& host, std::uint16_t port,
                        const std::string& target, double timeout_seconds) {
  ClientResponse out;
  // The connect honours the same budget as the reads: a health-check loop
  // probing a wedged or vanished peer returns within ~timeout_seconds
  // instead of hanging on the kernel's default connect timeout.
  const int fd =
      transport::connect_tcp(host, port, timeout_seconds, out.error);
  if (fd < 0) return out;
  transport::set_io_timeout(fd, timeout_seconds);
  const std::string request = "GET " + target +
                              " HTTP/1.1\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  if (!transport::send_all(fd, request.data(), request.size())) {
    out.error = "send failed";
    ::close(fd);
    return out;
  }
  // Overall read deadline: SO_RCVTIMEO bounds each recv(), but a peer
  // dripping one byte per interval would reset that clock forever — the
  // wall deadline bounds the whole response.
  const auto read_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration<double>(timeout_seconds > 0.0 ? timeout_seconds
                                                          : 5.0);
  std::string raw;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      out.error = std::string("recv: ") + std::strerror(errno);
      ::close(fd);
      return out;
    }
    if (n == 0) break;
    raw.append(buffer, static_cast<std::size_t>(n));
    if (std::chrono::steady_clock::now() > read_deadline) {
      out.error = "recv: response deadline exceeded";
      ::close(fd);
      return out;
    }
  }
  ::close(fd);

  const std::size_t head_end = raw.find(kHeaderTerminator);
  if (head_end == std::string::npos ||
      raw.rfind("HTTP/", 0) != 0) {
    out.error = "malformed response";
    return out;
  }
  const std::size_t status_at = raw.find(' ');
  if (status_at == std::string::npos || status_at + 4 > head_end) {
    out.error = "malformed status line";
    return out;
  }
  out.status = std::atoi(raw.c_str() + status_at + 1);
  const std::string head_lower = lower(raw.substr(0, head_end));
  const std::size_t ct = head_lower.find("content-type:");
  if (ct != std::string::npos) {
    std::size_t line_end = head_lower.find("\r\n", ct);
    if (line_end == std::string::npos) line_end = head_end;
    out.content_type = std::string(
        trim(std::string_view(raw).substr(ct + 13, line_end - ct - 13)));
  }
  out.body = raw.substr(head_end + kHeaderTerminator.size());
  out.ok = out.status != 0;
  return out;
}

}  // namespace mgrid::obs::http

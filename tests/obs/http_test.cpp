// obs::http::Server — the dependency-free admin HTTP server: routing,
// request parsing, protocol bounds (400/413/431/503), concurrency and
// graceful shutdown. Every test binds an ephemeral loopback port.
#include "obs/http.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

namespace http = mgrid::obs::http;

namespace {

http::ServerOptions ephemeral() {
  http::ServerOptions options;
  options.port = 0;
  return options;
}

/// Raw one-shot exchange: connect, send `wire` verbatim, read to EOF.
std::string raw_exchange(std::uint16_t port, const std::string& wire) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  EXPECT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

}  // namespace

TEST(HttpServer, ServesHandlerResponseOnEphemeralPort) {
  http::Server server(ephemeral(), [](const http::Request& request) {
    return http::Response::text(200, "echo:" + request.path);
  });
  server.start();
  ASSERT_GT(server.port(), 0);
  ASSERT_TRUE(server.running());

  const http::ClientResponse response =
      http::http_get("127.0.0.1", server.port(), "/hello");
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "echo:/hello");
  EXPECT_EQ(response.content_type, "text/plain; charset=utf-8");
}

TEST(HttpServer, ParsesTargetQueryAndHeaders) {
  http::Request seen;
  http::Server server(ephemeral(), [&seen](const http::Request& request) {
    seen = request;
    return http::Response::text(200, "ok");
  });
  server.start();

  const std::string wire =
      "GET /statusz?verbose=1&pretty HTTP/1.1\r\n"
      "Host: 127.0.0.1\r\n"
      "X-Custom-Header:  padded value \r\n"
      "\r\n";
  const std::string response = raw_exchange(server.port(), wire);
  EXPECT_NE(response.find("200 OK"), std::string::npos);

  EXPECT_EQ(seen.method, "GET");
  EXPECT_EQ(seen.target, "/statusz?verbose=1&pretty");
  EXPECT_EQ(seen.path, "/statusz");
  EXPECT_EQ(seen.query, "verbose=1&pretty");
  EXPECT_EQ(seen.version, "HTTP/1.1");
  ASSERT_NE(seen.header("host"), nullptr);
  ASSERT_NE(seen.header("x-custom-header"), nullptr);
  EXPECT_EQ(*seen.header("x-custom-header"), "padded value");
  EXPECT_EQ(seen.header("absent"), nullptr);
}

TEST(HttpServer, RejectsMalformedRequestLine) {
  http::Server server(ephemeral(), [](const http::Request&) {
    return http::Response::text(200, "ok");
  });
  server.start();
  const std::string response =
      raw_exchange(server.port(), "NONSENSE\r\n\r\n");
  EXPECT_NE(response.find("400"), std::string::npos);
  EXPECT_EQ(server.stats().bad_requests, 1u);
}

TEST(HttpServer, RejectsOversizedHeadWith431) {
  http::ServerOptions options = ephemeral();
  options.max_request_bytes = 256;
  http::Server server(options, [](const http::Request&) {
    return http::Response::text(200, "ok");
  });
  server.start();
  const std::string wire = "GET /" + std::string(1024, 'x') +
                           " HTTP/1.1\r\n\r\n";
  const std::string response = raw_exchange(server.port(), wire);
  EXPECT_NE(response.find("431"), std::string::npos);
}

TEST(HttpServer, RejectsRequestBodyWith413) {
  http::Server server(ephemeral(), [](const http::Request&) {
    return http::Response::text(200, "ok");
  });
  server.start();
  const std::string wire =
      "POST /metrics HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
  const std::string response = raw_exchange(server.port(), wire);
  EXPECT_NE(response.find("413"), std::string::npos);
}

TEST(HttpServer, HeadSuppressesBodyButKeepsHeaders) {
  http::Server server(ephemeral(), [](const http::Request&) {
    return http::Response::text(200, "the-body");
  });
  server.start();
  const std::string response =
      raw_exchange(server.port(), "HEAD /x HTTP/1.1\r\n\r\n");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("Content-Length: 8"), std::string::npos);
  EXPECT_EQ(response.find("the-body"), std::string::npos);
}

TEST(HttpServer, ServesConcurrentClients) {
  std::atomic<int> calls{0};
  http::Server server(ephemeral(), [&calls](const http::Request& request) {
    calls.fetch_add(1);
    return http::Response::text(200, "r:" + request.path);
  });
  server.start();

  constexpr int kClients = 16;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      const http::ClientResponse response = http::http_get(
          "127.0.0.1", server.port(), "/c" + std::to_string(i));
      if (!response.ok || response.status != 200 ||
          response.body != "r:/c" + std::to_string(i)) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(calls.load(), kClients);
  EXPECT_EQ(server.stats().served, static_cast<std::uint64_t>(kClients));
}

TEST(HttpServer, AnswersConnectionsBeyondTheCapWith503) {
  http::ServerOptions options = ephemeral();
  options.io_timeout_seconds = 30.0;  // idle peers hold their slot
  http::Server server(options, [](const http::Request&) {
    return http::Response::text(200, "ok");
  });
  server.start();
  const auto connect_loopback = [&server] {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    return fd;
  };

  constexpr std::size_t kCap =
      mgrid::transport::ConnectionServer::kMaxConnections;
  std::vector<int> idle;
  for (std::size_t i = 0; i < kCap; ++i) idle.push_back(connect_loopback());
  for (int i = 0; i < 500 && server.stats().accepted < kCap; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(server.stats().accepted, kCap);

  // The refusal is written before any request is read; sending none keeps
  // the peer from resetting the connection under the response.
  const int extra = connect_loopback();
  mgrid::transport::set_io_timeout(extra, 2.0);
  std::string busy;
  char buffer[512];
  for (ssize_t n; (n = ::recv(extra, buffer, sizeof(buffer), 0)) > 0;) {
    busy.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(extra);
  EXPECT_EQ(busy.rfind("HTTP/1.1 503 Service Unavailable\r\n", 0), 0u)
      << busy;
  EXPECT_EQ(server.stats().rejected_busy, 1u);

  // Once an idle peer leaves, its slot serves requests again.
  ::close(idle.back());
  idle.pop_back();
  int status = 0;
  for (int i = 0; i < 100 && status != 200; ++i) {
    status = http::http_get("127.0.0.1", server.port(), "/", 2.0).status;
    if (status != 200) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_EQ(status, 200);
  for (const int fd : idle) ::close(fd);
}

TEST(HttpServer, StopIsIdempotentAndJoinsThreads) {
  http::Server server(ephemeral(), [](const http::Request&) {
    return http::Response::text(200, "ok");
  });
  server.start();
  const std::uint16_t port = server.port();
  ASSERT_TRUE(http::http_get("127.0.0.1", port, "/").ok);

  server.stop();
  EXPECT_FALSE(server.running());
  server.stop();  // second stop is a no-op
  EXPECT_FALSE(server.running());

  // The listener is gone: a new connection must fail.
  const http::ClientResponse after =
      http::http_get("127.0.0.1", port, "/", 0.5);
  EXPECT_FALSE(after.ok);
}

TEST(HttpServer, DestructorStopsARunningServer) {
  std::uint16_t port = 0;
  {
    http::Server server(ephemeral(), [](const http::Request&) {
      return http::Response::text(200, "ok");
    });
    server.start();
    port = server.port();
    ASSERT_TRUE(http::http_get("127.0.0.1", port, "/").ok);
  }
  EXPECT_FALSE(http::http_get("127.0.0.1", port, "/", 0.5).ok);
}

TEST(HttpServer, CountsAcceptedAndServed) {
  http::Server server(ephemeral(), [](const http::Request&) {
    return http::Response::text(200, "ok");
  });
  server.start();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(http::http_get("127.0.0.1", server.port(), "/").ok);
  }
  const http::ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, 3u);
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.served, 3u);
  EXPECT_EQ(stats.bad_requests, 0u);
}

TEST(HttpServer, SlowlorisHeadCountsExactlyOneRequest) {
  http::Server server(ephemeral(), [](const http::Request&) {
    return http::Response::text(200, "ok");
  });
  server.start();

  // Trickle the head in one byte per send(): the server sees many partial
  // recv() returns but must still parse — and count — a single request.
  const std::string wire = "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  for (const char byte : wire) {
    ASSERT_EQ(::send(fd, &byte, 1, 0), 1);
  }
  std::string response;
  char buffer[1024];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);

  EXPECT_NE(response.find("200 OK"), std::string::npos);
  const http::ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.served, 1u);
  EXPECT_EQ(stats.bad_requests, 0u);
}

TEST(HttpServer, PipelinedSecondRequestIsDroppedNotMistakenForABody) {
  http::Server server(ephemeral(), [](const http::Request& request) {
    return http::Response::text(200, "echo:" + request.path);
  });
  server.start();

  // Two pipelined GETs in one segment. Connection: close semantics — the
  // first is served, the trailing bytes are neither a 413-triggering body
  // nor a second served request.
  const std::string wire =
      "GET /first HTTP/1.1\r\n\r\n"
      "GET /second HTTP/1.1\r\n\r\n";
  const std::string response = raw_exchange(server.port(), wire);

  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("echo:/first"), std::string::npos);
  EXPECT_EQ(response.find("echo:/second"), std::string::npos);
  EXPECT_EQ(response.find("413"), std::string::npos);
  const http::ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.served, 1u);
  EXPECT_EQ(stats.bad_requests, 0u);
}

TEST(HttpClient, ReportsConnectFailure) {
  // Port 1 on loopback is essentially never bound.
  const http::ClientResponse response =
      http::http_get("127.0.0.1", 1, "/", 0.5);
  EXPECT_FALSE(response.ok);
  EXPECT_FALSE(response.error.empty());
}

TEST(HttpResponse, StatusReasonCoversCommonCodes) {
  EXPECT_STREQ(http::status_reason(200), "OK");
  EXPECT_STREQ(http::status_reason(404), "Not Found");
  EXPECT_STREQ(http::status_reason(503), "Service Unavailable");
}

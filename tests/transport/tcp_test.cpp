// transport::ConnectionServer — the thread-per-connection core under the
// admin HTTP server and the LU server: the live-connection cap and stop()
// with idle peers attached.
#include "transport/tcp.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace mgrid::transport {
namespace {

/// Echoes bytes until the peer closes.
void echo(int fd) {
  char byte = 0;
  while (::recv(fd, &byte, 1, 0) == 1) {
    if (!send_all(fd, &byte, 1)) return;
  }
}

/// One client socket, closed on scope exit.
class Client {
 public:
  explicit Client(std::uint16_t port) {
    std::string error;
    fd_ = connect_tcp("127.0.0.1", port, 5.0, error);
    EXPECT_GE(fd_, 0) << error;
    set_io_timeout(fd_, 5.0);
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// True when the server echoes one byte back.
  bool echoes() const {
    const char sent = 'x';
    char got = 0;
    return send_all(fd_, &sent, 1) && ::recv(fd_, &got, 1, 0) == 1 &&
           got == sent;
  }
  /// True when the server closed the connection.
  bool closed_by_server() const {
    char got = 0;
    return ::recv(fd_, &got, 1, 0) == 0;
  }

 private:
  int fd_ = -1;
};

TEST(ConnectionServer, RefusesConnectionsBeyondTheCapAndKeepsServingTheRest) {
  std::atomic<int> rejected_fds{0};
  ConnectionServer server("echo", echo, [&](int) { ++rejected_fds; });
  server.start("127.0.0.1", 0);

  std::vector<std::unique_ptr<Client>> live;
  for (std::size_t i = 0; i < ConnectionServer::kMaxConnections; ++i) {
    live.push_back(std::make_unique<Client>(server.port()));
    ASSERT_TRUE(live.back()->echoes()) << "connection " << i;
  }

  // cap + 1: refused and counted, the rejecter saw it first.
  Client extra(server.port());
  EXPECT_TRUE(extra.closed_by_server());
  EXPECT_EQ(server.rejected_busy(), 1u);
  EXPECT_EQ(rejected_fds.load(), 1);
  EXPECT_EQ(server.accepted(), ConnectionServer::kMaxConnections + 1);

  // The connections already open keep being served.
  for (const auto& client : live) EXPECT_TRUE(client->echoes());

  // A slot freed by a peer leaving is reused once its thread has ended.
  live.pop_back();
  bool served = false;
  for (int attempt = 0; attempt < 100 && !served; ++attempt) {
    Client next(server.port());
    served = next.echoes();
    if (!served) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(served);
  server.stop();
}

TEST(ConnectionServer, StopShutsIdleConnectionsDownAndJoins) {
  ConnectionServer server("echo", echo);
  server.start("127.0.0.1", 0);
  EXPECT_TRUE(server.running());
  Client idle(server.port());
  ASSERT_TRUE(idle.echoes());

  const auto start = std::chrono::steady_clock::now();
  server.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  EXPECT_FALSE(server.running());
  EXPECT_TRUE(idle.closed_by_server());
  server.stop();  // idempotent
  EXPECT_THROW(server.start("127.0.0.1", 0), std::runtime_error);
}

}  // namespace
}  // namespace mgrid::transport

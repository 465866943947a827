#include "cluster/lu_server.h"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "cluster/client.h"
#include "cluster/router.h"
#include "estimation/estimator.h"
#include "obs/span.h"
#include "serve/directory.h"
#include "serve/ingest.h"
#include "serve/wal.h"
#include "serve/wire.h"
#include "transport/tcp.h"

namespace mgrid::cluster {
namespace {

namespace fs = std::filesystem;

serve::DirectoryOptions directory_options() {
  serve::DirectoryOptions options;
  options.shards = 4;
  options.history_limit = 4;
  return options;
}

std::unique_ptr<serve::ShardedDirectory> make_directory() {
  return std::make_unique<serve::ShardedDirectory>(
      directory_options(), estimation::make_estimator("brown_polar", 0.3, 1.0));
}

/// Deterministic walk (mirrors the recovery tests): every odd tick MN 0
/// skips its LU so estimator forecasts actually fire at the barrier.
wire::LuMsg walk_lu(std::uint32_t mn, std::uint64_t k) {
  wire::LuMsg lu;
  lu.mn = mn;
  lu.seq = static_cast<std::uint32_t>(k);
  lu.t = static_cast<double>(k);
  lu.x = 100.0 + 3.0 * static_cast<double>(mn) +
         1.7 * static_cast<double>(k) + 0.1 * std::sin(static_cast<double>(k));
  lu.y = 50.0 + 2.0 * static_cast<double>(mn) - 0.9 * static_cast<double>(k);
  lu.vx = 1.7;
  lu.vy = -0.9;
  return lu;
}

void expect_identical(const serve::ShardedDirectory& a,
                      const serve::ShardedDirectory& b) {
  const std::vector<serve::DirectoryEntry> sa = a.snapshot();
  const std::vector<serve::DirectoryEntry> sb = b.snapshot();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].mn, sb[i].mn);
    EXPECT_EQ(sa[i].t, sb[i].t) << "mn " << sa[i].mn;
    EXPECT_EQ(sa[i].position.x, sb[i].position.x) << "mn " << sa[i].mn;
    EXPECT_EQ(sa[i].position.y, sb[i].position.y) << "mn " << sa[i].mn;
    EXPECT_EQ(sa[i].estimated, sb[i].estimated) << "mn " << sa[i].mn;
  }
}

/// One shard node: directory + pipeline + LU server on an ephemeral port.
struct ShardUnderTest {
  std::unique_ptr<serve::ShardedDirectory> directory = make_directory();
  std::unique_ptr<serve::IngestPipeline> pipeline;
  std::unique_ptr<LuServer> server;

  explicit ShardUnderTest(serve::WalWriter* wal = nullptr) {
    serve::IngestOptions ingest;
    ingest.sources = 3;
    ingest.workers = 2;
    ingest.wal = wal;
    pipeline = std::make_unique<serve::IngestPipeline>(*directory, ingest);
    LuServerHooks hooks;
    hooks.directory = directory.get();
    hooks.pipeline = pipeline.get();
    hooks.wal = wal;
    server = std::make_unique<LuServer>(LuServerOptions{}, hooks);
    server->start();
  }
  ~ShardUnderTest() {
    server->stop();
    pipeline->stop();
  }
};

/// The wire frame of a WAL record (an LU or a tick).
std::vector<std::uint8_t> wal_frame(const wire::Message& record) {
  std::vector<std::uint8_t> frame;
  if (const auto* lu = std::get_if<wire::LuMsg>(&record)) {
    wire::encode(frame, *lu);
  } else if (const auto* tick = std::get_if<wire::TickMsg>(&record)) {
    wire::encode(frame, *tick);
  }
  return frame;
}

ShardClient make_client(const ShardUnderTest& shard) {
  ShardClientOptions options;
  options.name = "test-shard";
  options.port = shard.server->port();
  return ShardClient(options);
}

TEST(LuServer, StreamedTicksMatchLocalPipelineBitExact) {
  const std::string wal_dir =
      (fs::temp_directory_path() / "mgrid_lu_server_stream_test").string();
  fs::remove_all(wal_dir);
  fs::create_directories(wal_dir);
  serve::WalWriter wal(wal_dir + "/wal.log", serve::FsyncPolicy::kNever);
  ShardUnderTest shard(&wal);
  ShardClient client = make_client(shard);
  std::string error;
  ASSERT_TRUE(client.connect(&error)) << error;

  // Reference: the identical stream through a local pipeline + barriers.
  const std::unique_ptr<serve::ShardedDirectory> reference = make_directory();
  serve::IngestOptions ingest;
  ingest.sources = 3;
  ingest.workers = 2;
  serve::IngestPipeline local(*reference, ingest);

  constexpr std::uint32_t kNodes = 6;
  constexpr std::uint64_t kTicks = 10;
  std::uint64_t lus = 0;
  for (std::uint64_t k = 1; k <= kTicks; ++k) {
    std::vector<BatchLu> batch;
    for (std::uint32_t mn = 0; mn < kNodes; ++mn) {
      if (mn == 0 && k % 2 == 1) continue;
      batch.push_back({walk_lu(mn, k)});
      ASSERT_TRUE(local.submit(walk_lu(mn, k)));
    }
    lus += batch.size();
    ASSERT_TRUE(client.send_lus(batch));
    // tick() blocks for the ack, which the server only sends after its
    // barrier — so the two directories are comparable right here.
    ASSERT_TRUE(client.tick(static_cast<double>(k), k));
    local.flush();
    reference->advance_estimates(static_cast<double>(k));
  }
  expect_identical(*reference, *shard.directory);

  const LuServerStats stats = shard.server->stats();
  EXPECT_EQ(stats.lus, lus);
  EXPECT_EQ(stats.lus_rejected, 0u);
  EXPECT_EQ(stats.ticks, kTicks);
  EXPECT_EQ(stats.connections, 1u);
  EXPECT_EQ(stats.bad_frames, 0u);
  // The server WAL'd the full stream: one record per LU plus one per tick.
  EXPECT_EQ(wal.records_appended(), lus + kTicks);

  local.stop();
  fs::remove_all(wal_dir);
}

TEST(LuServer, WalFollowsTheRoutersSendOrderTicksIncluded) {
  // Two WAL'd shards behind a router that batches 16 LUs per send and
  // traces one LU in four, so a shard receives runs that mix kLu and
  // kTracedLu frames and end at ticks. Each shard's WAL must hold exactly
  // the LUs the router routed to it, in submission order, each tick's
  // records closed by that tick's barrier.
  const fs::path wal_dir =
      fs::temp_directory_path() / "mgrid_lu_server_wal_order_test";
  fs::remove_all(wal_dir);
  fs::create_directories(wal_dir);
  const std::vector<std::string> names = {"a", "b"};
  std::vector<std::unique_ptr<serve::WalWriter>> wals;
  std::vector<std::unique_ptr<ShardUnderTest>> shards;
  std::vector<RouterShardConfig> configs;
  for (const std::string& name : names) {
    wals.push_back(std::make_unique<serve::WalWriter>(
        (wal_dir / (name + ".log")).string(), serve::FsyncPolicy::kNever));
    shards.push_back(std::make_unique<ShardUnderTest>(wals.back().get()));
    RouterShardConfig config;
    config.name = name;
    config.lu_port = shards.back()->server->port();
    configs.push_back(config);
  }
  obs::SpanTracerOptions span_options;
  span_options.sample_period = 4;
  span_options.emit_trace_events = false;
  obs::SpanTracer tracer(span_options);
  tracer.set_enabled(true);
  RouterOptions options;
  options.health_period_seconds = 0.0;
  options.batch_size = 16;
  options.spans = &tracer;
  Router router(options, configs);
  std::string error;
  ASSERT_TRUE(router.start(&error)) << error;

  constexpr std::uint32_t kNodes = 50;
  constexpr std::uint64_t kTicks = 6;
  std::vector<std::vector<wire::Message>> want(names.size());
  for (std::uint64_t k = 1; k <= kTicks; ++k) {
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      // A different MN order every tick, so runs cross source queues.
      const std::uint32_t mn =
          static_cast<std::uint32_t>((i * 17 + k * 11) % kNodes);
      const wire::LuMsg lu = walk_lu(mn, k);
      ASSERT_TRUE(router.submit(lu));
      const std::string owner = router.owner(mn);
      want[owner == "a" ? 0 : 1].push_back(lu);
    }
    ASSERT_TRUE(router.tick(static_cast<double>(k), k));
    for (auto& records : want) {
      records.push_back(wire::TickMsg{static_cast<double>(k), k});
    }
  }
  router.stop();
  for (std::size_t s = 0; s < names.size(); ++s) {
    SCOPED_TRACE("shard " + names[s]);
    shards[s].reset();
    ASSERT_TRUE(wals[s]->sync());
    const serve::WalReadResult read = serve::read_wal(wals[s]->path());
    EXPECT_EQ(read.status, serve::WalReadStatus::kEnd);
    ASSERT_EQ(read.records.size(), want[s].size());
    for (std::size_t r = 0; r < want[s].size(); ++r) {
      ASSERT_EQ(wal_frame(read.records[r]), wal_frame(want[s][r]))
          << "record " << r;
    }
  }
  EXPECT_GT(want[0].size(), kTicks);
  EXPECT_GT(want[1].size(), kTicks);
  fs::remove_all(wal_dir);
}

TEST(LuServer, LookupRepliesMirrorTheDirectory) {
  ShardUnderTest shard;
  ShardClient client = make_client(shard);
  ASSERT_TRUE(client.connect());

  for (std::uint64_t k = 1; k <= 4; ++k) {
    std::vector<BatchLu> batch;
    for (std::uint32_t mn = 0; mn < 3; ++mn) {
      batch.push_back({walk_lu(mn, k)});
    }
    ASSERT_TRUE(client.send_lus(batch));
    ASSERT_TRUE(client.tick(static_cast<double>(k), k));
  }

  // Present MN, query at the fix time: the reply is the stored fix.
  const auto entry = shard.directory->lookup(1);
  ASSERT_TRUE(entry.has_value());
  const auto reply = client.lookup(1, entry->t);
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->found);
  EXPECT_EQ(reply->estimated, entry->estimated);
  EXPECT_EQ(reply->t, entry->t);
  EXPECT_EQ(reply->x, entry->position.x);
  EXPECT_EQ(reply->y, entry->position.y);

  // Future query time: the reply is the estimator's belief at t.
  const double future = entry->t + 2.5;
  const auto belief = shard.directory->belief_at(1, future);
  ASSERT_TRUE(belief.has_value());
  const auto forecast = client.lookup(1, future);
  ASSERT_TRUE(forecast.has_value());
  EXPECT_TRUE(forecast->found);
  EXPECT_TRUE(forecast->estimated);
  EXPECT_EQ(forecast->x, belief->x);
  EXPECT_EQ(forecast->y, belief->y);

  // Unknown MN: found == false.
  const auto missing = client.lookup(999, 4.0);
  ASSERT_TRUE(missing.has_value());
  EXPECT_FALSE(missing->found);
  EXPECT_EQ(shard.server->stats().lookups, 3u);
}

TEST(LuServer, SpatialQueriesMirrorTheDirectory) {
  ShardUnderTest shard;
  ShardClient client = make_client(shard);
  ASSERT_TRUE(client.connect());

  for (std::uint64_t k = 1; k <= 3; ++k) {
    std::vector<BatchLu> batch;
    for (std::uint32_t mn = 0; mn < 8; ++mn) {
      batch.push_back({walk_lu(mn, k)});
    }
    ASSERT_TRUE(client.send_lus(batch));
    ASSERT_TRUE(client.tick(static_cast<double>(k), k));
  }

  const geo::Vec2 center{110.0, 55.0};
  const std::vector<serve::Neighbor> want =
      shard.directory->query_region(center, 25.0, 0);
  ASSERT_FALSE(want.empty());
  std::vector<wire::NeighborMsg> got;
  ASSERT_TRUE(client.query_region({center.x, center.y, 25.0, 0}, got));
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].mn, want[i].mn);
    EXPECT_EQ(got[i].distance, want[i].distance);
    EXPECT_EQ(got[i].x, want[i].position.x);
    EXPECT_EQ(got[i].y, want[i].position.y);
  }

  const std::vector<serve::Neighbor> nearest =
      shard.directory->k_nearest(center, 3);
  std::vector<wire::NeighborMsg> got_nearest;
  ASSERT_TRUE(client.k_nearest({center.x, center.y, 3}, got_nearest));
  ASSERT_EQ(got_nearest.size(), nearest.size());
  for (std::size_t i = 0; i < nearest.size(); ++i) {
    EXPECT_EQ(got_nearest[i].mn, nearest[i].mn);
    EXPECT_EQ(got_nearest[i].distance, nearest[i].distance);
  }

  const LuServerStats stats = shard.server->stats();
  EXPECT_EQ(stats.region_queries, 1u);
  EXPECT_EQ(stats.nearest_queries, 1u);
  EXPECT_EQ(stats.neighbors_sent, want.size() + nearest.size());
}

TEST(LuServer, GarbageBytesDropTheConnectionNotTheServer) {
  ShardUnderTest shard;

  // A hostile client speaking HTTP at the LU port.
  std::string error;
  const int fd =
      transport::connect_tcp("127.0.0.1", shard.server->port(), 5.0, error);
  ASSERT_GE(fd, 0) << error;
  FrameConn hostile(fd, 5.0);
  const std::string garbage = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_TRUE(hostile.send(
      reinterpret_cast<const std::uint8_t*>(garbage.data()), garbage.size()));
  wire::Message msg;
  EXPECT_FALSE(hostile.recv_message(msg));  // server closed on decode error

  // The server survived: a well-formed client still gets service.
  ShardClient client = make_client(shard);
  ASSERT_TRUE(client.connect(&error)) << error;
  ASSERT_TRUE(client.send_lus({{walk_lu(5, 1)}}));
  ASSERT_TRUE(client.tick(1.0, 1));
  const auto reply = client.lookup(5, 1.0);
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->found);
  EXPECT_GE(shard.server->stats().bad_frames, 1u);
}

TEST(LuServer, IdleConnectionsDoNotDelayTheRouter) {
  ShardUnderTest shard;
  std::vector<FrameConn> idle;
  for (int i = 0; i < 8; ++i) {
    std::string error;
    const int fd =
        transport::connect_tcp("127.0.0.1", shard.server->port(), 5.0, error);
    ASSERT_GE(fd, 0) << error;
    idle.emplace_back(fd, 0.0);
  }

  ShardClientOptions options;
  options.port = shard.server->port();
  options.io_timeout_seconds = 1.0;
  ShardClient client(options);
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(client.connect());
  ASSERT_TRUE(client.send_lus({{walk_lu(3, 1)}}));
  ASSERT_TRUE(client.tick(1.0, 1));
  const auto reply = client.lookup(3, 1.0);
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->found);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
}

/// Runs in a forked child: exhausts the process's fds so the server's
/// accept() fails with EMFILE, frees them, and reports whether a client
/// that connects afterwards is served.
bool served_after_fd_exhaustion() {
  ShardUnderTest shard;
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return false;
  limit.rlim_cur = 256;
  if (::setrlimit(RLIMIT_NOFILE, &limit) != 0) return false;
  std::vector<int> hog;
  for (int fd; (fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC)) >= 0;) {
    hog.push_back(fd);
  }
  if (hog.empty()) return false;
  // The server's pending accept() already holds an fd slot. A first client
  // (on the one fd freed here) uses it up, so the next accept() fails with
  // EMFILE, and keeps failing while the hog holds every fd.
  ::close(hog.back());
  hog.pop_back();
  ShardClientOptions options;
  options.port = shard.server->port();
  options.io_timeout_seconds = 2.0;
  ShardClient first(options);
  if (!first.connect()) return false;
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (const int fd : hog) ::close(fd);

  ShardClient second(options);
  return second.connect() && second.send_lus({{walk_lu(2, 1)}}) &&
         second.tick(1.0, 1) && second.lookup(2, 1.0).has_value();
}

TEST(LuServerDeathTest, AcceptLoopSurvivesFdExhaustion) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(std::_Exit(served_after_fd_exhaustion() ? 0 : 1),
              ::testing::ExitedWithCode(0), "");
}

TEST(LuServer, StartRequiresHooksAndStopIsIdempotent) {
  {
    LuServer missing(LuServerOptions{}, LuServerHooks{});
    EXPECT_THROW(missing.start(), std::runtime_error);
  }
  ShardUnderTest shard;
  EXPECT_TRUE(shard.server->running());
  EXPECT_GT(shard.server->port(), 0);
  shard.server->stop();
  shard.server->stop();
  EXPECT_FALSE(shard.server->running());
}

}  // namespace
}  // namespace mgrid::cluster

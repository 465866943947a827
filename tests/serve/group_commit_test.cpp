// The ingest pipeline's batch wake-ups and the WAL's group commit: the WAL
// bytes match a serial record-at-a-time encoding, an LU is in the WAL file
// before a lookup can see it, partial batches drain without a flush, and a
// worker wakes once per batch rather than once per LU.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "serve/directory.h"
#include "serve/ingest.h"
#include "serve/wal.h"
#include "serve/wire.h"

namespace mgrid::serve {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

class GroupCommitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("mgrid_group_commit_test_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

DirectoryOptions directory_options() {
  DirectoryOptions options;
  options.shards = 4;
  options.history_limit = 4;
  return options;
}

wire::LuMsg lu(std::uint32_t mn, std::uint32_t seq) {
  wire::LuMsg msg;
  msg.mn = mn;
  msg.seq = seq;
  msg.t = 1.0 + static_cast<double>(seq);
  msg.x = static_cast<double>(mn) + 0.25 * static_cast<double>(seq);
  msg.y = -static_cast<double>(seq);
  msg.vx = 0.5;
  msg.vy = -0.5;
  return msg;
}

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// Appends one [crc32c][frame] record the way a record-at-a-time writer
/// would.
template <typename Msg>
void append_reference(std::vector<std::uint8_t>& out, const Msg& msg) {
  std::vector<std::uint8_t> frame;
  wire::encode(frame, msg);
  const std::uint32_t crc = crc32c(frame.data(), frame.size());
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(crc >> shift));
  }
  out.insert(out.end(), frame.begin(), frame.end());
}

/// True when the WAL at `path` holds an LU record for `mn` at time `t`.
bool wal_holds(const std::string& path, std::uint32_t mn, double t) {
  for (const wire::Message& record : read_wal(path).records) {
    const auto* held = std::get_if<wire::LuMsg>(&record);
    if (held != nullptr && held->mn == mn && held->t == t) return true;
  }
  return false;
}

TEST_F(GroupCommitTest, WalBytesMatchASerialEncodingAtAnyWorkerCount) {
  constexpr std::uint32_t kNodes = 40;
  constexpr std::uint32_t kTicks = 5;
  std::vector<std::uint8_t> reference(std::begin(kWalHeader),
                                      std::end(kWalHeader));
  for (std::uint32_t k = 1; k <= kTicks; ++k) {
    for (std::uint32_t mn = 0; mn < kNodes; ++mn) {
      append_reference(reference, lu(mn, k));
    }
    append_reference(reference,
                     wire::TickMsg{static_cast<double>(k), k});
  }

  for (const FsyncPolicy policy :
       {FsyncPolicy::kNever, FsyncPolicy::kEveryTick,
        FsyncPolicy::kEveryRecord}) {
    for (const std::size_t workers : {std::size_t{1}, std::size_t{8}}) {
      SCOPED_TRACE(std::string(to_string(policy)) + " workers=" +
                   std::to_string(workers));
      const std::string wal_path = path(
          std::string("wal_") + to_string(policy) + "_" +
          std::to_string(workers) + ".log");
      {
        WalWriter wal(wal_path, policy);
        ShardedDirectory directory(directory_options());
        IngestOptions options;
        options.sources = 8;
        options.workers = workers;
        options.batch_size = 16;
        options.wal = &wal;
        IngestPipeline pipeline(directory, options);
        for (std::uint32_t k = 1; k <= kTicks; ++k) {
          for (std::uint32_t mn = 0; mn < kNodes; ++mn) {
            ASSERT_TRUE(pipeline.submit(lu(mn, k)));
          }
          pipeline.flush();
          ASSERT_TRUE(wal.append_tick(static_cast<double>(k), k));
        }
        pipeline.stop();
        EXPECT_FALSE(wal.failed());
      }
      EXPECT_EQ(file_bytes(wal_path), reference);
    }
  }
}

TEST_F(GroupCommitTest, AnLuIsInTheWalFileBeforeALookupSeesIt) {
  constexpr std::uint32_t kNodes = 7;
  constexpr std::uint32_t kPerNode = 300;
  const std::string wal_path = path("wal.log");
  WalWriter wal(wal_path, FsyncPolicy::kNever);
  ShardedDirectory directory(directory_options());
  IngestOptions options;
  options.sources = 4;
  options.workers = 2;
  options.batch_size = 32;
  options.wal = &wal;
  IngestPipeline pipeline(directory, options);

  std::atomic<bool> produced{false};
  std::thread producer([&pipeline, &produced] {
    for (std::uint32_t seq = 1; seq <= kPerNode; ++seq) {
      for (std::uint32_t mn = 0; mn < kNodes; ++mn) {
        pipeline.submit(lu(mn, seq));
      }
      // Pace the stream so lookups interleave with partial batches.
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    produced.store(true);
  });
  // No tick and no flush: whatever a lookup sees must already be on disk.
  std::uint32_t checks = 0;
  for (std::uint32_t round = 0; !produced.load(); ++round) {
    const std::uint32_t mn = round % kNodes;
    const auto entry = directory.lookup(mn);
    if (!entry.has_value()) continue;
    if (!wal_holds(wal_path, mn, entry->t)) {
      ADD_FAILURE() << "mn " << mn << " visible at t=" << entry->t
                    << " but missing from the WAL file";
      break;
    }
    ++checks;
  }
  producer.join();
  pipeline.flush();
  const auto last = directory.lookup(0);
  ASSERT_TRUE(last.has_value());
  EXPECT_TRUE(wal_holds(wal_path, 0, last->t));
  EXPECT_GT(checks, 0u);
  pipeline.stop();
}

/// Polls until `done` holds or `limit` passes; returns whether it held.
template <typename Pred>
bool eventually(Pred done, std::chrono::milliseconds limit) {
  const auto deadline = Clock::now() + limit;
  while (!done()) {
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

TEST_F(GroupCommitTest, APartialBatchBecomesVisibleWithoutAFlush) {
  ShardedDirectory directory(directory_options());
  IngestOptions options;
  options.batch_size = 256;
  IngestPipeline pipeline(directory, options);
  ASSERT_TRUE(pipeline.submit(lu(3, 1)));
  EXPECT_TRUE(eventually([&] { return directory.lookup(3).has_value(); },
                         std::chrono::seconds(1)));
  EXPECT_EQ(pipeline.pending(), 0u);
  pipeline.stop();
}

TEST_F(GroupCommitTest, AQueueSmallerThanABatchDrainsWithoutAFlush) {
  ShardedDirectory directory(directory_options());
  IngestOptions options;
  options.sources = 1;
  options.batch_size = 256;
  options.queue_capacity = 4;
  IngestPipeline pipeline(directory, options);
  constexpr std::uint32_t kLus = 100;
  const auto deadline = Clock::now() + std::chrono::seconds(1);
  for (std::uint32_t seq = 1; seq <= kLus; ++seq) {
    // A full queue rejects; the worker must drain it without a flush.
    while (!pipeline.submit(lu(0, seq))) {
      ASSERT_LT(Clock::now(), deadline) << "queue never drained";
      std::this_thread::yield();
    }
  }
  EXPECT_TRUE(eventually([&] { return pipeline.stats().applied == kLus; },
                         std::chrono::seconds(1)));
  pipeline.stop();
}

TEST_F(GroupCommitTest, WorkersWakeOncePerBatchNotPerLu) {
  WalWriter wal(path("wal.log"), FsyncPolicy::kNever);
  ShardedDirectory directory(directory_options());
  IngestOptions options;
  options.sources = 8;
  options.workers = 2;
  options.batch_size = 256;
  options.wal = &wal;
  IngestPipeline pipeline(directory, options);
  constexpr std::uint32_t kLus = 8192;
  const auto start = Clock::now();
  for (std::uint32_t i = 0; i < kLus; ++i) {
    ASSERT_TRUE(pipeline.submit(lu(i % 1000, i / 1000)));
  }
  pipeline.flush();
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  const IngestStats stats = pipeline.stats();
  EXPECT_EQ(stats.applied, kLus);
  // Batches of batch_size LUs number at most accepted / batch_size. A
  // smaller batch only comes from a pass that drains every partial queue:
  // one per linger period per worker, plus the flush at the end. A worker
  // woken per LU drains about one LU per batch here instead.
  const double linger_ms =
      std::chrono::duration<double, std::milli>(IngestPipeline::kMaxLinger)
          .count();
  const double bound =
      static_cast<double>(stats.accepted / options.batch_size) +
      static_cast<double>(options.sources) * (elapsed_ms / linger_ms + 2.0);
  EXPECT_LE(static_cast<double>(stats.batches), bound)
      << stats.batches << " batches for " << stats.accepted << " LUs in "
      << elapsed_ms << " ms";
  pipeline.stop();
}

}  // namespace
}  // namespace mgrid::serve

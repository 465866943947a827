// The ingest pipeline's batch wake-ups and the WAL's group commit: the WAL
// bytes match a serial record-at-a-time encoding, an LU is in the WAL file
// before a lookup can see it, partial batches drain without a flush, a
// worker wakes once per batch rather than once per LU, and a run submitted
// as one unit is indistinguishable from its LUs submitted one by one.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <tuple>
#include <thread>
#include <variant>
#include <vector>

#include "obs/span.h"
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

/// What one pass of the run-vs-sequential comparison leaves behind.
struct SubmitOutcome {
  std::vector<std::uint8_t> wal;
  /// Every tap call, encoded as the frame the replication hub would send.
  std::vector<std::uint8_t> taps;
  IngestStats stats;
  std::size_t accepted_returned = 0;  ///< Sum of the submit results.
  /// (trace id, mn, seq) of every recorded span, sorted.
  std::vector<std::tuple<std::uint64_t, std::uint32_t, std::uint32_t>> spans;
};

/// Submits `lus` to a paused pipeline with a bounded, shedding queue, a WAL,
/// both taps and a span tracer, then drains it. `run_sizes` empty submits
/// one LU per submit()/submit_traced() call; otherwise submit_batch() takes
/// runs of the given sizes, cycled. The queues are paused while LUs arrive,
/// so admission depends only on the submission order.
SubmitOutcome submit_through_pipeline(
    const std::string& wal_path, std::size_t workers,
    const std::vector<IngestLu>& lus,
    const std::vector<std::size_t>& run_sizes) {
  obs::SpanTracerOptions span_options;
  span_options.sample_period = 8;
  span_options.ring_capacity = lus.size();
  span_options.emit_trace_events = false;
  obs::SpanTracer tracer(span_options);
  tracer.set_enabled(true);

  SubmitOutcome outcome;
  {
    WalWriter wal(wal_path, FsyncPolicy::kNever);
    ShardedDirectory directory(directory_options());
    IngestOptions options;
    options.sources = 4;
    options.workers = workers;
    options.batch_size = 16;
    options.queue_capacity = 48;
    options.shed_watermark = 0.5;
    options.shed_min_displacement = 5.0;
    options.start_paused = true;
    options.wal = &wal;
    options.spans = &tracer;
    options.lu_tap = [&outcome](const wire::LuMsg& msg) {
      wire::encode(outcome.taps, msg);
    };
    options.traced_lu_tap = [&outcome](const wire::TracedLuMsg& msg) {
      wire::encode(outcome.taps, msg);
    };
    IngestPipeline pipeline(directory, options);
    if (run_sizes.empty()) {
      for (const IngestLu& item : lus) {
        const bool accepted = item.trace.trace_id != 0
                                  ? pipeline.submit_traced(item.msg, item.trace)
                                  : pipeline.submit(item.msg);
        outcome.accepted_returned += accepted ? 1 : 0;
      }
    } else {
      std::size_t next = 0;
      for (std::size_t r = 0; next < lus.size(); ++r) {
        const std::size_t size =
            std::min(run_sizes[r % run_sizes.size()], lus.size() - next);
        outcome.accepted_returned += pipeline.submit_batch(
            std::span<const IngestLu>(lus.data() + next, size));
        next += size;
      }
    }
    pipeline.flush();
    pipeline.stop();
    outcome.stats = pipeline.stats();
  }
  outcome.wal = file_bytes(wal_path);
  for (const obs::LuSpan& span : tracer.snapshot().recent) {
    outcome.spans.emplace_back(span.trace_id, span.mn, span.seq);
  }
  std::sort(outcome.spans.begin(), outcome.spans.end());
  return outcome;
}

TEST_F(GroupCommitTest, ARunSubmitsLikeItsLusOneByOne) {
  // 37 MNs, 16 updates each: odd MNs move 10 m per update, even ones 1 m,
  // so past the shed watermark the even MNs' LUs are shed, and past the
  // queue capacity every LU is rejected. Every fifth LU carries a trace
  // context.
  std::vector<IngestLu> lus;
  for (std::uint32_t k = 0; k < 16; ++k) {
    for (std::uint32_t mn = 0; mn < 37; ++mn) {
      IngestLu item;
      item.msg = lu(mn, k);
      item.msg.x = static_cast<double>(k) * (mn % 2 == 1 ? 10.0 : 1.0);
      if (lus.size() % 5 == 0) {
        item.trace.trace_id = 0x7000 + lus.size();
        item.trace.origin_us = 1000 + lus.size();
        item.trace.send_us = 2000 + lus.size();
        item.trace.recv_us = 3000 + lus.size();
      }
      lus.push_back(item);
    }
  }
  for (const std::size_t workers : {std::size_t{1}, std::size_t{8}}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const SubmitOutcome one_by_one = submit_through_pipeline(
        path("single_" + std::to_string(workers) + ".log"), workers, lus, {});
    const SubmitOutcome runs = submit_through_pipeline(
        path("runs_" + std::to_string(workers) + ".log"), workers, lus,
        {1, 7, 64, 3, 200, 2});

    // The comparison only means something if every admission path ran.
    EXPECT_GT(one_by_one.stats.accepted, 0u);
    EXPECT_GT(one_by_one.stats.shed_low_info, 0u);
    EXPECT_GT(one_by_one.stats.rejected_full, 0u);
    EXPECT_FALSE(one_by_one.spans.empty());

    EXPECT_EQ(runs.wal, one_by_one.wal);
    EXPECT_EQ(runs.taps, one_by_one.taps);
    EXPECT_EQ(runs.stats.accepted, one_by_one.stats.accepted);
    EXPECT_EQ(runs.stats.rejected_full, one_by_one.stats.rejected_full);
    EXPECT_EQ(runs.stats.shed_low_info, one_by_one.stats.shed_low_info);
    EXPECT_EQ(runs.stats.applied, one_by_one.stats.applied);
    EXPECT_EQ(runs.accepted_returned, one_by_one.accepted_returned);
    EXPECT_EQ(runs.accepted_returned, runs.stats.accepted);
    EXPECT_EQ(runs.spans, one_by_one.spans);
  }
}

}  // namespace
}  // namespace mgrid::serve

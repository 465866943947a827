#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace mgrid::obs {
namespace {

TEST(MetricsRegistry, CounterAccumulatesExactly) {
  ScopedEnable on;
  MetricsRegistry registry;
  Counter counter = registry.counter("test_total");
  counter.inc();
  counter.inc(41);
  EXPECT_EQ(counter.value(), 42u);
}

TEST(MetricsRegistry, DisabledRecordingIsANoOp) {
  ScopedEnable off(false);
  MetricsRegistry registry;
  Counter counter = registry.counter("test_total");
  Gauge gauge = registry.gauge("test_gauge");
  HistogramMetric histogram = registry.histogram("test_hist", 0.0, 1.0, 4);
  counter.inc(7);
  gauge.set(3.0);
  histogram.observe(0.5);
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(gauge.value(), 0.0);
  EXPECT_EQ(histogram.stats().count(), 0u);
}

TEST(MetricsRegistry, DefaultConstructedHandlesAreSafe) {
  ScopedEnable on;
  Counter counter;
  Gauge gauge;
  HistogramMetric histogram;
  counter.inc();
  gauge.set(1.0);
  histogram.observe(1.0);
  EXPECT_FALSE(counter.valid());
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(histogram.stats().count(), 0u);
}

TEST(MetricsRegistry, ShardedCounterSurvivesThreadContention) {
  ScopedEnable on;
  MetricsRegistry registry;
  Counter counter = registry.counter("contended_total");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&counter] {
      for (std::uint64_t n = 0; n < kPerThread; ++n) counter.inc();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(MetricsRegistry, ShardedHistogramMergesAcrossThreads) {
  ScopedEnable on;
  MetricsRegistry registry;
  HistogramMetric histogram = registry.histogram("latency", 0.0, 10.0, 10);
  constexpr int kThreads = 6;
  constexpr int kPerThread = 5'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&histogram] {
      for (int n = 0; n < kPerThread; ++n) {
        histogram.observe(static_cast<double>(n % 10) + 0.5);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const stats::RunningStats merged = histogram.stats();
  EXPECT_EQ(merged.count(), static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_NEAR(merged.mean(), 5.0, 1e-9);
}

TEST(MetricsRegistry, LabelsDistinguishCells) {
  ScopedEnable on;
  MetricsRegistry registry;
  Counter up = registry.counter("msgs_total", {{"direction", "uplink"}});
  Counter down = registry.counter("msgs_total", {{"direction", "downlink"}});
  up.inc(3);
  down.inc(5);
  EXPECT_EQ(up.value(), 3u);
  EXPECT_EQ(down.value(), 5u);
  EXPECT_EQ(registry.size(), 3u);  // the two cells + mgrid_build_info
}

TEST(MetricsRegistry, ReRegistrationReturnsTheSameCell) {
  ScopedEnable on;
  MetricsRegistry registry;
  Counter a = registry.counter("shared_total", {{"k", "v"}});
  // Label order must not matter: keys are sorted at registration.
  Counter b = registry.counter("shared_total", {{"k", "v"}});
  a.inc(2);
  b.inc(3);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(registry.size(), 2u);  // the shared cell + mgrid_build_info
}

TEST(MetricsRegistry, GaugeSetAndAdd) {
  ScopedEnable on;
  MetricsRegistry registry;
  Gauge gauge = registry.gauge("depth");
  gauge.set(10.0);
  gauge.add(-2.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 7.5);
}

TEST(MetricsRegistry, ResetZeroesButKeepsHandlesValid) {
  ScopedEnable on;
  MetricsRegistry registry;
  Counter counter = registry.counter("c_total");
  HistogramMetric histogram = registry.histogram("h", 0.0, 1.0, 2);
  counter.inc(9);
  histogram.observe(0.25);
  registry.reset();
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(histogram.stats().count(), 0u);
  counter.inc();
  EXPECT_EQ(counter.value(), 1u);
}

TEST(MetricsRegistry, SnapshotHistogramBucketsAreCumulative) {
  ScopedEnable on;
  MetricsRegistry registry;
  HistogramMetric histogram = registry.histogram("h", 0.0, 10.0, 5);
  // Buckets: [0,2) [2,4) [4,6) [6,8) [8,10); one sample each in buckets
  // 0, 0, 2, 4 plus one overflow and one underflow.
  histogram.observe(0.5);
  histogram.observe(1.5);
  histogram.observe(5.0);
  histogram.observe(9.0);
  histogram.observe(42.0);   // overflow -> only the +Inf bucket
  histogram.observe(-1.0);   // underflow -> every finite bucket
  const MetricsSnapshot snapshot = registry.snapshot();
  const MetricSample* sample = snapshot.find("h");
  ASSERT_NE(sample, nullptr);
  ASSERT_EQ(sample->bucket_edges.size(), 5u);
  EXPECT_DOUBLE_EQ(sample->bucket_edges[0], 2.0);
  EXPECT_DOUBLE_EQ(sample->bucket_edges[4], 10.0);
  const std::vector<std::uint64_t> expected{3, 3, 4, 4, 5};
  EXPECT_EQ(sample->bucket_counts, expected);
  EXPECT_EQ(sample->count, 6u);  // +Inf bucket = total observations
  EXPECT_DOUBLE_EQ(sample->sum, 0.5 + 1.5 + 5.0 + 9.0 + 42.0 - 1.0);
  EXPECT_DOUBLE_EQ(sample->min, -1.0);
  EXPECT_DOUBLE_EQ(sample->max, 42.0);
}

TEST(MetricsRegistry, SnapshotIsSortedByNameThenLabels) {
  ScopedEnable on;
  MetricsRegistry registry;
  registry.counter("b_total");
  registry.counter("a_total", {{"x", "2"}});
  registry.counter("a_total", {{"x", "1"}});
  const MetricsSnapshot snapshot = registry.snapshot();
  // 3 registered cells + the built-in mgrid_build_info gauge (which sorts
  // after b_total, leaving the leading indices stable).
  ASSERT_EQ(snapshot.samples.size(), 4u);
  EXPECT_EQ(snapshot.samples[0].name, "a_total");
  EXPECT_EQ(snapshot.samples[0].labels, (Labels{{"x", "1"}}));
  EXPECT_EQ(snapshot.samples[1].labels, (Labels{{"x", "2"}}));
  EXPECT_EQ(snapshot.samples[2].name, "b_total");
  EXPECT_EQ(snapshot.samples[3].name, "mgrid_build_info");
}

TEST(MetricsRegistry, EveryRegistryCarriesTheBuildInfoGauge) {
  // No ScopedEnable: build info is a constant fact, exported even while
  // recording is globally disabled.
  MetricsRegistry registry;
  const BuildInfo& info = build_info();
  EXPECT_FALSE(info.version.empty());
  EXPECT_FALSE(info.compiler.empty());
  EXPECT_FALSE(info.build_type.empty());
  const Labels labels{{"build_type", info.build_type},
                      {"compiler", info.compiler},
                      {"role", role()},
                      {"version", info.version}};
  EXPECT_EQ(role(), "standalone");  // the default until set_role()

  const MetricsSnapshot snapshot = registry.snapshot();
  const MetricSample* sample = snapshot.find("mgrid_build_info", labels);
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->kind, MetricKind::kGauge);
  EXPECT_DOUBLE_EQ(sample->value, 1.0);

  // reset() zeroes measurements but re-pins the constant gauge.
  registry.reset();
  const MetricsSnapshot reset_snapshot = registry.snapshot();
  const MetricSample* after = reset_snapshot.find("mgrid_build_info", labels);
  ASSERT_NE(after, nullptr);
  EXPECT_DOUBLE_EQ(after->value, 1.0);
}

TEST(MetricsRegistry, SnapshotsWhileWritersAreRecording) {
  // Writers hammer a counter and a histogram from other threads while this
  // thread takes snapshots. Snapshots must be internally consistent
  // (monotonic counter reads) and race-free under TSan.
  ScopedEnable on;
  MetricsRegistry registry;
  Counter writes = registry.counter("snapshot_race_writes_total");
  HistogramMetric latency =
      registry.histogram("snapshot_race_seconds", 0.0, 1.0, 20);

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&stop, writes, latency]() mutable {
      while (!stop.load(std::memory_order_acquire)) {
        writes.inc();
        latency.observe(0.25);
      }
    });
  }

  std::uint64_t last_count = 0;
  bool monotonic = true;
  for (int i = 0; i < 200; ++i) {
    const MetricsSnapshot snapshot = registry.snapshot();
    const MetricSample* sample = snapshot.find("snapshot_race_writes_total");
    EXPECT_NE(sample, nullptr);  // no ASSERT: the writers must be joined
    if (sample == nullptr) break;
    const auto count = static_cast<std::uint64_t>(sample->value);
    if (count < last_count) monotonic = false;
    last_count = count;
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& writer : writers) writer.join();

  EXPECT_TRUE(monotonic);
  EXPECT_EQ(static_cast<std::uint64_t>(
                registry.snapshot().find("snapshot_race_writes_total")->value),
            writes.value());
}

TEST(ScopedEnableTest, RestoresPreviousState) {
  ASSERT_FALSE(enabled());
  {
    ScopedEnable on;
    EXPECT_TRUE(enabled());
    {
      ScopedEnable off(false);
      EXPECT_FALSE(enabled());
    }
    EXPECT_TRUE(enabled());
  }
  EXPECT_FALSE(enabled());
}

}  // namespace
}  // namespace mgrid::obs

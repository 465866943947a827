// Telemetry metrics: named, label-tagged counters, gauges and histograms.
//
// The registry is the single source of truth for runtime counters: the
// federation, net, core and broker layers all record through handles
// acquired here, and the exporters (Prometheus text, CSV, JSON — see
// obs/export.h) read one consistent snapshot.
//
// Registry injection: instrumentation resolves handles against the calling
// thread's *current* registry — global() by default, or a per-experiment
// registry installed with ScopedRegistry. The sweep engine runs one
// federation per worker thread, each under its own scoped registry, so
// concurrent experiments keep bit-exact isolated counters (see
// obs::instruments<> below and sweep/engine.h).
//
// Concurrency model: handle operations are wait-free for counters (per-thread
// shard of cache-line-padded atomics, summed at read time) and lock-sharded
// for histograms (each shard owns a mutex + RunningStats + stats::Histogram,
// merged at read time via RunningStats::merge / Histogram::merge). Sweep
// jobs, ingest workers and server threads therefore record without
// contention.
//
// No-op mode: all recording is gated on one process-global atomic flag
// (obs::enabled(), default OFF). Benches run with telemetry disabled unless
// asked; the disabled cost of an instrumented call site is a single relaxed
// atomic load.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "stats/histogram.h"
#include "stats/running_stats.h"

namespace mgrid::obs {

/// Process-global telemetry switch. Default off: every instrumented hot path
/// costs one relaxed atomic load and nothing else.
[[nodiscard]] bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// RAII helper for tests: enables (or disables) telemetry for a scope and
/// restores the previous state on destruction.
class ScopedEnable {
 public:
  explicit ScopedEnable(bool on = true) : previous_(enabled()) {
    set_enabled(on);
  }
  ~ScopedEnable() { set_enabled(previous_); }
  ScopedEnable(const ScopedEnable&) = delete;
  ScopedEnable& operator=(const ScopedEnable&) = delete;

 private:
  bool previous_;
};

/// Compile-time build metadata, exported as the `mgrid_build_info` gauge
/// (value always 1) every registry carries — the standard scrape-join idiom
/// so dashboards can group series by version/compiler/build type.
struct BuildInfo {
  std::string version;
  std::string compiler;
  std::string build_type;
};

[[nodiscard]] const BuildInfo& build_info() noexcept;

/// Process role exported as the `role` label on `mgrid_build_info`:
/// "standalone" (default), "router", "shard" or "follower". Set it in main()
/// *before* any registry is constructed — the label is captured at registry
/// construction and never re-read.
[[nodiscard]] const std::string& role() noexcept;
void set_role(std::string role);

/// Label key/value pairs attached to a metric (kept sorted by key).
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind { kCounter, kGauge, kHistogram };

namespace detail {

inline constexpr std::size_t kShards = 16;

struct alignas(64) PaddedCounter {
  std::atomic<std::uint64_t> value{0};
};

/// Per-thread shard assignment. The first kShards threads each own a shard
/// exclusively (no other writer), so their counter increments can be plain
/// load+store instead of an atomic RMW; later threads wrap around and share,
/// falling back to fetch_add.
///
/// The slot is a constant-initialized thread_local (index kShards = "not
/// yet assigned") so every handle op pays one TLS offset load and a
/// predicted branch — no per-access init guard.
struct ShardSlot {
  std::size_t index = kShards;
  bool exclusive = false;
};
extern thread_local ShardSlot t_shard_slot;
void assign_thread_slot(ShardSlot& slot) noexcept;

[[nodiscard]] inline const ShardSlot& thread_slot() noexcept {
  ShardSlot& slot = t_shard_slot;
  if (slot.index >= kShards) [[unlikely]] assign_thread_slot(slot);
  return slot;
}
[[nodiscard]] inline std::size_t thread_shard() noexcept {
  return thread_slot().index;
}

struct CounterCell {
  std::array<PaddedCounter, kShards> shards;

  void inc(std::uint64_t n) noexcept {
    const ShardSlot& slot = thread_slot();
    std::atomic<std::uint64_t>& cell = shards[slot.index].value;
    if (slot.exclusive) {
      // Sole writer of this shard: a relaxed read-modify-write without the
      // lock prefix. Readers (snapshot) only ever see monotonic values.
      cell.store(cell.load(std::memory_order_relaxed) + n,
                 std::memory_order_relaxed);
    } else {
      cell.fetch_add(n, std::memory_order_relaxed);
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t sum = 0;
    for (const PaddedCounter& shard : shards) {
      sum += shard.value.load(std::memory_order_relaxed);
    }
    return sum;
  }
  void reset() noexcept {
    for (PaddedCounter& shard : shards) {
      shard.value.store(0, std::memory_order_relaxed);
    }
  }
};

struct GaugeCell {
  std::atomic<double> value{0.0};

  void set(double v) noexcept { value.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept {
    double current = value.load(std::memory_order_relaxed);
    while (!value.compare_exchange_weak(current, current + delta,
                                        std::memory_order_relaxed)) {
    }
  }
};

/// Tiny TTAS spinlock. Histogram shards are nearly uncontended (recorders
/// spread across shards per thread, snapshots are rare), so the critical
/// section of a few adds never justifies a futex-backed mutex.
class SpinLock {
 public:
  void lock() noexcept {
    while (flag_.exchange(true, std::memory_order_acquire)) {
      while (flag_.load(std::memory_order_relaxed)) {
      }
    }
  }
  void unlock() noexcept { flag_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> flag_{false};
};

struct HistogramShard {
  mutable SpinLock mutex;
  stats::RunningStats stats;
  stats::Histogram histogram;

  explicit HistogramShard(double lo, double hi, std::size_t buckets)
      : histogram(lo, hi, buckets) {}
};

struct HistogramCell {
  std::vector<std::unique_ptr<HistogramShard>> shards;
  double lo;
  double hi;
  std::size_t buckets;

  HistogramCell(double lo_edge, double hi_edge, std::size_t bucket_count);

  void observe(double sample) noexcept;
  /// Merged view across shards (RunningStats::merge + Histogram::merge).
  [[nodiscard]] stats::RunningStats merged_stats() const;
  [[nodiscard]] stats::Histogram merged_histogram() const;
  void reset();
};

}  // namespace detail

/// Monotonic counter handle. Copyable; values survive as long as the owning
/// registry. Recording is a no-op while telemetry is disabled.
class Counter {
 public:
  Counter() = default;

  void inc(std::uint64_t n = 1) noexcept {
    if (cell_ == nullptr || !enabled()) return;
    cell_->inc(n);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return cell_ == nullptr ? 0 : cell_->value();
  }
  [[nodiscard]] bool valid() const noexcept { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Counter(detail::CounterCell* cell) : cell_(cell) {}
  detail::CounterCell* cell_ = nullptr;
};

/// Last-write-wins gauge handle (queue depths, cluster counts, DB sizes).
class Gauge {
 public:
  Gauge() = default;

  void set(double v) noexcept {
    if (cell_ == nullptr || !enabled()) return;
    cell_->set(v);
  }
  void add(double delta) noexcept {
    if (cell_ == nullptr || !enabled()) return;
    cell_->add(delta);
  }
  [[nodiscard]] double value() const noexcept {
    return cell_ == nullptr ? 0.0
                            : cell_->value.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool valid() const noexcept { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(detail::GaugeCell* cell) : cell_(cell) {}
  detail::GaugeCell* cell_ = nullptr;
};

/// Distribution handle: fixed-range bucketed histogram plus streaming
/// moments (count/sum/min/max via RunningStats).
class HistogramMetric {
 public:
  HistogramMetric() = default;

  void observe(double sample) noexcept {
    if (cell_ == nullptr || !enabled()) return;
    cell_->observe(sample);
  }
  [[nodiscard]] stats::RunningStats stats() const {
    return cell_ == nullptr ? stats::RunningStats{} : cell_->merged_stats();
  }
  [[nodiscard]] bool valid() const noexcept { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit HistogramMetric(detail::HistogramCell* cell) : cell_(cell) {}
  detail::HistogramCell* cell_ = nullptr;
};

/// One exported sample (see MetricsRegistry::snapshot()). For histograms the
/// bucket upper edges / cumulative counts follow Prometheus semantics:
/// `bucket_counts[i]` is the number of samples <= `bucket_edges[i]`, and a
/// final implicit +Inf bucket equals `count`.
struct MetricSample {
  std::string name;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;
  std::string help;
  /// Counter/gauge value (counters exported as doubles like Prometheus).
  double value = 0.0;
  /// Histogram summary (empty for counters/gauges).
  std::vector<double> bucket_edges;
  std::vector<std::uint64_t> bucket_counts;  // cumulative, excludes +Inf
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
};

/// Point-in-time view of every metric, sorted by (name, labels) so exports
/// are deterministic.
struct MetricsSnapshot {
  std::vector<MetricSample> samples;

  /// First sample with this name+labels, nullptr when absent.
  [[nodiscard]] const MetricSample* find(std::string_view name,
                                         const Labels& labels = {}) const;
};

/// Thread-safe named-metric registry. Handle acquisition (counter() /
/// gauge() / histogram()) takes a lock and may allocate — do it once at
/// construction time; recording through the returned handles is the fast
/// path. Re-registering the same name+labels returns the existing cell.
class MetricsRegistry {
 public:
  MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-global registry built-in instrumentation records to unless
  /// a ScopedRegistry override is installed on the recording thread.
  static MetricsRegistry& global();

  /// Process-unique, never-reused id. The instruments<>() cache keys on
  /// this, so a registry allocated at a recycled address can never inherit a
  /// dead registry's handles.
  [[nodiscard]] std::uint64_t uid() const noexcept { return uid_; }

  Counter counter(std::string_view name, Labels labels = {},
                  std::string_view help = "");
  Gauge gauge(std::string_view name, Labels labels = {},
              std::string_view help = "");
  /// Buckets span [lo, hi) uniformly; out-of-range samples land in the
  /// implicit +Inf bucket (overflow) or the first bucket's le edge count
  /// stays below them (underflow tracked in min/mean only).
  HistogramMetric histogram(std::string_view name, double lo, double hi,
                            std::size_t buckets, Labels labels = {},
                            std::string_view help = "");

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Zeroes every cell (handles stay valid). Used between benchmark phases
  /// and by tests.
  void reset();

  [[nodiscard]] std::size_t size() const;

 private:
  struct Entry {
    std::string name;
    Labels labels;
    MetricKind kind;
    std::string help;
    detail::CounterCell* counter = nullptr;
    detail::GaugeCell* gauge = nullptr;
    detail::HistogramCell* histogram = nullptr;
  };

  [[nodiscard]] static std::string key_of(std::string_view name,
                                          const Labels& labels);

  std::uint64_t uid_;
  /// The mgrid_build_info gauge's cell, pinned to 1 at construction and
  /// re-pinned after reset() (the cell is written directly: the handle's
  /// set() is gated on obs::enabled(), but build info must always export).
  detail::GaugeCell* build_info_cell_ = nullptr;
  mutable std::mutex mutex_;
  std::map<std::string, Entry, std::less<>> entries_;
  // Deques give cells stable addresses for the lifetime of the registry.
  std::deque<detail::CounterCell> counters_;
  std::deque<detail::GaugeCell> gauges_;
  std::deque<detail::HistogramCell> histograms_;
};

/// The registry instrumentation on the calling thread records into:
/// the innermost live ScopedRegistry, or global() when none is installed.
[[nodiscard]] MetricsRegistry& current_registry() noexcept;

namespace detail {
/// Swaps the calling thread's registry override (nullptr = use global()).
/// Returns the previous override. Prefer ScopedRegistry.
MetricsRegistry* exchange_current_registry(MetricsRegistry* registry) noexcept;
}  // namespace detail

/// Installs a registry as the calling thread's telemetry destination for a
/// scope: every instrumented subsystem (federation, net, ADF, broker,
/// scenario collectors) resolves its handles through current_registry(), so
/// concurrent experiments with distinct scoped registries record disjoint
/// counters. Restores the previous override on destruction (nest freely).
class ScopedRegistry {
 public:
  explicit ScopedRegistry(MetricsRegistry& registry)
      : previous_(detail::exchange_current_registry(&registry)) {}
  ~ScopedRegistry() { detail::exchange_current_registry(previous_); }
  ScopedRegistry(const ScopedRegistry&) = delete;
  ScopedRegistry& operator=(const ScopedRegistry&) = delete;

 private:
  MetricsRegistry* previous_;
};

/// Per-(thread, registry) instrument cache. `Instruments` is a module's
/// bundle of handles with an `explicit Instruments(MetricsRegistry&)`
/// constructor; the bundle for the thread's current registry is built on
/// first use and memoised until a different registry becomes current. The
/// steady-state cost is one TLS load and a predicted-taken uid compare, so
/// hot paths may call this per record. Handles never outlive their registry
/// unless the registry itself is destroyed while still installed — keep the
/// injected registry alive for the whole scope (ScopedRegistry enforces the
/// natural nesting).
template <typename Instruments>
[[nodiscard]] Instruments& instruments() {
  thread_local std::uint64_t cached_uid = 0;  // no registry has uid 0
  thread_local std::optional<Instruments> cached;
  MetricsRegistry& registry = current_registry();
  if (cached_uid != registry.uid()) [[unlikely]] {
    cached.emplace(registry);
    cached_uid = registry.uid();
  }
  return *cached;
}

}  // namespace mgrid::obs

// Per-LU latency attribution: stage-sliced spans through the serving
// pipeline (enqueue -> source-queue wait -> WAL append -> directory apply ->
// visible-to-lookup) with deterministic trace-id sampling and histogram
// exemplars.
//
// Sampling is a pure function of the LU's identity — a splitmix64-style hash
// of (source, mn, seq), no RNG, no per-thread state — so replaying the same
// stream with 1 worker or 8 selects the byte-identical span set (mirroring
// the eventlog determinism gates). A sampled span records wall-clock seconds
// per stage; the stage values tile the span exactly: their sum equals
// total_seconds by construction.
//
// Exemplars follow the Prometheus/OpenMetrics idiom: each sampled span is
// attached to the latency-histogram bucket its total lands in, so an SLO
// page can jump from "p99 spiked" to a concrete offending LU with its stage
// breakdown. The admin plane serves them at /tracez (mgrid-tracez-v1).
//
// The disabled path is one relaxed atomic load (no hash, no clock): the
// tracer is safe to leave wired into the hot ingest path.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mgrid::obs {

/// Pipeline stages a location update passes through, in cluster-wide
/// chronological order. A process-local span fills only the stages it
/// observed (the rest stay 0), so the sum-equals-total tiling invariant
/// holds for single-process and cross-process spans alike.
enum class LuStage : std::uint8_t {
  kRouterBatch = 0,    ///< router submit to batch flush (cluster only)
  kNet = 1,            ///< batch flush to shard receive (cluster only)
  kQueue = 2,          ///< source-queue wait (submit to worker pickup)
  kWal = 3,            ///< WAL append in submit + the batch's WAL write
  kApply = 4,          ///< directory apply_batch
  kVisible = 5,        ///< apply end to visible-to-lookup
  kFollowerApply = 6,  ///< replication-stream apply on a follower
};

inline constexpr std::size_t kLuStageCount = 7;

[[nodiscard]] const char* lu_stage_name(LuStage stage) noexcept;

/// The `source` value a router feeds SpanTracer::trace_id() for
/// cluster-wide sampling. A fixed, out-of-band constant (no shard computes
/// it as a queue index) so every router over the same ring — and any test
/// predicting the sampled set — derives identical trace ids from (mn, seq)
/// alone.
inline constexpr std::uint32_t kClusterTraceSource = 0xFFFFFFFFu;

/// CLOCK_MONOTONIC microseconds (steady_clock). The timestamp base for
/// cross-process trace propagation: monotonic clocks share the boot epoch,
/// so deltas are comparable between processes on one machine — which is
/// the only place stage attribution across a TCP hop is meaningful.
[[nodiscard]] std::uint64_t span_now_us() noexcept;

/// One completed, sampled per-LU span.
struct LuSpan {
  std::uint64_t trace_id = 0;
  std::uint32_t mn = 0;
  std::uint32_t seq = 0;
  std::uint32_t source = 0;
  std::uint32_t tid = 0;  ///< recording worker's trace thread id
  /// Completion wall timestamp, steady-clock microseconds (ordering and
  /// age comparisons only — not an absolute epoch).
  std::uint64_t wall_us = 0;
  /// End-to-end enqueue-to-visible seconds (== sum of stage_seconds).
  double total_seconds = 0.0;
  /// Seconds per LuStage, indexed by static_cast<size_t>(stage).
  std::array<double, kLuStageCount> stage_seconds{};
};

struct SpanTracerOptions {
  /// Sample an LU iff trace_id % sample_period == 0 (0 disables sampling).
  std::uint64_t sample_period = 64;
  /// Recent-span ring capacity; the oldest spans are dropped when full.
  std::size_t ring_capacity = 4096;
  /// Slowest spans kept per SLI.
  std::size_t top_k = 16;
  /// Mirror each recorded span's stages as 'X' events into the thread's
  /// current_trace_recorder() so they appear on the Perfetto timeline.
  bool emit_trace_events = true;
};

/// The latest sampled span that landed in one histogram bucket.
struct BucketExemplar {
  /// Bucket index; == bucket count for the overflow bucket.
  std::size_t bucket = 0;
  /// Inclusive upper bound of the bucket (+infinity for overflow).
  double le = 0.0;
  LuSpan span;
};

/// Snapshot of one SLI's exemplars and slowest spans.
struct SliSpans {
  std::string name;
  double lo = 0.0;
  double hi = 0.1;
  std::size_t buckets = 100;
  std::uint64_t recorded = 0;
  /// Non-empty buckets in ascending bucket order, latest span each.
  std::vector<BucketExemplar> exemplars;
  /// Slowest spans, descending total_seconds, at most top_k.
  std::vector<LuSpan> slowest;
};

struct SpanSnapshot {
  std::uint64_t sampled = 0;  ///< spans recorded over the tracer's lifetime
  std::uint64_t dropped = 0;  ///< spans pushed out of the recent ring
  std::uint64_t sample_period = 0;
  /// Recent spans, oldest first.
  std::vector<LuSpan> recent;
  std::vector<SliSpans> slis;
};

/// Records stage-sliced per-LU spans with deterministic sampling. All
/// mutation goes through record() under one mutex — spans arrive at
/// 1/sample_period of the LU rate, so the lock is cold by construction.
class SpanTracer {
 public:
  explicit SpanTracer(SpanTracerOptions options = {});

  /// Deterministic trace id: splitmix64-style mix of (source, mn, seq).
  /// Identical across processes, worker counts and platforms.
  [[nodiscard]] static std::uint64_t trace_id(std::uint32_t source,
                                              std::uint32_t mn,
                                              std::uint32_t seq) noexcept;

  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// True when this LU's span should be recorded. Disabled cost: one
  /// relaxed atomic load, nothing else.
  [[nodiscard]] bool sampled(std::uint32_t source, std::uint32_t mn,
                             std::uint32_t seq) const noexcept {
    if (!enabled_.load(std::memory_order_relaxed)) return false;
    const std::uint64_t period = options_.sample_period;
    return period != 0 && trace_id(source, mn, seq) % period == 0;
  }

  /// Declares an SLI's exemplar bucket layout (mirrors the latency
  /// histogram it annotates). Idempotent: re-registering an existing name
  /// keeps the first layout.
  void register_sli(std::string_view name, double lo, double hi,
                    std::size_t buckets);

  /// Records one completed span under `sli` (auto-registered with the
  /// default 0..0.1s/100-bucket layout when unknown).
  void record(std::string_view sli, const LuSpan& span);

  [[nodiscard]] SpanSnapshot snapshot() const;

  /// Drops all recorded spans and counters; SLI registrations are kept.
  void clear();

  [[nodiscard]] const SpanTracerOptions& options() const noexcept {
    return options_;
  }

 private:
  struct SliState {
    std::string name;
    double lo = 0.0;
    double hi = 0.1;
    std::size_t buckets = 100;
    std::uint64_t recorded = 0;
    /// buckets + 1 slots (last = overflow), latest span per bucket.
    std::vector<LuSpan> latest;
    std::vector<bool> filled;
    std::vector<LuSpan> slowest;  ///< descending total_seconds
  };

  SliState& sli_state_locked(std::string_view name, double lo, double hi,
                             std::size_t buckets);

  SpanTracerOptions options_;
  std::atomic<bool> enabled_{false};

  mutable std::mutex mutex_;
  std::vector<LuSpan> ring_;  ///< recent spans, ring over ring_capacity
  std::size_t next_ = 0;
  std::uint64_t recorded_total_ = 0;
  std::vector<SliState> slis_;  ///< registration order; small, linear scan
};

}  // namespace mgrid::obs

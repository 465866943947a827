// Sim-time-aware tracing: begin/end spans and instant events captured into a
// bounded ring buffer and exported as Chrome/Perfetto `trace_event` JSON
// (load the file in https://ui.perfetto.dev or chrome://tracing).
//
// Every event is stamped with BOTH clocks:
//   * wall time — microseconds of std::chrono::steady_clock since the
//     recorder was constructed (the trace viewer's timeline), and
//   * sim time  — whatever clock was installed with set_clock() (surfaced as
//     an event argument), so a slow wall-clock span can be correlated with
//     the simulation second it happened in.
//
// Recording is gated on the recorder's own enable flag (default off; a
// single relaxed atomic load when disabled) and is thread-safe: sweep
// workers and server threads may trace concurrently.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mgrid::obs {

/// Small dense id of the calling thread — the `tid` every recorder stamps
/// into its events (first caller gets 1, then 2, ...). Public so pipeline
/// workers can name themselves via set_thread_name() and so span records can
/// carry the same id the trace timeline shows.
[[nodiscard]] std::uint32_t trace_thread_id() noexcept;

struct TraceEvent {
  std::string name;
  std::string category;
  /// Chrome trace phase: 'B' begin, 'E' end, 'X' complete, 'i' instant.
  char phase = 'i';
  /// Microseconds since recorder construction (steady clock).
  std::uint64_t wall_us = 0;
  /// Duration for 'X' (complete) events, microseconds.
  std::uint64_t duration_us = 0;
  /// Simulation time at capture (NaN-free: 0 when no clock installed).
  double sim_time = 0.0;
  /// Small integer id of the recording thread.
  std::uint32_t tid = 0;
};

class TraceRecorder {
 public:
  /// `capacity`: ring-buffer slots (> 0). When full, the oldest events are
  /// overwritten and counted as dropped.
  explicit TraceRecorder(std::size_t capacity = 1 << 14);

  /// The process-global recorder the built-in instrumentation uses.
  static TraceRecorder& global();

  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Installs the simulation-time stamp source (e.g. a Federation's current
  /// grant). Pass nullptr to clear. The callable must stay valid until
  /// replaced.
  void set_clock(std::function<double()> clock);

  /// Drops all recorded events (capacity and clock are kept).
  void clear();

  void instant(std::string_view name, std::string_view category);
  void begin(std::string_view name, std::string_view category);
  void end(std::string_view name, std::string_view category);
  /// One 'X' event covering [wall_start_us, wall_start_us + duration_us].
  void complete(std::string_view name, std::string_view category,
                std::uint64_t wall_start_us, std::uint64_t duration_us);

  /// RAII span: records one complete ('X') event covering its lifetime.
  /// Does nothing (and takes no timestamps) while the recorder is disabled.
  class Span {
   public:
    Span(TraceRecorder& recorder, std::string_view name,
         std::string_view category);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    TraceRecorder* recorder_;
    std::string name_;
    std::string category_;
    std::uint64_t start_us_ = 0;
  };

  [[nodiscard]] Span span(std::string_view name, std::string_view category) {
    return Span(*this, name, category);
  }

  /// Current wall timestamp, microseconds since construction.
  [[nodiscard]] std::uint64_t now_us() const;

  /// Events in capture order, oldest first (wraparound resolved).
  [[nodiscard]] std::vector<TraceEvent> events() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Events overwritten because the ring was full.
  [[nodiscard]] std::uint64_t dropped() const;

  /// Wall-clock extent of the overwritten events, for judging how much of
  /// the timeline the ring lost. Timestamps are 0 while count is 0.
  struct DroppedInfo {
    std::uint64_t count = 0;
    std::uint64_t first_wall_us = 0;  ///< wall_us of the first overwritten event
    std::uint64_t last_wall_us = 0;   ///< wall_us of the latest overwritten event
  };
  [[nodiscard]] DroppedInfo dropped_info() const;

  /// Names the exported process ('M' process_name metadata event). Applies
  /// to future exports; empty clears it.
  void set_process_name(std::string name);

  /// Names a thread for the export ('M' thread_name metadata event), keyed
  /// by its trace_thread_id(). Named threads also get stable
  /// thread_sort_index metadata — sorted by (name, tid) — so Perfetto
  /// groups e.g. ingest workers together instead of by raw-tid order.
  void set_thread_name(std::uint32_t tid, std::string name);

  /// Chrome trace_event JSON ("traceEvents" array form). Metadata events
  /// (process_name / thread_name / thread_sort_index) come first, then each
  /// recorded event with args.sim_time; dropped-event metadata is attached
  /// when relevant.
  [[nodiscard]] std::string to_chrome_json() const;

 private:
  void push(TraceEvent event);

  std::atomic<bool> enabled_{false};
  std::size_t capacity_;
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mutex_;
  std::function<double()> clock_;
  std::string process_name_;
  std::map<std::uint32_t, std::string> thread_names_;
  std::vector<TraceEvent> ring_;
  std::size_t next_ = 0;        // ring slot the next event lands in
  std::uint64_t recorded_ = 0;  // lifetime total
  std::uint64_t first_dropped_wall_us_ = 0;
  std::uint64_t last_dropped_wall_us_ = 0;
};

namespace detail {
/// Swaps the calling thread's trace-recorder override, returning the
/// previous one (nullptr = fall back to TraceRecorder::global()).
TraceRecorder* exchange_current_trace_recorder(TraceRecorder* recorder) noexcept;
}  // namespace detail

/// The recorder the built-in instrumentation should use on this thread:
/// the innermost ScopedTraceRecorder install, else the process global.
/// Mirrors obs::current_registry().
[[nodiscard]] TraceRecorder& current_trace_recorder() noexcept;

/// RAII per-thread recorder install, mirroring obs::ScopedRegistry: while
/// alive, current_trace_recorder() on this thread returns `recorder`, so
/// sweep workers keep their spans out of the global ring.
class ScopedTraceRecorder {
 public:
  explicit ScopedTraceRecorder(TraceRecorder& recorder) noexcept
      : previous_(detail::exchange_current_trace_recorder(&recorder)) {}
  ~ScopedTraceRecorder() {
    detail::exchange_current_trace_recorder(previous_);
  }
  ScopedTraceRecorder(const ScopedTraceRecorder&) = delete;
  ScopedTraceRecorder& operator=(const ScopedTraceRecorder&) = delete;

 private:
  TraceRecorder* previous_;
};

}  // namespace mgrid::obs

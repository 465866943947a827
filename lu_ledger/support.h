// Shared helpers of the LU cost ledger: statistics, the open-loop reader's
// due-time accounting, process probes, input digests and the metric table.
//
// Everything here is benchmark-side code. The workloads time calls into the
// repository's public API from outside; nothing under src/ is changed.
#pragma once

#include <ctime>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace ledger {

// --- statistics -----------------------------------------------------------

/// Nearest-rank percentile (q in (0, 1]) of unsorted `values`: the value at
/// 1-based rank ceil(q * n) of the sorted sample. 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// Samples strictly beyond the nearest-rank q-percentile of n samples:
/// n - ceil(q * n).
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// The ledger's rule for a reportable tail percentile: at least ten samples
/// lie beyond it.
[[nodiscard]] inline bool percentile_resolved(std::size_t n, double q) {
  return n > 0 && samples_beyond(n, q) >= 10;
}

[[nodiscard]] double median(std::vector<double> values);

/// First, second and third quartile with Python's statistics.quantiles(
/// data, n=4) default ("exclusive") method. Needs at least 2 values.
struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};
[[nodiscard]] Quartiles quartiles(std::vector<double> values);

// --- open-loop reads --------------------------------------------------------

/// A fixed-rate schedule of due times for an open-loop generator. Each
/// operation is timed from when it was *due*, not from when the generator
/// got round to it, so a stall counts against every read queued behind it
/// (no coordinated omission). Storage for `capacity` operations is
/// allocated and touched up front: recording never allocates, and the
/// samples' memory is not part of the run's peak-RSS growth.
class DueSchedule {
 public:
  DueSchedule(double rate_per_second, std::size_t capacity);

  /// Anchors the schedule: the next operation is due at `start_ns`.
  /// Samples recorded so far are kept.
  void start(std::int64_t start_ns);
  [[nodiscard]] std::int64_t next_due() const noexcept { return next_; }
  /// Records one operation that was due at next_due(), started at
  /// `start_ns` and completed at `end_ns`, then advances the schedule.
  /// Beyond the capacity the operation is counted as overflow instead.
  void record(std::int64_t start_ns, std::int64_t end_ns);
  [[nodiscard]] std::uint64_t overflow() const noexcept { return overflow_; }
  /// Operations recorded so far; safe to read while another thread
  /// records (the samples themselves only once it has stopped).
  [[nodiscard]] std::size_t recorded() const noexcept {
    return recorded_.load(std::memory_order_acquire);
  }

  /// Per-operation figures, nanoseconds. The generator's lateness (start -
  /// due) is latency - service.
  std::vector<double> latency_ns;  ///< completion - due
  std::vector<double> service_ns;  ///< completion - start

 private:
  double period_ns_;
  std::int64_t start_ = 0;
  std::int64_t next_ = 0;
  std::uint64_t issued_ = 0;
  std::uint64_t overflow_ = 0;
  std::atomic<std::size_t> recorded_{0};
};

/// One reader thread issuing lookups and k-nearest queries on two fixed
/// schedules from construction until stopped. `lookup(i)` and `nearest(i)`
/// perform operation i and return false when the answer is missing (a
/// failed read). The schedules belong to the caller and may span readers.
class OpenLoopReader {
 public:
  struct Ops {
    std::function<bool(std::uint64_t)> lookup;
    std::function<bool(std::uint64_t)> nearest;
  };

  OpenLoopReader(Ops ops, DueSchedule& lookups, DueSchedule& nearests);
  ~OpenLoopReader();  ///< Implies stop().
  OpenLoopReader(const OpenLoopReader&) = delete;
  OpenLoopReader& operator=(const OpenLoopReader&) = delete;

  void stop();

  /// Reads that found no answer (valid after stop()).
  [[nodiscard]] std::uint64_t missing() const { return missing_; }
  /// CPU seconds the reader thread has used so far, so the write path's
  /// CPU per LU can leave the reads out.
  [[nodiscard]] double cpu_seconds() const;

 private:
  void run();
  void read_loop();

  Ops ops_;
  DueSchedule& lookups_;
  DueSchedule& nearests_;
  std::uint64_t missing_ = 0;
  std::atomic<bool> stop_{false};
  /// The reader thread's CPU clock (set before run() returns control).
  std::atomic<bool> running_{false};
  clockid_t clock_{};
  std::atomic<double> final_cpu_{0.0};
  std::thread thread_;
};

/// Peak-RSS growth of a run's first measured phase: the phase returns
/// freed heap memory to the kernel, resets the high-water mark and reads
/// the RSS on entry, and reads the mark on exit. Later phases are not
/// measured: they reuse what the first one left resident (cached thread
/// stacks, allocator arenas), so their growth shows how much was reused,
/// not what a segment needs. Calls after the first phase are no-ops.
class PeakRss {
 public:
  void begin_phase();
  void end_phase();
  /// The first phase's peak minus its starting RSS, MiB.
  [[nodiscard]] double growth_mb() const { return growth_; }

 private:
  bool measured_ = false;
  double start_ = 0.0;
  double growth_ = 0.0;
};

/// The MN that read `i` of a run seeded `seed` looks up, out of `nodes`.
[[nodiscard]] std::uint32_t read_mn(std::uint64_t seed, std::uint64_t i,
                                    std::uint32_t nodes);
/// The point k-nearest read `i` queries around, inside [0, width) x
/// [0, height) metres.
[[nodiscard]] std::pair<double, double> read_center(std::uint64_t seed,
                                                    std::uint64_t i,
                                                    std::uint64_t width,
                                                    std::uint64_t height);

// --- process probes -------------------------------------------------------

[[nodiscard]] std::int64_t now_ns();
/// Process CPU seconds, user + system, all threads (getrusage).
[[nodiscard]] double cpu_seconds();
/// CPU seconds of the calling thread.
[[nodiscard]] double thread_cpu_seconds();
/// Voluntary + involuntary context switches of the process (getrusage).
[[nodiscard]] std::uint64_t context_switches();
/// Current and peak resident set size, MiB (/proc/self/status VmRSS and
/// VmHWM), and the thread count.
[[nodiscard]] double rss_mb();
[[nodiscard]] double peak_rss_mb();
[[nodiscard]] std::uint64_t thread_count();
/// Filesystem type name of `path` ("ext4", "tmpfs", ...; hex when unknown).
[[nodiscard]] std::string filesystem_type(const std::string& path);
/// Non-blank lines in the .h/.cpp files under `dir`.
[[nodiscard]] std::uint64_t count_source_lines(const std::string& dir);

// --- digests ----------------------------------------------------------------

/// FNV-1a over raw bytes, chainable.
class Digest {
 public:
  void add(const void* data, std::size_t size);
  template <typename T>
  void add_value(const T& value) {
    add(&value, sizeof(value));
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// --- metrics ----------------------------------------------------------------

struct MetricSpec {
  std::string_view name;
  std::string_view unit;
  bool end_to_end = false;
};

/// Every metric the ledger can print, end-to-end first. BENCHMARK.json
/// declares exactly this set.
[[nodiscard]] const std::vector<MetricSpec>& metric_catalog();

/// Name -> value of one run, printed with full precision.
class MetricSet {
 public:
  void set(std::string_view name, double value);
  [[nodiscard]] double get(std::string_view name) const;
  /// {"name": {"value": v, "unit": u}, ...} for the catalog entries of one
  /// kind; a catalog metric missing from the set prints as 0.
  [[nodiscard]] std::string to_json(bool end_to_end) const;

 private:
  std::map<std::string, double, std::less<>> values_;
};

/// Shortest decimal that round-trips a finite double (NaN/inf print as 0).
[[nodiscard]] std::string format_number(double value);

/// Simple aggregate of the workload-level counters every run reports.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// First failed check, for the log.
  std::string failure;

  void check(bool ok, const std::string& what) {
    if (!ok && correct) failure = what;
    correct = correct && ok;
  }
};

}  // namespace ledger

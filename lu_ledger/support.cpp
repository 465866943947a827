#include "support.h"

#include <malloc.h>
#include <pthread.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/rng.h"

namespace ledger {

// --- statistics -----------------------------------------------------------

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return n - std::clamp<std::size_t>(rank, 1, n);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t n = values.size();
  const std::size_t index = n - samples_beyond(n, q) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(index),
                   values.end());
  return values[index];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Quartiles quartiles(std::vector<double> values) {
  if (values.size() < 2) {
    throw std::invalid_argument("quartiles: need at least two values");
  }
  std::sort(values.begin(), values.end());
  const auto ld = static_cast<long>(values.size());
  const long m = ld + 1;
  double out[3] = {};
  for (long i = 1; i < 4; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const double delta = static_cast<double>(i * m - j * 4);
    out[i - 1] = (values[static_cast<std::size_t>(j - 1)] * (4.0 - delta) +
                  values[static_cast<std::size_t>(j)] * delta) /
                 4.0;
  }
  return {out[0], out[1], out[2]};
}

// --- open-loop reads --------------------------------------------------------

DueSchedule::DueSchedule(double rate_per_second, std::size_t capacity)
    : period_ns_(1e9 / rate_per_second) {
  for (std::vector<double>* samples : {&latency_ns, &service_ns}) {
    samples->resize(capacity);  // touches the pages
    samples->clear();
  }
}

void DueSchedule::start(std::int64_t start_ns) {
  start_ = start_ns;
  next_ = start_ns;
  issued_ = 0;
}

void DueSchedule::record(std::int64_t start_ns, std::int64_t end_ns) {
  if (latency_ns.size() < latency_ns.capacity()) {
    latency_ns.push_back(static_cast<double>(end_ns - next_));
    service_ns.push_back(static_cast<double>(end_ns - start_ns));
    recorded_.store(latency_ns.size(), std::memory_order_release);
  } else {
    ++overflow_;
  }
  ++issued_;
  // Due times are derived from the start, not accumulated, so rounding
  // never drifts the rate.
  next_ = start_ + static_cast<std::int64_t>(
                       std::llround(static_cast<double>(issued_) * period_ns_));
}

OpenLoopReader::OpenLoopReader(Ops ops, DueSchedule& lookups,
                               DueSchedule& nearests)
    : ops_(std::move(ops)), lookups_(lookups), nearests_(nearests) {
  const std::int64_t now = now_ns();
  lookups_.start(now);
  nearests_.start(now);
  thread_ = std::thread([this] { run(); });
}

OpenLoopReader::~OpenLoopReader() { stop(); }

void OpenLoopReader::stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

namespace {

double clock_seconds(clockid_t clock) {
  timespec now{};
  if (clock_gettime(clock, &now) != 0) return 0.0;
  return static_cast<double>(now.tv_sec) +
         1e-9 * static_cast<double>(now.tv_nsec);
}

}  // namespace

double OpenLoopReader::cpu_seconds() const {
  return running_.load(std::memory_order_acquire)
             ? clock_seconds(clock_)
             : final_cpu_.load(std::memory_order_acquire);
}

void OpenLoopReader::run() {
  // Sleep with 1 us timer slack instead of the default 50 us, so reads
  // leave close to their due times.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  clock_ = CLOCK_THREAD_CPUTIME_ID;
  if (pthread_getcpuclockid(pthread_self(), &clock_) == 0) {
    running_.store(true, std::memory_order_release);
  }
  read_loop();
  final_cpu_.store(clock_seconds(CLOCK_THREAD_CPUTIME_ID),
                   std::memory_order_release);
  running_.store(false, std::memory_order_release);
}

void OpenLoopReader::read_loop() {
  std::uint64_t lookup_index = 0;
  std::uint64_t nearest_index = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    const bool nearest_next = nearests_.next_due() < lookups_.next_due();
    DueSchedule& schedule = nearest_next ? nearests_ : lookups_;
    const std::int64_t due = schedule.next_due();
    std::int64_t now = now_ns();
    // Sleep until the read is due. The reader never spins: a spinning
    // client would take a core from the system it measures. Its wake-up
    // delay is part of each read's due-time latency and shows as lateness.
    while (now < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      if (stop_.load(std::memory_order_acquire)) return;
      now = now_ns();
    }
    const bool found = nearest_next ? ops_.nearest(nearest_index++)
                                    : ops_.lookup(lookup_index++);
    schedule.record(now, now_ns());
    if (!found) ++missing_;
  }
}

std::uint32_t read_mn(std::uint64_t seed, std::uint64_t i,
                      std::uint32_t nodes) {
  return static_cast<std::uint32_t>(
      mgrid::util::splitmix64(seed ^ (i * 2 + 1)) % nodes);
}

std::pair<double, double> read_center(std::uint64_t seed, std::uint64_t i,
                                      std::uint64_t width,
                                      std::uint64_t height) {
  const std::uint64_t h = mgrid::util::splitmix64(seed ^ (i * 2));
  return {static_cast<double>(h % width),
          static_cast<double>((h >> 20) % height)};
}

// --- process probes -------------------------------------------------------

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double thread_cpu_seconds() { return clock_seconds(CLOCK_THREAD_CPUTIME_ID); }

std::uint64_t context_switches() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::uint64_t>(usage.ru_nvcsw + usage.ru_nivcsw);
}

namespace {

/// A "Key:   value kB" field of /proc/self/status (0 when absent).
std::uint64_t status_field(std::string_view key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0 && line.size() > key.size() &&
        line[key.size()] == ':') {
      return std::strtoull(line.c_str() + key.size() + 1, nullptr, 10);
    }
  }
  return 0;
}

}  // namespace

double rss_mb() { return static_cast<double>(status_field("VmRSS")) / 1024.0; }

double peak_rss_mb() {
  return static_cast<double>(status_field("VmHWM")) / 1024.0;
}

std::uint64_t thread_count() { return status_field("Threads"); }

namespace {

/// Resets the kernel's peak-RSS mark to the current RSS.
void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

}  // namespace

void PeakRss::begin_phase() {
  if (measured_) return;
  // Memory freed since the inputs were generated goes back to the kernel,
  // so the high-water mark holds only what the phase makes resident.
  malloc_trim(0);
  reset_peak_rss();
  start_ = rss_mb();
}

void PeakRss::end_phase() {
  if (measured_) return;
  growth_ = peak_rss_mb() - start_;
  measured_ = true;
}

std::string filesystem_type(const std::string& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlay";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    default: break;
  }
  std::ostringstream hex;
  hex << "0x" << std::hex << static_cast<unsigned long>(info.f_type);
  return hex.str();
}

std::uint64_t count_source_lines(const std::string& dir) {
  namespace fs = std::filesystem;
  std::uint64_t lines = 0;
  std::error_code error;
  if (!fs::is_directory(dir, error)) return 0;
  for (const fs::directory_entry& entry :
       fs::recursive_directory_iterator(dir, error)) {
    const std::string ext = entry.path().extension().string();
    if (!entry.is_regular_file() || (ext != ".h" && ext != ".cpp")) continue;
    std::ifstream in(entry.path());
    std::string line;
    while (std::getline(in, line)) {
      if (line.find_first_not_of(" \t\r") != std::string::npos) ++lines;
    }
  }
  return lines;
}

// --- digests ----------------------------------------------------------------

void Digest::add(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash_ ^= bytes[i];
    hash_ *= 0x100000001b3ULL;
  }
}

std::string Digest::hex() const {
  std::ostringstream out;
  out << std::hex;
  out.width(16);
  out.fill('0');
  out << hash_;
  return out.str();
}

// --- metrics ----------------------------------------------------------------

const std::vector<MetricSpec>& metric_catalog() {
  static const std::vector<MetricSpec> catalog = [] {
    std::vector<MetricSpec> specs = {
        {"setup_s", "s", true},
        {"peak_rss_mb", "MB", true},
        {"cpu_us_per_lu", "us", true},

        // Wall-clock figures: measured every run, printed in the traced
        // pass; too unsteady on a shared host to gate (see README.md).
        {"experiment_s", "s"},
        {"lus_per_s", "1/s"},
        {"tick_p50_ms", "ms"},
        {"tick_p99_ms", "ms"},
        {"nearest_p50_us", "us"},

        {"core.adf.ns_per_sample", "ns"},
        {"core.adf.share", "frac"},
        {"core.adf.suppressed_ratio", "frac"},
        {"core.adf.payback_ratio", "ratio"},
        {"core.adf.rebuilds", "count"},
        {"core.clusterer.retired_slots", "count"},
        {"estimation.brown_polar.observe_ns", "ns"},
        {"estimation.brown_polar.observe.share", "frac"},
        {"estimation.brown_polar.forecast_ns", "ns"},
        {"estimation.brown_polar.forecast.share", "frac"},
        {"sim.federation.interactions_sent", "count"},
        {"broker.updates_received", "count"},
        {"broker.estimates_made", "count"},
        {"net.uplink_messages", "count"},
        {"serve.wire.encode_ns_per_lu", "ns"},
        {"serve.wire.encode.share", "frac"},
        {"serve.wire.decode_ns_per_lu", "ns"},
        {"serve.wire.decode.share", "frac"},
        {"cluster.ring.owner_ns", "ns"},
        {"cluster.ring.owner.share", "frac"},
        {"cluster.router.submit_ns_per_lu", "ns"},
        {"cluster.router.tick_p50_ms", "ms"},
        {"cluster.router.tick_p99_ms", "ms"},
        {"cluster.router.lus_per_batch", "count"},
        {"cluster.lu_server.lus_rejected", "count"},
        {"cluster.lu_server.bad_frames", "count"},
        {"cluster.replication.bytes_per_lu", "B"},
        {"cluster.replication.lag_records_max", "count"},
        {"cluster.replication.dropped_slow", "count"},
        {"cluster.follower.lag_p50_ms", "ms"},
        {"cluster.follower.lag_p99_ms", "ms"},
        {"cluster.follower.snapshot_bytes", "B"},
        {"serve.ingest.submit_ns_per_lu", "ns"},
        {"serve.ingest.flush_p50_ms", "ms"},
        {"serve.ingest.flush_p99_ms", "ms"},
        {"serve.ingest.lus_per_batch", "count"},
        {"serve.ingest.queue_depth_max", "count"},
        {"serve.wal.append_ns_per_lu", "ns"},
        {"serve.wal.append.share", "frac"},
        {"serve.wal.tick_sync_p50_ms", "ms"},
        {"serve.wal.tick_sync_p99_ms", "ms"},
        {"serve.wal.bytes_per_lu", "B"},
        {"serve.wal.file_mb", "MB"},
        {"serve.directory.apply_ns_per_lu", "ns"},
        {"serve.directory.apply.share", "frac"},
        {"serve.directory.advance_p50_ms", "ms"},
        {"lookup_p99_us", "us"},
        {"nearest_p99_us", "us"},
        {"serve.directory.lookup_service_ns", "ns"},
        {"serve.directory.nearest_service_us", "us"},
        {"bench.reader.late_p99_us", "us"},
    };
    static const char* const kStages[] = {"router_batch", "net", "queue",
                                          "wal", "apply", "visible",
                                          "follower_apply"};
    static std::vector<std::string> stage_names;
    for (const char* stage : kStages) {
      stage_names.push_back(std::string("trace.") + stage + ".p50_us");
      stage_names.push_back(std::string("trace.") + stage + ".p99_us");
    }
    for (const std::string& name : stage_names) specs.push_back({name, "us"});
    specs.push_back({"trace.overhead_frac", "frac"});
    specs.push_back({"trace.overhead_frac_iqr", "frac"});
    specs.push_back({"proc.threads", "count"});
    specs.push_back({"proc.ctx_switches_per_klu", "count"});
    return specs;
  }();
  return catalog;
}

void MetricSet::set(std::string_view name, double value) {
  values_[std::string(name)] = value;
}

double MetricSet::get(std::string_view name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

std::string format_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

std::string MetricSet::to_json(bool end_to_end) const {
  std::string out = "{";
  bool first = true;
  for (const MetricSpec& spec : metric_catalog()) {
    if (spec.end_to_end != end_to_end) continue;
    if (!first) out += ", ";
    first = false;
    out.append("\"").append(spec.name).append("\": {\"value\": ");
    out.append(format_number(get(spec.name))).append(", \"unit\": \"");
    out.append(spec.unit).append("\"}");
  }
  return out + "}";
}

}  // namespace ledger

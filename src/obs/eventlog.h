// Per-LU decision event log: one structured LuDecisionRecord per MN per
// sampled tick, assembled incrementally as the LU walks the pipeline
// (sample -> gateway -> channel -> filter verdict -> broker -> estimator ->
// scoring) and exported as a versioned JSONL/CSV document
// (mgrid-eventlog-v1).
//
// Injection mirrors obs::MetricsRegistry exactly: a ScopedEventLog installs
// a log for the current thread (each sweep worker installs its job's log),
// eventlog_enabled() is a single relaxed atomic load so fully-disabled call
// sites cost one load + one never-taken branch, and export sorts records by
// (sim time, node id) so the serialized document is byte-identical
// regardless of worker count.
//
// Layering: mg_obs sits below geo/mobility/net, so records hold only
// primitives — region and classified state are single-char codes ('R'oad /
// 'B'uilding / 'G'ate, 'S'top / 'R'andom / 'L'inear) that the writers
// expand to words.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace mgrid::obs {

/// Final verdict on one sampled position.
enum class LuDecision : std::uint8_t {
  kNone = 0,          ///< Record begun but no verdict reached (e.g. in flight).
  kSent,              ///< LU forwarded to the broker.
  kSuppressed,        ///< LU reached the filter and was suppressed.
  kDeviceSuppressed,  ///< Suppressed on the device by a pushed DTH.
  kLostOnAir,         ///< LU lost by the wireless channel model.
  kBatteryDead,       ///< MN battery empty; nothing transmitted.
};

/// Why the verdict came out the way it did.
enum class LuReason : std::uint8_t {
  kNone = 0,       ///< No reason recorded.
  kPolicy,         ///< Non-distance policy decided (ideal/time/prediction).
  kFirstReport,    ///< First sample of this MN: always sent.
  kBeyondDth,      ///< Displacement exceeded the threshold.
  kBelowDth,       ///< Displacement within the threshold.
  kForcedRefresh,  ///< Bounded-silence override forced the LU through.
  kDeviceDth,      ///< Device-side filter held it back.
  kChannelLoss,    ///< Channel dropped it before the filter saw it.
  kBatteryEmpty,   ///< Energy model ran dry.
};

[[nodiscard]] const char* to_string(LuDecision decision) noexcept;
[[nodiscard]] const char* to_string(LuReason reason) noexcept;

/// One MN sample's full lifecycle. Fields start at "unset" sentinels
/// (-1 ids, '?' codes, '-' channel) and are filled in as pipeline stages
/// annotate the record.
struct LuDecisionRecord {
  std::uint32_t mn = 0;
  double t = 0.0;
  double true_x = 0.0;
  double true_y = 0.0;
  char region = '?';  ///< 'R' road, 'B' building, 'G' gate.
  std::int64_t gateway = -1;
  bool handover = false;
  char state = '?';  ///< Classified pattern: 'S' stop, 'R' random, 'L' linear.
  std::int64_t cluster = -1;
  double cluster_speed = 0.0;
  double dth = 0.0;
  double moved = 0.0;  ///< Displacement since the last transmitted LU.
  LuDecision decision = LuDecision::kNone;
  LuReason reason = LuReason::kNone;
  char channel = '-';  ///< 'D' delivered, 'L' lost, '-' no uplink attempt.
  bool broker_rx = false;
  double vx = 0.0;  ///< Velocity hint the broker fed its estimator.
  double vy = 0.0;
  bool estimated = false;    ///< Broker coasted an estimate at this tick.
  bool est_clamped = false;  ///< Horizon clamp engaged while estimating.
  bool est_snapped = false;  ///< Map-matcher snapped the estimate to a road.
  bool scored = false;
  double est_x = 0.0;
  double est_y = 0.0;
  double error = 0.0;  ///< Distance truth -> broker view when scored.
};

struct EventLogOptions {
  /// Max records retained; further begins are counted as dropped.
  std::size_t capacity = std::size_t{1} << 20;
  /// Record only MNs with id % sample_every == 0 (1 = every MN).
  std::uint32_t sample_every = 1;
  /// Lock shards (records are sharded by MN id).
  std::size_t shards = 16;
};

/// Run-level header context stamped into the exported document so the
/// offline analyzer can recompute rates without the result JSON.
struct EventLogRunInfo {
  double duration = 0.0;
  double sample_period = 0.0;
  double bucket_width = 0.0;
  std::uint64_t seed = 0;
  std::string filter;
  std::string estimator;
  std::string scoring;
  /// Estimator smoothing factor (0 = factory default for the name).
  double estimator_alpha = 0.0;
  /// Estimate horizon clamp in seconds (0 = unclamped).
  double forecast_horizon = 0.0;
  bool map_match = false;
  /// Federation cycles between an MN sampling a position and the broker
  /// receiving the LU (MN -> ADF -> broker). Replay drivers need it to
  /// reconstruct broker arrival ticks from sample timestamps.
  std::uint32_t pipeline_depth = 0;
};

class EventLog {
 public:
  EventLog() : EventLog(EventLogOptions{}) {}
  explicit EventLog(EventLogOptions options);

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// True when `mn` falls inside the sampling stride.
  [[nodiscard]] bool wants(std::uint32_t mn) const noexcept {
    return options_.sample_every <= 1 || mn % options_.sample_every == 0;
  }

  /// Opens (or re-opens) the record for (mn, t) with ground truth. All
  /// later amendments for keys that were never begun (sampled out or
  /// dropped at capacity) are silently ignored. Returns the record (or
  /// nullptr when sampled out / dropped); see locate() for pointer
  /// stability.
  LuDecisionRecord* begin(std::uint32_t mn, double t, double x, double y,
                          char region);

  /// Locked lookup of the record for (mn, t); nullptr when absent. The
  /// returned pointer stays valid until clear() — records live in node-
  /// based maps, so rehashing never moves them. Used by the thread-local
  /// cursor to amend the active record without re-hashing per annotation;
  /// cross-thread writes are safe as long as no two threads write the same
  /// member concurrently (the pipeline's federation barriers guarantee
  /// this for the decision/reason members; all other members have a single
  /// writing stage).
  [[nodiscard]] LuDecisionRecord* locate(std::uint32_t mn, double t);

  /// Like locate() but opens the record on demand (same sampling/capacity
  /// rules as begin()).
  [[nodiscard]] LuDecisionRecord* open(std::uint32_t mn, double t);

  /// Applies `fn(LuDecisionRecord&)` under the shard lock if the record
  /// exists. Returns false when the key is absent. With `create` the
  /// record is opened on demand (same sampling/capacity rules as begin()):
  /// used by broker-side annotations, so the final record does not depend
  /// on whether the same-tick begin() ran first.
  template <typename Fn>
  bool amend(std::uint32_t mn, double t, Fn&& fn, bool create = false) {
    if (!wants(mn)) return false;
    Shard& shard = shard_for(mn);
    const std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.records.find(Key{mn, t});
    if (it == shard.records.end()) {
      if (!create) return false;
      it = open_locked(shard, mn, t);
      if (it == shard.records.end()) return false;  // dropped at capacity
    }
    fn(it->second);
    return true;
  }

  void set_run_info(EventLogRunInfo info);
  [[nodiscard]] EventLogRunInfo run_info() const;

  [[nodiscard]] std::uint64_t recorded() const noexcept {
    return recorded_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint32_t sample_every() const noexcept {
    return options_.sample_every;
  }

  /// All records sorted by (t, mn) — deterministic regardless of which
  /// threads produced them.
  [[nodiscard]] std::vector<LuDecisionRecord> records() const;

  /// Serializes to the mgrid-eventlog-v1 JSONL document (header line with
  /// schema/run info, then one object per record, unset fields omitted).
  [[nodiscard]] std::string to_jsonl() const;
  /// Same records as CSV with a fixed column set.
  [[nodiscard]] std::string to_csv() const;

  /// Drops every record and resets the counters (run info is kept).
  void clear();

 private:
  struct Key {
    std::uint32_t mn;
    double t;
    bool operator==(const Key& other) const noexcept {
      return mn == other.mn &&
             std::bit_cast<std::uint64_t>(t) ==
                 std::bit_cast<std::uint64_t>(other.t);
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept {
      std::uint64_t x =
          std::bit_cast<std::uint64_t>(key.t) ^
          (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(key.mn) + 1));
      x ^= x >> 30;
      x *= 0xbf58476d1ce4e5b9ULL;
      x ^= x >> 27;
      return static_cast<std::size_t>(x);
    }
  };
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<Key, LuDecisionRecord, KeyHash> records;
  };

  /// Inserts the record for (mn, t) — caller holds the shard lock. Returns
  /// end() when the log is at capacity (the drop is counted).
  std::unordered_map<Key, LuDecisionRecord, KeyHash>::iterator open_locked(
      Shard& shard, std::uint32_t mn, double t);

  Shard& shard_for(std::uint32_t mn) noexcept {
    return *shards_[mn % shards_.size()];
  }
  const Shard& shard_for(std::uint32_t mn) const noexcept {
    return *shards_[mn % shards_.size()];
  }

  EventLogOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> recorded_{0};
  std::atomic<std::uint64_t> dropped_{0};
  mutable std::mutex run_info_mutex_;
  EventLogRunInfo run_info_;
};

/// Writes JSONL (or CSV when `path` ends in ".csv") to `path`. Throws
/// std::runtime_error when the file cannot be written.
void write_eventlog_file(const std::string& path, const EventLog& log);

namespace detail {
/// Count of live ScopedEventLog installs across all threads; nonzero means
/// some thread is capturing, so producer guards must take the slow path.
extern std::atomic<std::uint32_t> g_eventlog_installs;
/// Swaps the calling thread's event log pointer, returning the previous one.
EventLog* exchange_current_event_log(EventLog* log) noexcept;
}  // namespace detail

/// The one relaxed load every producer call site pays when no log is
/// installed anywhere.
[[nodiscard]] inline bool eventlog_enabled() noexcept {
  return detail::g_eventlog_installs.load(std::memory_order_relaxed) != 0;
}

/// The calling thread's installed log, or nullptr.
[[nodiscard]] EventLog* current_event_log() noexcept;

/// RAII per-thread install, mirroring obs::ScopedRegistry: each sweep
/// worker installs its job's log so concurrent jobs never cross-contaminate.
class ScopedEventLog {
 public:
  explicit ScopedEventLog(EventLog& log) noexcept
      : previous_(detail::exchange_current_event_log(&log)) {
    detail::g_eventlog_installs.fetch_add(1, std::memory_order_relaxed);
  }
  ~ScopedEventLog() {
    detail::g_eventlog_installs.fetch_sub(1, std::memory_order_relaxed);
    detail::exchange_current_event_log(previous_);
  }
  ScopedEventLog(const ScopedEventLog&) = delete;
  ScopedEventLog& operator=(const ScopedEventLog&) = delete;

 private:
  EventLog* previous_;
};

// Annotation points for the pipeline stages. Every function is an
// out-of-line no-op when the calling thread has no log installed; call
// sites still guard with `if (obs::eventlog_enabled())` so the disabled
// cost stays one relaxed load without any call.
//
// Stages that run deep inside core/net/estimation (classifier, clustering,
// DTH computation, distance test, channel draw, horizon clamp, map snap)
// cannot name the MN/tick they serve, so the thread that drives a sample
// through them first points a thread-local cursor at the record
// (set_cursor / the cursor side of sample()) and the deep stages amend
// through it.
namespace evt {

namespace detail {
/// True while the calling thread's cursor points at (or may create) a live
/// record. The inline annotation wrappers below gate on this one
/// thread-local bool, so under a sampling stride the nodes that are
/// sampled *out* pay a TLS load + branch per deep-stage site instead of an
/// out-of-line call.
extern thread_local bool t_cursor_live;
void gateway_impl(std::int64_t gateway_id, bool handover);
void channel_outcome_impl(bool delivered);
void classified_impl(char state);
void clustered_impl(std::int64_t cluster, double cluster_speed);
void threshold_impl(double dth);
void df_outcome_impl(bool transmit, double moved, bool first_report);
void forced_refresh_impl();
void estimate_clamped_impl();
void estimate_snapped_impl();
}  // namespace detail

/// Begins the record with ground truth and points the cursor at it.
void sample(std::uint32_t mn, double t, double x, double y, char region);
/// Points the cursor at an existing record (e.g. when the filter federate
/// replays a received LU through the ADF).
void set_cursor(std::uint32_t mn, double t) noexcept;
void clear_cursor() noexcept;

// --- cursor-based deep-stage annotations ---
inline void gateway(std::int64_t gateway_id, bool handover) {
  if (detail::t_cursor_live) detail::gateway_impl(gateway_id, handover);
}
inline void channel_outcome(bool delivered) {
  if (detail::t_cursor_live) detail::channel_outcome_impl(delivered);
}
inline void classified(char state) {
  if (detail::t_cursor_live) detail::classified_impl(state);
}
inline void clustered(std::int64_t cluster, double cluster_speed) {
  if (detail::t_cursor_live) detail::clustered_impl(cluster, cluster_speed);
}
inline void threshold(double dth) {
  if (detail::t_cursor_live) detail::threshold_impl(dth);
}
/// Raw distance-filter outcome: transmit/suppress + displacement, with the
/// first-report special case.
inline void df_outcome(bool transmit, double moved, bool first_report) {
  if (detail::t_cursor_live) {
    detail::df_outcome_impl(transmit, moved, first_report);
  }
}
/// Bounded-silence override turned a suppression into a send.
inline void forced_refresh() {
  if (detail::t_cursor_live) detail::forced_refresh_impl();
}
inline void estimate_clamped() {
  if (detail::t_cursor_live) detail::estimate_clamped_impl();
}
inline void estimate_snapped() {
  if (detail::t_cursor_live) detail::estimate_snapped_impl();
}

// --- explicit-key annotations (callers know mn/t) ---
/// Filter federate's final word: decision + the numbers behind it. Keeps a
/// more specific reason already recorded by a deep stage; otherwise marks
/// the verdict as plain policy.
void verdict(std::uint32_t mn, double t, bool transmit, double moved,
             double dth, std::int64_t cluster);
void device_suppressed(std::uint32_t mn, double t, double dth);
void battery_dead(std::uint32_t mn, double t);
/// `vx`/`vy` echo the velocity hint delivered with the LU so a replay can
/// feed the broker's estimator the exact observation sequence.
void broker_received(std::uint32_t mn, double t, double vx, double vy);
void broker_estimated(std::uint32_t mn, double t);
void scored(std::uint32_t mn, double t, double est_x, double est_y,
            double error);

}  // namespace evt
}  // namespace mgrid::obs

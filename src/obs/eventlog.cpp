#include "obs/eventlog.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <stdexcept>

#include "util/json.h"

namespace mgrid::obs {
namespace {

const char* region_name(char code) noexcept {
  switch (code) {
    case 'R':
      return "road";
    case 'B':
      return "building";
    case 'G':
      return "gate";
    default:
      return "unknown";
  }
}

const char* state_name(char code) noexcept {
  switch (code) {
    case 'S':
      return "stop";
    case 'R':
      return "random";
    case 'L':
      return "linear";
    default:
      return "unknown";
  }
}

const char* channel_name(char code) noexcept {
  switch (code) {
    case 'D':
      return "delivered";
    case 'L':
      return "lost";
    default:
      return "none";
  }
}

void append_double(std::string& out, double value) {
  char buffer[32];
  const auto result =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  out.append(buffer, result.ptr);
}

}  // namespace

const char* to_string(LuDecision decision) noexcept {
  switch (decision) {
    case LuDecision::kNone:
      return "none";
    case LuDecision::kSent:
      return "sent";
    case LuDecision::kSuppressed:
      return "suppressed";
    case LuDecision::kDeviceSuppressed:
      return "device_suppressed";
    case LuDecision::kLostOnAir:
      return "lost_on_air";
    case LuDecision::kBatteryDead:
      return "battery_dead";
  }
  return "none";
}

const char* to_string(LuReason reason) noexcept {
  switch (reason) {
    case LuReason::kNone:
      return "none";
    case LuReason::kPolicy:
      return "policy";
    case LuReason::kFirstReport:
      return "first_report";
    case LuReason::kBeyondDth:
      return "beyond_dth";
    case LuReason::kBelowDth:
      return "below_dth";
    case LuReason::kForcedRefresh:
      return "forced_refresh";
    case LuReason::kDeviceDth:
      return "device_dth";
    case LuReason::kChannelLoss:
      return "channel_loss";
    case LuReason::kBatteryEmpty:
      return "battery_empty";
  }
  return "none";
}

EventLog::EventLog(EventLogOptions options) : options_(options) {
  if (options_.capacity == 0) {
    throw std::invalid_argument("EventLogOptions: capacity must be > 0");
  }
  if (options_.sample_every == 0) {
    throw std::invalid_argument("EventLogOptions: sample_every must be > 0");
  }
  if (options_.shards == 0) {
    throw std::invalid_argument("EventLogOptions: shards must be > 0");
  }
  shards_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::unordered_map<EventLog::Key, LuDecisionRecord, EventLog::KeyHash>::iterator
EventLog::open_locked(Shard& shard, std::uint32_t mn, double t) {
  const auto [it, inserted] = shard.records.try_emplace(Key{mn, t});
  if (inserted) {
    // The bound is checked against the global counter under the shard lock,
    // so a concurrent overflow can overshoot by at most one record per shard.
    if (recorded_.load(std::memory_order_relaxed) >= options_.capacity) {
      shard.records.erase(it);
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return shard.records.end();
    }
    recorded_.fetch_add(1, std::memory_order_relaxed);
    it->second.mn = mn;
    it->second.t = t;
  }
  return it;
}

LuDecisionRecord* EventLog::begin(std::uint32_t mn, double t, double x,
                                  double y, char region) {
  if (!wants(mn)) return nullptr;
  Shard& shard = shard_for(mn);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = open_locked(shard, mn, t);
  if (it == shard.records.end()) return nullptr;
  LuDecisionRecord& record = it->second;
  record.true_x = x;
  record.true_y = y;
  record.region = region;
  return &record;
}

LuDecisionRecord* EventLog::locate(std::uint32_t mn, double t) {
  if (!wants(mn)) return nullptr;
  Shard& shard = shard_for(mn);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.records.find(Key{mn, t});
  return it == shard.records.end() ? nullptr : &it->second;
}

LuDecisionRecord* EventLog::open(std::uint32_t mn, double t) {
  if (!wants(mn)) return nullptr;
  Shard& shard = shard_for(mn);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = open_locked(shard, mn, t);
  return it == shard.records.end() ? nullptr : &it->second;
}

void EventLog::set_run_info(EventLogRunInfo info) {
  const std::lock_guard<std::mutex> lock(run_info_mutex_);
  run_info_ = std::move(info);
}

EventLogRunInfo EventLog::run_info() const {
  const std::lock_guard<std::mutex> lock(run_info_mutex_);
  return run_info_;
}

std::vector<LuDecisionRecord> EventLog::records() const {
  std::vector<LuDecisionRecord> out;
  out.reserve(recorded());
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    for (const auto& [key, record] : shard->records) out.push_back(record);
  }
  std::sort(out.begin(), out.end(),
            [](const LuDecisionRecord& a, const LuDecisionRecord& b) {
              if (a.t != b.t) return a.t < b.t;
              return a.mn < b.mn;
            });
  return out;
}

void EventLog::clear() {
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    shard->records.clear();
  }
  recorded_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
}

std::string EventLog::to_jsonl() const {
  const std::vector<LuDecisionRecord> sorted = records();
  const EventLogRunInfo info = run_info();

  std::string out;
  {
    util::JsonWriter header;
    header.begin_object()
        .field("schema", "mgrid-eventlog-v1")
        .field("sample_every", static_cast<std::uint64_t>(sample_every()))
        .field("records", static_cast<std::uint64_t>(sorted.size()))
        .field("dropped", dropped())
        .key("run")
        .begin_object()
        .field("duration", info.duration)
        .field("sample_period", info.sample_period)
        .field("bucket_width", info.bucket_width)
        .field("seed", info.seed)
        .field("filter", info.filter)
        .field("estimator", info.estimator)
        .field("scoring", info.scoring)
        .field("estimator_alpha", info.estimator_alpha)
        .field("forecast_horizon", info.forecast_horizon)
        .field("map_match", info.map_match)
        .field("pipeline_depth",
               static_cast<std::uint64_t>(info.pipeline_depth))
        .end_object()
        .end_object();
    out += header.str();
    out += '\n';
  }
  for (const LuDecisionRecord& r : sorted) {
    util::JsonWriter line;
    line.begin_object()
        .field("mn", static_cast<std::uint64_t>(r.mn))
        .field("t", r.t)
        .field("x", r.true_x)
        .field("y", r.true_y)
        .field("region", region_name(r.region));
    if (r.gateway >= 0) {
      line.field("gw", static_cast<std::int64_t>(r.gateway));
      if (r.handover) line.field("handover", true);
    }
    if (r.state != '?') line.field("state", state_name(r.state));
    if (r.cluster >= 0) {
      line.field("cluster", static_cast<std::int64_t>(r.cluster));
      line.field("cluster_speed", r.cluster_speed);
    }
    if (r.dth != 0.0) line.field("dth", r.dth);
    if (r.moved != 0.0) line.field("moved", r.moved);
    line.field("decision", to_string(r.decision));
    line.field("reason", to_string(r.reason));
    if (r.channel != '-') line.field("channel", channel_name(r.channel));
    if (r.broker_rx) {
      line.field("broker_rx", true);
      if (r.vx != 0.0) line.field("vx", r.vx);
      if (r.vy != 0.0) line.field("vy", r.vy);
    }
    if (r.estimated) line.field("estimated", true);
    if (r.est_clamped) line.field("est_clamped", true);
    if (r.est_snapped) line.field("est_snapped", true);
    if (r.scored) {
      line.field("est_x", r.est_x)
          .field("est_y", r.est_y)
          .field("err", r.error);
    }
    line.end_object();
    out += line.str();
    out += '\n';
  }
  return out;
}

std::string EventLog::to_csv() const {
  const std::vector<LuDecisionRecord> sorted = records();
  std::string out =
      "mn,t,x,y,region,gateway,handover,state,cluster,cluster_speed,dth,"
      "moved,decision,reason,channel,broker_rx,estimated,est_clamped,"
      "est_snapped,scored,est_x,est_y,error,vx,vy\n";
  for (const LuDecisionRecord& r : sorted) {
    out += std::to_string(r.mn);
    out += ',';
    append_double(out, r.t);
    out += ',';
    append_double(out, r.true_x);
    out += ',';
    append_double(out, r.true_y);
    out += ',';
    out += region_name(r.region);
    out += ',';
    out += std::to_string(r.gateway);
    out += ',';
    out += r.handover ? '1' : '0';
    out += ',';
    out += state_name(r.state);
    out += ',';
    out += std::to_string(r.cluster);
    out += ',';
    append_double(out, r.cluster_speed);
    out += ',';
    append_double(out, r.dth);
    out += ',';
    append_double(out, r.moved);
    out += ',';
    out += to_string(r.decision);
    out += ',';
    out += to_string(r.reason);
    out += ',';
    out += channel_name(r.channel);
    out += ',';
    out += r.broker_rx ? '1' : '0';
    out += ',';
    out += r.estimated ? '1' : '0';
    out += ',';
    out += r.est_clamped ? '1' : '0';
    out += ',';
    out += r.est_snapped ? '1' : '0';
    out += ',';
    out += r.scored ? '1' : '0';
    out += ',';
    append_double(out, r.est_x);
    out += ',';
    append_double(out, r.est_y);
    out += ',';
    append_double(out, r.error);
    out += ',';
    append_double(out, r.vx);
    out += ',';
    append_double(out, r.vy);
    out += '\n';
  }
  return out;
}

void write_eventlog_file(const std::string& path, const EventLog& log) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    throw std::runtime_error("write_eventlog_file: cannot open " + path);
  }
  const bool csv = path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  file << (csv ? log.to_csv() : log.to_jsonl());
  if (!file) {
    throw std::runtime_error("write_eventlog_file: write failed for " + path);
  }
}

namespace {
thread_local EventLog* t_event_log = nullptr;
}  // namespace

namespace detail {

std::atomic<std::uint32_t> g_eventlog_installs{0};

EventLog* exchange_current_event_log(EventLog* log) noexcept {
  EventLog* previous = t_event_log;
  t_event_log = log;
  return previous;
}

}  // namespace detail

EventLog* current_event_log() noexcept { return t_event_log; }

namespace evt {
namespace {

/// Which record the deep pipeline stages on this thread annotate. The
/// record pointer is resolved once per cursor move (one locked hash
/// lookup) and then written through directly — the annotation-heavy inner
/// stages cost plain member stores instead of a lock + map find each.
/// Pointers stay valid until EventLog::clear(); the cursor remembers which
/// log it resolved against so a log swap (nested ScopedEventLog) re-resolves
/// instead of writing into the wrong log.
struct Cursor {
  EventLog* log = nullptr;
  LuDecisionRecord* record = nullptr;
  std::uint32_t mn = 0;
  double t = 0.0;
  bool active = false;
};
thread_local Cursor t_cursor;

template <typename Fn>
void amend_cursor(Fn&& fn, bool create = false) {
  EventLog* log = current_event_log();
  Cursor& cursor = t_cursor;
  if (log == nullptr || !cursor.active) return;
  if (cursor.log != log) {
    cursor.log = log;
    cursor.record = log->locate(cursor.mn, cursor.t);
  }
  if (cursor.record == nullptr) {
    if (!create) return;
    cursor.record = log->open(cursor.mn, cursor.t);
    if (cursor.record == nullptr) return;  // sampled out or at capacity
  }
  fn(*cursor.record);
}

template <typename Fn>
void amend_key(std::uint32_t mn, double t, Fn&& fn, bool create = false) {
  EventLog* log = current_event_log();
  if (log == nullptr) return;
  // Fast path: the caller usually names the record the cursor is already
  // parked on (the filter's verdict, the broker's score inside its cursor
  // scope) — reuse the resolved pointer instead of re-hashing.
  const Cursor& cursor = t_cursor;
  if (cursor.active && cursor.log == log && cursor.mn == mn &&
      std::bit_cast<std::uint64_t>(cursor.t) ==
          std::bit_cast<std::uint64_t>(t)) {
    amend_cursor(std::forward<Fn>(fn), create);
    return;
  }
  log->amend(mn, t, std::forward<Fn>(fn), create);
}

}  // namespace

void sample(std::uint32_t mn, double t, double x, double y, char region) {
  EventLog* log = current_event_log();
  if (log == nullptr) return;
  // A sampled-out node parks a dead cursor so the dozen downstream
  // annotations bail on the inline t_cursor_live gate instead of
  // re-testing the stride. A null record with a *live* cursor still
  // matters: create-amends (broker estimates) must be able to open it.
  LuDecisionRecord* record = log->begin(mn, t, x, y, region);
  const bool live = log->wants(mn);
  t_cursor = Cursor{log, record, mn, t, live};
  detail::t_cursor_live = live;
}

void set_cursor(std::uint32_t mn, double t) noexcept {
  EventLog* log = current_event_log();
  if (log == nullptr) return;
  const bool live = log->wants(mn);
  t_cursor = Cursor{log, log->locate(mn, t), mn, t, live};
  detail::t_cursor_live = live;
}

void clear_cursor() noexcept {
  t_cursor = Cursor{};
  detail::t_cursor_live = false;
}

namespace detail {

thread_local bool t_cursor_live = false;

void gateway_impl(std::int64_t gateway_id, bool handover) {
  amend_cursor([&](LuDecisionRecord& r) {
    r.gateway = gateway_id;
    r.handover = handover;
  });
}

void channel_outcome_impl(bool delivered) {
  amend_cursor([&](LuDecisionRecord& r) {
    r.channel = delivered ? 'D' : 'L';
    if (!delivered && r.decision == LuDecision::kNone) {
      r.decision = LuDecision::kLostOnAir;
      r.reason = LuReason::kChannelLoss;
    }
  });
}

void classified_impl(char state) {
  amend_cursor([&](LuDecisionRecord& r) { r.state = state; });
}

void clustered_impl(std::int64_t cluster, double cluster_speed) {
  amend_cursor([&](LuDecisionRecord& r) {
    r.cluster = cluster;
    r.cluster_speed = cluster_speed;
  });
}

void threshold_impl(double dth) {
  amend_cursor([&](LuDecisionRecord& r) { r.dth = dth; });
}

void df_outcome_impl(bool transmit, double moved, bool first_report) {
  amend_cursor([&](LuDecisionRecord& r) {
    r.decision = transmit ? LuDecision::kSent : LuDecision::kSuppressed;
    r.reason = first_report
                   ? LuReason::kFirstReport
                   : (transmit ? LuReason::kBeyondDth : LuReason::kBelowDth);
    r.moved = moved;
  });
}

void forced_refresh_impl() {
  amend_cursor([&](LuDecisionRecord& r) {
    r.decision = LuDecision::kSent;
    r.reason = LuReason::kForcedRefresh;
  });
}

void estimate_clamped_impl() {
  // create=true: the merged record is the same whether or not the
  // same-tick begin() ran first.
  amend_cursor([&](LuDecisionRecord& r) { r.est_clamped = true; },
               /*create=*/true);
}

void estimate_snapped_impl() {
  amend_cursor([&](LuDecisionRecord& r) { r.est_snapped = true; },
               /*create=*/true);
}

}  // namespace detail

void verdict(std::uint32_t mn, double t, bool transmit, double moved,
             double dth, std::int64_t cluster) {
  amend_key(mn, t, [&](LuDecisionRecord& r) {
    // Keep kForcedRefresh (set by the bounded-silence wrapper) over the
    // inner filter's transmit=false outcome.
    if (r.reason != LuReason::kForcedRefresh) {
      r.decision = transmit ? LuDecision::kSent : LuDecision::kSuppressed;
      if (r.reason == LuReason::kNone) r.reason = LuReason::kPolicy;
    }
    r.moved = moved;
    if (dth > 0.0) r.dth = dth;
    if (cluster >= 0) r.cluster = cluster;
  });
}

void device_suppressed(std::uint32_t mn, double t, double dth) {
  amend_key(mn, t, [&](LuDecisionRecord& r) {
    r.decision = LuDecision::kDeviceSuppressed;
    r.reason = LuReason::kDeviceDth;
    if (dth > 0.0) r.dth = dth;
  });
}

void battery_dead(std::uint32_t mn, double t) {
  amend_key(mn, t, [&](LuDecisionRecord& r) {
    r.decision = LuDecision::kBatteryDead;
    r.reason = LuReason::kBatteryEmpty;
  });
}

void broker_received(std::uint32_t mn, double t, double vx, double vy) {
  amend_key(mn, t, [&](LuDecisionRecord& r) {
    r.broker_rx = true;
    r.vx = vx;
    r.vy = vy;
  });
}

void broker_estimated(std::uint32_t mn, double t) {
  amend_key(mn, t, [&](LuDecisionRecord& r) { r.estimated = true; },
            /*create=*/true);
}

void scored(std::uint32_t mn, double t, double est_x, double est_y,
            double error) {
  amend_key(mn, t, [&](LuDecisionRecord& r) {
    r.scored = true;
    r.est_x = est_x;
    r.est_y = est_y;
    r.error = error;
  });
}

}  // namespace evt
}  // namespace mgrid::obs

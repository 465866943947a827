#include "serve/replay.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <variant>

#include "estimation/horizon_clamped.h"
#include "serve/wire.h"
#include "util/json.h"

namespace mgrid::serve {

ReplayLog load_eventlog(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    throw std::runtime_error("load_eventlog: cannot read " + path);
  }
  std::string line;
  if (!std::getline(file, line)) {
    throw std::runtime_error("load_eventlog: empty document " + path);
  }
  const util::JsonValue header = util::JsonValue::parse(line);
  if (header.at("schema").as_string() != "mgrid-eventlog-v1") {
    throw std::runtime_error("load_eventlog: unsupported schema '" +
                             header.at("schema").as_string() + "'");
  }
  ReplayLog log;
  log.records = static_cast<std::uint64_t>(header.at("records").as_double());
  log.run.sample_every =
      static_cast<std::uint32_t>(header.number_or("sample_every", 1.0));
  log.run.dropped =
      static_cast<std::uint64_t>(header.number_or("dropped", 0.0));
  const util::JsonValue& run = header.at("run");
  log.run.duration = run.at("duration").as_double();
  log.run.sample_period = run.at("sample_period").as_double();
  log.run.seed = static_cast<std::uint64_t>(run.number_or("seed", 0.0));
  log.run.filter = run.at("filter").as_string();
  log.run.estimator = run.at("estimator").as_string();
  log.run.estimator_alpha = run.number_or("estimator_alpha", 0.0);
  log.run.forecast_horizon = run.number_or("forecast_horizon", 0.0);
  if (const util::JsonValue* mm = run.find("map_match")) {
    log.run.map_match = mm->as_bool();
  }
  log.run.pipeline_depth =
      static_cast<std::uint32_t>(run.number_or("pipeline_depth", 0.0));

  while (std::getline(file, line)) {
    if (line.empty()) continue;
    const util::JsonValue record = util::JsonValue::parse(line);
    if (record.find("broker_rx") == nullptr) continue;
    ReplayLu lu;
    lu.mn = static_cast<std::uint32_t>(record.at("mn").as_double());
    lu.t = record.at("t").as_double();
    lu.x = record.at("x").as_double();
    lu.y = record.at("y").as_double();
    lu.vx = record.number_or("vx", 0.0);
    lu.vy = record.number_or("vy", 0.0);
    log.lus.push_back(lu);
  }
  return log;
}

bool replay_is_exact(const ReplayLog& log, std::string* why) {
  const auto fail = [&](const char* reason) {
    if (why != nullptr) *why = reason;
    return false;
  };
  if (!(log.run.duration > 0.0) || !(log.run.sample_period > 0.0)) {
    return fail("run header lacks duration/sample_period");
  }
  if (log.run.sample_every > 1) {
    return fail("log was sampled (sample_every > 1)");
  }
  if (log.run.dropped > 0) {
    return fail("log dropped records at capacity");
  }
  if (log.run.map_match) {
    return fail("map-matched estimator needs the campus map");
  }
  if (log.run.pipeline_depth == 0) {
    return fail("log predates pipeline_depth; arrival ticks unknown");
  }
  if (why != nullptr) why->clear();
  return true;
}

std::unique_ptr<estimation::LocationEstimator> make_replay_estimator(
    const ReplayRunInfo& run) {
  if (run.estimator.empty() || run.estimator == "none") return nullptr;
  if (run.map_match) {
    throw std::runtime_error(
        "make_replay_estimator: map-matched runs cannot be replayed "
        "(the eventlog does not carry the campus map)");
  }
  std::unique_ptr<estimation::LocationEstimator> estimator =
      estimation::make_estimator(run.estimator, run.estimator_alpha,
                                 run.sample_period);
  if (run.forecast_horizon > 0.0) {
    estimator = std::make_unique<estimation::HorizonClampedEstimator>(
        std::move(estimator), run.forecast_horizon);
  }
  return estimator;
}

ReplayReport replay_eventlog(const ReplayLog& log, ShardedDirectory& directory,
                             IngestPipeline& pipeline, WalWriter* wal) {
  ReplayReport report;
  if (!(log.run.sample_period > 0.0)) {
    throw std::runtime_error("replay_eventlog: sample_period must be > 0");
  }
  const double dt = log.run.sample_period;
  const auto cycles =
      static_cast<std::int64_t>(std::llround(log.run.duration / dt));
  if (cycles <= 0) return report;
  report.ticks = static_cast<std::size_t>(cycles);

  // Bucket LUs by broker-arrival tick (sample tick + pipeline depth).
  std::vector<std::vector<const ReplayLu*>> by_tick(
      static_cast<std::size_t>(cycles) + 1);
  for (const ReplayLu& lu : log.lus) {
    std::int64_t k =
        std::llround(lu.t / dt) + static_cast<std::int64_t>(
                                      log.run.pipeline_depth);
    k = std::max<std::int64_t>(1, std::min(k, cycles));
    by_tick[static_cast<std::size_t>(k)].push_back(&lu);
  }

  std::vector<std::uint8_t> frame;
  std::uint32_t seq = 0;
  for (std::int64_t k = 1; k <= cycles; ++k) {
    for (const ReplayLu* lu : by_tick[static_cast<std::size_t>(k)]) {
      // Round-trip through the wire codec: the replay exercises the same
      // decode path a network ingester would run.
      wire::LuMsg msg;
      msg.mn = lu->mn;
      msg.seq = seq++;
      msg.t = lu->t;
      msg.x = lu->x;
      msg.y = lu->y;
      msg.vx = lu->vx;
      msg.vy = lu->vy;
      frame.clear();
      wire::encode(frame, msg);
      const wire::Decoded decoded = wire::decode_frame(frame);
      if (!decoded.ok() ||
          !std::holds_alternative<wire::LuMsg>(decoded.msg) ||
          !pipeline.submit(std::get<wire::LuMsg>(decoded.msg))) {
        ++report.lus_dropped_wire;
        continue;
      }
      ++report.lus_submitted;
    }
    pipeline.flush();
    // Same multiplicative grant times the federation used (t0 = 0).
    const double t = static_cast<double>(k) * dt;
    if (wal != nullptr) wal->append_tick(t, static_cast<std::uint64_t>(k));
    report.estimates += directory.advance_estimates(t);
  }
  return report;
}

}  // namespace mgrid::serve

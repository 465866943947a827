// mgrid-eventlog-v1 replay for the serving layer.
//
// Loads a per-LU decision log recorded by a federation run (see
// obs/eventlog.h) and re-drives the broker-received LU stream through a
// ShardedDirectory via an IngestPipeline, tick by tick:
//
//   cycles = llround(run.duration / run.sample_period)
//   an LU sampled at time t is applied at tick
//       k = llround(t / run.sample_period) + run.pipeline_depth
//   for k = 1..cycles:  submit tick-k LUs -> flush -> advance_estimates(k*dt)
//
// The federation grants times t0 + k*step multiplicatively, every broker_rx
// record was actually delivered, and estimators see only (t, position,
// velocity) observations — so a faithful replay reproduces the recording
// federation's final per-MN views exactly (the cross-check in
// examples/mgrid_serve asserts 1e-9). Each LU is round-tripped through the
// mgrid-lu-v1 wire codec on the way in, so the replay exercises the full
// serving path: decode -> ingest -> shard -> estimator.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "estimation/estimator.h"
#include "serve/directory.h"
#include "serve/ingest.h"

namespace mgrid::serve {

/// Header context of a loaded eventlog (the "run" object plus document
/// counters).
struct ReplayRunInfo {
  double duration = 0.0;
  double sample_period = 0.0;
  std::uint64_t seed = 0;
  std::string filter;
  std::string estimator;
  double estimator_alpha = 0.0;
  double forecast_horizon = 0.0;
  bool map_match = false;
  std::uint32_t pipeline_depth = 0;
  std::uint32_t sample_every = 1;
  std::uint64_t dropped = 0;
};

/// One broker-received LU extracted from the log.
struct ReplayLu {
  std::uint32_t mn = 0;
  double t = 0.0;  ///< Sample time (== the broker's sampled_at).
  double x = 0.0;
  double y = 0.0;
  double vx = 0.0;
  double vy = 0.0;
};

struct ReplayLog {
  ReplayRunInfo run;
  /// broker_rx records only, in the document's (t, mn) order.
  std::vector<ReplayLu> lus;
  /// Total records in the document (including non-delivered ones).
  std::uint64_t records = 0;
};

/// Parses an mgrid-eventlog-v1 JSONL file. Throws std::runtime_error on an
/// unreadable file and util::JsonParseError / std::runtime_error on a
/// malformed or wrong-schema document.
[[nodiscard]] ReplayLog load_eventlog(const std::string& path);

/// True when the log can reproduce the recording run's final positions:
/// every LU present (sample_every <= 1, nothing dropped at capacity) and no
/// map-matched estimator (snapping needs the campus map, which the log does
/// not carry). `why` (optional) receives the reason when not exact.
[[nodiscard]] bool replay_is_exact(const ReplayLog& log,
                                   std::string* why = nullptr);

/// Builds the estimator chain the recording run used, from the logged
/// (estimator, alpha, sample_period, forecast_horizon) — the same factory
/// path run_experiment takes. Returns nullptr when the run had no
/// estimator. Throws std::runtime_error for map-matched runs.
[[nodiscard]] std::unique_ptr<estimation::LocationEstimator>
make_replay_estimator(const ReplayRunInfo& run);

struct ReplayReport {
  std::uint64_t lus_submitted = 0;
  std::uint64_t lus_dropped_wire = 0;  ///< Frames the codec refused.
  std::uint64_t estimates = 0;
  std::size_t ticks = 0;
};

/// Replays `log` into `directory` through `pipeline` (which must wrap
/// `directory`), with a flush barrier and an advance_estimates() per tick.
/// When `wal` is set (the pipeline's WAL), each barrier is also logged as a
/// tick record.
ReplayReport replay_eventlog(const ReplayLog& log, ShardedDirectory& directory,
                             IngestPipeline& pipeline,
                             WalWriter* wal = nullptr);

}  // namespace mgrid::serve

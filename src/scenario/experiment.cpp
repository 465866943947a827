#include "scenario/experiment.h"

#include <memory>
#include <optional>
#include <stdexcept>

#include "core/protocols.h"
#include "estimation/brown_estimator.h"
#include "estimation/estimator.h"
#include "estimation/horizon_clamped.h"
#include "estimation/map_matched.h"
#include "net/gateway.h"
#include "scenario/federates.h"

namespace mgrid::scenario {

std::string_view to_string(FilterKind kind) noexcept {
  switch (kind) {
    case FilterKind::kIdeal:
      return "ideal";
    case FilterKind::kAdf:
      return "adf";
    case FilterKind::kGeneralDf:
      return "general_df";
    case FilterKind::kTimeFilter:
      return "time_filter";
    case FilterKind::kPrediction:
      return "prediction";
  }
  return "unknown";
}

namespace {

std::unique_ptr<core::LocationUpdateFilter> make_filter(
    const ExperimentOptions& options) {
  std::unique_ptr<core::LocationUpdateFilter> filter;
  switch (options.filter) {
    case FilterKind::kIdeal:
      filter = std::make_unique<core::IdealReporter>();
      break;
    case FilterKind::kAdf: {
      core::AdfParams params = options.adf;
      params.dth_factor = options.dth_factor;
      params.sample_period = options.sample_period;
      filter = std::make_unique<core::AdaptiveDistanceFilter>(params);
      break;
    }
    case FilterKind::kGeneralDf: {
      core::GeneralDfParams params = options.general_df;
      params.dth_factor = options.dth_factor;
      params.sample_period = options.sample_period;
      filter = std::make_unique<core::GeneralDistanceFilter>(params);
      break;
    }
    case FilterKind::kTimeFilter:
      filter = std::make_unique<core::TimeFilter>(options.time_filter_interval);
      break;
    case FilterKind::kPrediction: {
      const std::string estimator = options.prediction_estimator;
      filter = std::make_unique<core::PredictionFilter>(
          [estimator] { return estimation::make_estimator(estimator); },
          options.prediction_threshold);
      break;
    }
  }
  if (!filter) throw std::invalid_argument("make_filter: unknown filter kind");
  if (options.max_silence > 0.0) {
    filter = std::make_unique<core::BoundedSilenceFilter>(std::move(filter),
                                                          options.max_silence);
  }
  return filter;
}

std::unique_ptr<estimation::LocationEstimator> make_broker_estimator(
    const ExperimentOptions& options, const geo::CampusMap& campus) {
  if (options.estimator.empty()) return nullptr;
  std::unique_ptr<estimation::LocationEstimator> estimator =
      estimation::make_estimator(options.estimator, options.estimator_alpha,
                                 options.sample_period);
  if (options.map_match) {
    estimator = std::make_unique<estimation::MapMatchedEstimator>(
        std::move(estimator), campus);
  }
  if (options.forecast_horizon > 0.0) {
    estimator = std::make_unique<estimation::HorizonClampedEstimator>(
        std::move(estimator), options.forecast_horizon);
  }
  return estimator;
}

}  // namespace

ExperimentResult run_experiment(const ExperimentOptions& options) {
  if (!(options.duration > 0.0)) {
    throw std::invalid_argument("ExperimentOptions: duration must be > 0");
  }
  // Route every instrumented subsystem at the injected registry for the
  // duration of this experiment (restored on exit, exception-safe).
  std::optional<obs::ScopedRegistry> scoped_registry;
  if (options.registry != nullptr) scoped_registry.emplace(*options.registry);
  // Same injection discipline for spans and the per-LU flight recorder:
  // install for this run, restore on exit.
  std::optional<obs::ScopedTraceRecorder> scoped_tracer;
  if (options.tracer != nullptr) scoped_tracer.emplace(*options.tracer);
  std::optional<obs::ScopedEventLog> scoped_event_log;
  if (options.event_log != nullptr) {
    obs::EventLogRunInfo info;
    info.duration = options.duration;
    info.sample_period = options.sample_period;
    info.bucket_width = options.bucket_width;
    info.seed = options.seed;
    info.filter = std::string(to_string(options.filter));
    info.estimator = options.estimator;
    info.scoring =
        options.scoring == ScoringMode::kLogical ? "logical" : "realtime";
    info.estimator_alpha = options.estimator_alpha;
    info.forecast_horizon = options.forecast_horizon;
    info.map_match = options.map_match;
    // MN sample -> ADF -> broker: two federation cycles (see
    // scenario/federates.cpp) — replay drivers rebuild broker arrival
    // ticks from this.
    info.pipeline_depth = 2;
    options.event_log->set_run_info(info);
    scoped_event_log.emplace(*options.event_log);
  }

  const geo::CampusMap campus =
      options.campus_blocks > 0
          ? geo::CampusMap::grid_campus(options.campus_blocks,
                                        options.campus_blocks)
          : geo::CampusMap::default_campus();
  const util::RngRegistry rng(options.seed);
  Workload workload(campus, options.workload, rng);
  net::GatewayNetwork gateways(campus);

  if (options.device_side_filtering &&
      (options.filter != FilterKind::kAdf || options.max_silence > 0.0)) {
    throw std::invalid_argument(
        "ExperimentOptions: device-side filtering requires the plain ADF");
  }
  MobilityConfig mobility_config;
  mobility_config.sample_period = options.sample_period;
  mobility_config.motion_dt = options.motion_dt;
  // In logical scoring mode the ground-truth interaction is delayed by the
  // pipeline depth (MN -> ADF -> broker = 2 cycles) so it reaches the
  // scorer together with its LU.
  mobility_config.truth_delay = options.scoring == ScoringMode::kLogical
                                    ? 2.0 * options.sample_period
                                    : 0.0;
  mobility_config.channel = options.channel;
  mobility_config.burst = options.burst;
  mobility_config.device_side = options.device_side_filtering;
  mobility_config.energy = options.energy;
  mobility_config.keepalive_interval = options.keepalive_interval;
  if (options.adf_shards == 0) {
    throw std::invalid_argument("ExperimentOptions: adf_shards must be >= 1");
  }
  auto mobility = std::make_shared<MobilityFederate>(
      workload, gateways, mobility_config, rng.stream("channel"));
  std::vector<std::shared_ptr<FilterFederate>> filters;
  for (std::size_t shard = 0; shard < options.adf_shards; ++shard) {
    filters.push_back(std::make_shared<FilterFederate>(
        make_filter(options), campus, options.bucket_width,
        options.device_side_filtering, /*dth_hysteresis=*/0.1, shard,
        options.adf_shards));
  }
  auto broker = std::make_shared<BrokerFederate>(
      make_broker_estimator(options, campus), options.bucket_width,
      options.scoring, options.jobs, &campus, rng.stream("jobs"));

  sim::Federation federation;
  federation.join(mobility);
  for (const auto& filter : filters) federation.join(filter);
  federation.join(broker);
  federation.run(0.0, options.duration, options.sample_period);

  ExperimentResult result;
  result.node_count = workload.size();

  // Aggregate traffic across ADF shards (a single shard is the common case).
  TrafficMetrics traffic(options.bucket_width);
  for (const auto& filter : filters) traffic.merge(filter->traffic());
  result.lu_per_bucket = traffic.transmitted_series().sums();
  result.lu_cumulative = traffic.transmitted_series().cumulative_sums();
  result.mean_lu_per_bucket = traffic.mean_per_bucket();
  result.total_transmitted = traffic.total_transmitted();
  result.total_attempted = traffic.total_attempted();
  result.transmission_rate = traffic.transmission_rate();
  result.road_transmission_rate =
      traffic.transmission_rate(geo::RegionKind::kRoad);
  result.building_transmission_rate =
      traffic.transmission_rate(geo::RegionKind::kBuilding);

  const ErrorMetrics& errors = broker->errors();
  result.rmse_per_bucket = errors.rmse_series();
  result.rmse_per_bucket_road = errors.rmse_series(geo::RegionKind::kRoad);
  result.rmse_per_bucket_building =
      errors.rmse_series(geo::RegionKind::kBuilding);
  result.rmse_overall = errors.overall_rmse();
  result.rmse_road = errors.rmse(geo::RegionKind::kRoad);
  result.rmse_building = errors.rmse(geo::RegionKind::kBuilding);
  result.mae_overall = errors.overall_mae();

  result.broker_stats = broker->broker().stats();
  result.federation_stats = federation.stats();
  result.handovers = gateways.handover_count();
  result.lus_lost_on_air = mobility->lus_lost();
  for (const auto& filter : filters) {
    const net::TrafficAccountant& accountant = filter->accountant();
    result.uplink_messages += accountant.total(net::Direction::kUplink).messages;
    result.uplink_bytes += accountant.total(net::Direction::kUplink).bytes;
    result.downlink_messages +=
        accountant.total(net::Direction::kDownlink).messages;
    result.downlink_bytes += accountant.total(net::Direction::kDownlink).bytes;
    result.lus_suppressed += accountant.suppressed();
  }
  result.lus_suppressed += mobility->accountant().suppressed();
  result.energy = mobility->energy_report(options.duration);
  for (const auto& filter : filters) {
    result.dth_downlink_messages += filter->dth_updates_published();
  }
  result.keepalives_sent = mobility->keepalives_sent();
  result.keepalives_received = broker->broker().stats().keepalives_received;
  result.jobs = broker->job_report();
  result.jobs.mean_dispatch_distance = mobility->mean_dispatch_distance();

  for (const auto& filter : filters) {
    if (const auto* adf = dynamic_cast<const core::AdaptiveDistanceFilter*>(
            &filter->filter())) {
      result.final_cluster_count += adf->clusterer().cluster_count();
      result.cluster_rebuilds += adf->rebuilds();
    }
  }

  const broker::LocationDb& db = broker->broker().db();
  for (MnId mn : db.known_nodes()) {  // sorted -> deterministic order
    const std::optional<broker::LocationRecord> record = db.lookup(mn);
    const broker::LocationFix& view = record->current_view;
    result.final_positions.push_back({static_cast<std::uint32_t>(mn.value()),
                                      view.t, view.position.x,
                                      view.position.y, view.estimated});
  }
  return result;
}

}  // namespace mgrid::scenario

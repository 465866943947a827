// Single-call experiment runner.
//
// Builds campus + Table-1 workload + gateways, wires the three federates
// into a federation, runs it for the configured duration and extracts every
// series and summary the paper's figures need. All benches and several
// integration tests drive experiments exclusively through this API.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "broker/grid_broker.h"
#include "core/adf.h"
#include "core/baselines.h"
#include "net/channel.h"
#include "obs/eventlog.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scenario/federates.h"
#include "scenario/workload.h"
#include "sim/federation.h"
#include "util/types.h"

namespace mgrid::scenario {

enum class FilterKind {
  kIdeal,
  kAdf,
  kGeneralDf,
  /// Temporal reporting: one LU per `time_filter_interval` seconds.
  kTimeFilter,
  /// DIS-style prediction-based reporting (see core::PredictionFilter).
  kPrediction,
};

[[nodiscard]] std::string_view to_string(FilterKind kind) noexcept;

struct ExperimentOptions {
  /// Simulated duration, seconds (paper: 1800).
  Duration duration = 1800.0;
  /// LU sampling period == federation step (paper: 1 s).
  Duration sample_period = 1.0;
  /// Motion integration sub-step (must divide sample_period).
  Duration motion_dt = 0.1;
  /// Root seed for all RNG streams.
  std::uint64_t seed = 42;

  FilterKind filter = FilterKind::kAdf;
  /// DTH factor ("0.75 av" etc.) applied to the chosen filter.
  double dth_factor = 1.0;
  /// Full ADF parameter block (dth_factor/sample_period are overridden by
  /// the fields above).
  core::AdfParams adf;
  core::GeneralDfParams general_df;
  /// kTimeFilter: reporting interval, seconds.
  Duration time_filter_interval = 5.0;
  /// kPrediction: deviation threshold (metres) and shared predictor name.
  double prediction_threshold = 2.0;
  std::string prediction_estimator = "dead_reckoning";
  /// > 0 wraps the chosen filter in BoundedSilenceFilter: a node silent
  /// this long has its next LU forced through (staleness guarantee).
  Duration max_silence = 0.0;

  /// Location estimator at the broker: "" disables LE; otherwise any name
  /// estimation::make_estimator() accepts ("brown_polar", "ar", ...).
  std::string estimator;
  /// Smoothing coefficient override for the brown_* / ses estimators
  /// (0 keeps each estimator's default).
  double estimator_alpha = 0.0;
  /// Wrap the estimator in MapMatchedEstimator (snaps road-bound forecasts
  /// onto the road network) — the repository's extension beyond the paper.
  bool map_match = false;
  /// Clamp the forecast horizon to this many seconds (0 = unlimited).
  /// Prevents long-outage extrapolation blowups; see
  /// HorizonClampedEstimator.
  Duration forecast_horizon = 0.0;

  WorkloadParams workload;
  /// 0 = the paper's campus (5 roads, 6 buildings). N > 0 = a generated
  /// NxN-block Manhattan campus (scalability experiments; the workload
  /// recipe scales with the region count).
  std::size_t campus_blocks = 0;
  net::ChannelParams channel;
  /// Bursty-outage channel (Gilbert-Elliott); p_enter_bad == 0 disables.
  net::GilbertElliottChannel::Params burst;
  /// Device-side filtering extension: the ADF pushes DTHs to the nodes and
  /// suppression happens on the device, saving uplink energy. Requires
  /// filter == kAdf.
  bool device_side_filtering = false;
  /// Radio energy model (always accounted).
  net::EnergyParams energy;
  /// Liveness beacon interval for device-side-silent nodes (0 = off).
  Duration keepalive_interval = 0.0;
  /// Grid job workload dispatched through the federation (rate 0 = off).
  JobWorkloadConfig jobs;
  /// Number of ADF instances, sharded by relaying gateway (edge
  /// deployment). Each shard has its own classifier/clusterer; a node
  /// crossing shards is re-learned by the new shard. Must be >= 1.
  std::size_t adf_shards = 1;
  /// Read by nothing: the federation has one (sequential) executor. Kept
  /// because the lu_ledger benchmark still assigns it.
  sim::ExecutionMode mode = sim::ExecutionMode::kSequential;
  /// Telemetry registry this experiment records into. nullptr keeps the
  /// calling thread's current registry (MetricsRegistry::global() unless a
  /// ScopedRegistry is already installed). Inject a per-experiment registry
  /// to run experiments concurrently without corrupting each other's
  /// counters — the sweep engine does exactly that. The registry must
  /// outlive the run_experiment() call.
  obs::MetricsRegistry* registry = nullptr;
  /// Per-LU decision event log (flight recorder). nullptr disables capture
  /// entirely (the instrumentation costs one relaxed atomic load); non-null
  /// installs it for this run via obs::ScopedEventLog and stamps the run
  /// info header. Must outlive the run_experiment() call.
  obs::EventLog* event_log = nullptr;
  /// Trace recorder for this run's spans. nullptr keeps the calling
  /// thread's current recorder (TraceRecorder::global() unless a
  /// ScopedTraceRecorder is already installed). The sweep engine injects a
  /// per-job recorder so concurrent jobs never interleave spans into the
  /// global ring. Must outlive the run_experiment() call.
  obs::TraceRecorder* tracer = nullptr;
  /// Metric bucket width, seconds.
  Duration bucket_width = 1.0;
  /// Error accounting (see ScoringMode). kRealTime (default) scores the
  /// view the broker actually held — filtering AND delivery latency — which
  /// is what a live scheduler experiences and where the paper's "LE halves
  /// the error" claim reproduces. kLogical isolates pure filtering error
  /// (ideal scores ~0; errors are bounded by the DTH).
  ScoringMode scoring = ScoringMode::kRealTime;
};

/// Broker's final view of one MN when the federation stopped. The serving
/// layer's eventlog replay reproduces these to verify it drives the shared
/// estimation core exactly as the federation broker did.
struct FinalPosition {
  std::uint32_t mn = 0;
  /// Time of the view (sample time when reported, tick time when estimated).
  double t = 0.0;
  double x = 0.0;
  double y = 0.0;
  bool estimated = false;
};

struct ExperimentResult {
  // --- traffic (Figs. 4-6) -------------------------------------------------
  /// Transmitted LUs per metric bucket.
  std::vector<double> lu_per_bucket;
  /// Running total of transmitted LUs per bucket (Fig. 5).
  std::vector<double> lu_cumulative;
  double mean_lu_per_bucket = 0.0;
  std::uint64_t total_transmitted = 0;
  std::uint64_t total_attempted = 0;
  /// Overall fraction of LUs that reached the broker.
  double transmission_rate = 1.0;
  double road_transmission_rate = 1.0;
  double building_transmission_rate = 1.0;

  // --- location error (Figs. 7-9) -------------------------------------------
  std::vector<double> rmse_per_bucket;
  std::vector<double> rmse_per_bucket_road;
  std::vector<double> rmse_per_bucket_building;
  double rmse_overall = 0.0;
  double rmse_road = 0.0;
  double rmse_building = 0.0;
  double mae_overall = 0.0;

  // --- bookkeeping ----------------------------------------------------------
  std::size_t node_count = 0;
  broker::BrokerStats broker_stats;
  sim::FederationStats federation_stats;
  std::uint64_t handovers = 0;
  std::uint64_t lus_lost_on_air = 0;
  /// Gateway-crossing traffic from the TrafficAccountant (the same totals
  /// the metrics registry exports as mgrid_net_messages_total /
  /// mgrid_net_bytes_total / mgrid_lu_suppressed_total).
  std::uint64_t uplink_messages = 0;
  std::uint64_t uplink_bytes = 0;
  std::uint64_t downlink_messages = 0;
  std::uint64_t downlink_bytes = 0;
  /// LUs suppressed before reaching the broker — server-side filter
  /// decisions plus device-side suppression, never both for one LU.
  std::uint64_t lus_suppressed = 0;
  /// ADF internals (0 for baselines).
  std::size_t final_cluster_count = 0;
  std::uint64_t cluster_rebuilds = 0;
  /// Radio energy outcome (see DeviceEnergyReport).
  DeviceEnergyReport energy;
  /// DTH downlink control messages (device-side mode only).
  std::uint64_t dth_downlink_messages = 0;
  /// Liveness beacons sent by long-silent nodes.
  std::uint64_t keepalives_sent = 0;
  std::uint64_t keepalives_received = 0;
  /// Grid job workload outcome (all zero when disabled).
  JobReport jobs;
  /// Broker's final per-MN views, sorted by MN id.
  std::vector<FinalPosition> final_positions;
};

/// Runs one experiment. Throws on invalid options.
[[nodiscard]] ExperimentResult run_experiment(const ExperimentOptions& options);

}  // namespace mgrid::scenario

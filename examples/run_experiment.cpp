// General experiment driver: every ExperimentOptions knob exposed as a
// key=value argument (or config file via config=path), full report printed.
//
//   run_experiment filter=adf dth_factor=1.25 estimator=brown_polar
//                  device_side=true keepalive=10 duration=600
//   run_experiment config=my_experiment.cfg csv=/tmp/series.csv
//
// Keys (defaults in brackets):
//   duration [1800] sample_period [1] motion_dt [0.1] seed [42]
//   filter [adf|ideal|general_df]  dth_factor [1.0]
//   estimator [""|brown_polar|brown_cartesian|ses|ar|dead_reckoning|last_known]
//   estimator_alpha [0] map_match [false] forecast_horizon [0]
//   scoring [realtime|logical]
//   device_side [false] keepalive [0]
//   loss [0] burst_enter [0] burst_exit [0.25]
//   campus_blocks [0 = paper campus]
//   alpha [0.8 clustering bound] recluster [30]
//   csv [path to dump the per-second LU + RMSE series]
//
// Telemetry (flag spellings also accepted, e.g. --metrics-out=m.prom):
//   metrics_out [path: registry snapshot; .json/.csv/else Prometheus text]
//   trace_out   [path: Chrome/Perfetto trace_event JSON]
//   eventlog_out    [path: per-LU decision flight recorder; .csv else JSONL]
//   eventlog_sample [1 = every MN; N records MNs with id % N == 0]
//   log_level   [warn|trace|debug|info|error|off]
#include <iostream>
#include <optional>

#include "mobilegrid/mobilegrid.h"

using namespace mgrid;

namespace {

scenario::FilterKind parse_filter(const std::string& name) {
  if (name == "adf") return scenario::FilterKind::kAdf;
  if (name == "ideal") return scenario::FilterKind::kIdeal;
  if (name == "general_df") return scenario::FilterKind::kGeneralDf;
  throw util::ConfigError("unknown filter: " + name);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Config config = util::Config::from_argv(argc, argv);

  scenario::ExperimentOptions options;
  options.duration = config.get_double("duration", 1800.0);
  options.sample_period = config.get_double("sample_period", 1.0);
  options.motion_dt = config.get_double("motion_dt", 0.1);
  options.seed = static_cast<std::uint64_t>(config.get_int("seed", 42));
  options.filter = parse_filter(config.get_string("filter", "adf"));
  options.dth_factor = config.get_double("dth_factor", 1.0);
  options.estimator = config.get_string("estimator", "");
  options.estimator_alpha = config.get_double("estimator_alpha", 0.0);
  options.map_match = config.get_bool("map_match", false);
  options.forecast_horizon = config.get_double("forecast_horizon", 0.0);
  options.scoring =
      util::to_lower(config.get_string("scoring", "realtime")) == "logical"
          ? scenario::ScoringMode::kLogical
          : scenario::ScoringMode::kRealTime;
  options.device_side_filtering = config.get_bool("device_side", false);
  options.keepalive_interval = config.get_double("keepalive", 0.0);
  options.channel.loss_probability = config.get_double("loss", 0.0);
  options.burst.p_enter_bad = config.get_double("burst_enter", 0.0);
  options.burst.p_exit_bad = config.get_double("burst_exit", 0.25);
  options.campus_blocks =
      static_cast<std::size_t>(config.get_int("campus_blocks", 0));
  options.adf.clustering.alpha = config.get_double("alpha", 0.8);
  options.adf.recluster_interval = config.get_double("recluster", 30.0);
  options.adf_shards =
      static_cast<std::size_t>(config.get_int("shards", 1));
  options.jobs.rate = config.get_double("job_rate", 0.0);

  if (config.contains("log_level")) {
    util::Logger::instance().set_level(
        util::parse_log_level(config.require_string("log_level")));
  }

  // Telemetry: either output path switches the whole pipeline on. Metrics
  // record into an experiment-local registry injected through
  // ExperimentOptions (global() stays untouched) — the same path the sweep
  // engine uses for isolation.
  const std::string metrics_out = config.get_string("metrics_out", "");
  const std::string trace_out = config.get_string("trace_out", "");
  obs::MetricsRegistry metrics_registry;
  if (!metrics_out.empty() || !trace_out.empty()) {
    obs::set_enabled(true);
    options.registry = &metrics_registry;
  }
  obs::TraceRecorder tracer;
  if (!trace_out.empty()) {
    tracer.set_enabled(true);
    options.tracer = &tracer;
  }

  // Flight recorder: one LuDecisionRecord per MN per tick, written as
  // versioned JSONL/CSV for offline analysis with mgrid_analyze.
  const std::string eventlog_out = config.get_string("eventlog_out", "");
  std::optional<obs::EventLog> event_log;
  if (!eventlog_out.empty()) {
    obs::EventLogOptions log_options;
    log_options.sample_every = static_cast<std::uint32_t>(
        config.get_int("eventlog_sample", 1));
    log_options.capacity = static_cast<std::size_t>(
        config.get_int("eventlog_capacity", 1 << 20));
    event_log.emplace(log_options);
    options.event_log = &*event_log;
  }

  const scenario::ExperimentResult result = scenario::run_experiment(options);

  std::cout << "=== experiment report ===\n";
  stats::Table report({"metric", "value"});
  auto add = [&report](const char* key, const std::string& value) {
    report.add_row({key, value});
  };
  add("filter", std::string(scenario::to_string(options.filter)) +
                    " @ " + stats::format_double(options.dth_factor, 2) +
                    " av" +
                    (options.device_side_filtering ? " (device-side)" : ""));
  add("estimator", options.estimator.empty()
                       ? "(none)"
                       : options.estimator +
                             (options.map_match ? " + map-match" : "") +
                             (options.forecast_horizon > 0.0
                                  ? " + horizon " +
                                        stats::format_double(
                                            options.forecast_horizon, 1) + " s"
                                  : ""));
  add("nodes", std::to_string(result.node_count));
  add("duration (s)", stats::format_double(options.duration, 0));
  add("LUs transmitted", std::to_string(result.total_transmitted));
  add("LUs attempted", std::to_string(result.total_attempted));
  add("transmission rate", stats::format_double(result.transmission_rate, 4));
  add("  roads", stats::format_double(result.road_transmission_rate, 4));
  add("  buildings",
      stats::format_double(result.building_transmission_rate, 4));
  add("mean LU/s", stats::format_double(result.mean_lu_per_bucket, 1));
  add("RMSE (m)", stats::format_double(result.rmse_overall, 3));
  add("  roads", stats::format_double(result.rmse_road, 3));
  add("  buildings", stats::format_double(result.rmse_building, 3));
  add("MAE (m)", stats::format_double(result.mae_overall, 3));
  add("clusters at end", std::to_string(result.final_cluster_count));
  add("cluster rebuilds", std::to_string(result.cluster_rebuilds));
  add("handovers", std::to_string(result.handovers));
  add("LUs lost on air", std::to_string(result.lus_lost_on_air));
  add("estimates made", std::to_string(result.broker_stats.estimates_made));
  add("keepalives", std::to_string(result.keepalives_sent));
  add("DTH downlink msgs", std::to_string(result.dth_downlink_messages));
  add("device-suppressed LUs",
      std::to_string(result.energy.lus_suppressed_on_device));
  add("mean radio energy (mJ)",
      stats::format_double(1e3 * result.energy.mean_energy_j, 3));
  add("phone lifetime (h)",
      stats::format_double(result.energy.projected_cellphone_lifetime_h, 2));
  add("federation interactions",
      std::to_string(result.federation_stats.interactions_sent));
  if (options.jobs.rate > 0.0) {
    add("jobs submitted", std::to_string(result.jobs.submitted));
    add("jobs completed", std::to_string(result.jobs.completed));
    add("jobs timed out", std::to_string(result.jobs.timed_out));
    add("mean completion (s)",
        stats::format_double(result.jobs.mean_completion_time, 1));
    add("mean dispatch dist (m)",
        stats::format_double(result.jobs.mean_dispatch_distance, 1));
  }
  report.write_pretty(std::cout);

  const std::string json_path = config.get_string("json", "");
  if (!json_path.empty()) {
    scenario::save_json(json_path, options, result);
    std::cout << "\nJSON report written to " << json_path << '\n';
  }

  const std::string csv = config.get_string("csv", "");
  if (!csv.empty()) {
    stats::Table series({"second", "lu_transmitted", "lu_cumulative",
                         "rmse", "rmse_road", "rmse_building"});
    const std::size_t n = result.lu_per_bucket.size();
    auto at = [](const std::vector<double>& v, std::size_t i) {
      return i < v.size() ? v[i] : 0.0;
    };
    for (std::size_t i = 0; i < n; ++i) {
      series.add_row_numeric(
          {static_cast<double>(i), at(result.lu_per_bucket, i),
           at(result.lu_cumulative, i), at(result.rmse_per_bucket, i),
           at(result.rmse_per_bucket_road, i),
           at(result.rmse_per_bucket_building, i)},
          3);
    }
    series.save_csv(csv);
    std::cout << "\nper-second series written to " << csv << '\n';
  }

  if (!metrics_out.empty()) {
    obs::write_metrics_file(metrics_out, metrics_registry.snapshot());
    std::cout << "\nmetrics snapshot written to " << metrics_out << '\n';
  }
  if (!trace_out.empty()) {
    obs::write_text_file(trace_out, tracer.to_chrome_json());
    std::cout << "trace written to " << trace_out
              << " (load in ui.perfetto.dev)\n";
  }
  if (event_log) {
    obs::write_eventlog_file(eventlog_out, *event_log);
    std::cout << "event log written to " << eventlog_out << " ("
              << event_log->recorded() << " records";
    if (event_log->dropped() > 0) {
      std::cout << ", " << event_log->dropped() << " dropped";
    }
    std::cout << ")\n";
  }
  return 0;
}

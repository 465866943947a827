// The paper's own experiment through scenario::run_experiment, run once in
// the cluster_adf_e2e traced pass.
//
// 140 Table-1 MNs on the paper's campus for 1800 s, ADF at 1.0 av with
// Brown-polar LE, sequential mode: the only place the ledger drives sim,
// mobility, net, broker and the classifier and clusterer at paper scale.
// It is not timed. Its CPU time swings with the host far more than a 0.25
// bound allows (see README.md), so it reports deterministic counts and
// output checks only.
#include <cmath>

#include "layers.h"
#include "mobilegrid/mobilegrid.h"

namespace ledger {

namespace {

constexpr int kDurationS = 1800;

scenario::ExperimentOptions paper_options(std::uint64_t seed) {
  scenario::ExperimentOptions options;
  options.duration = kDurationS;
  options.sample_period = 1.0;
  options.motion_dt = 0.1;
  options.seed = seed;
  options.filter = scenario::FilterKind::kAdf;
  options.dth_factor = 1.0;
  options.estimator = "brown_polar";
  options.mode = sim::ExecutionMode::kSequential;
  return options;
}

/// The broker-received LU stream of one experiment, as the serving layer's
/// eventlog replay consumes it.
serve::ReplayLog broker_stream(const obs::EventLog& log,
                               const std::vector<obs::LuDecisionRecord>& records) {
  serve::ReplayLog replay;
  const obs::EventLogRunInfo info = log.run_info();
  replay.run.duration = info.duration;
  replay.run.sample_period = info.sample_period;
  replay.run.seed = info.seed;
  replay.run.filter = info.filter;
  replay.run.estimator = info.estimator;
  replay.run.estimator_alpha = info.estimator_alpha;
  replay.run.forecast_horizon = info.forecast_horizon;
  replay.run.map_match = info.map_match;
  replay.run.pipeline_depth = info.pipeline_depth;
  replay.run.sample_every = log.sample_every();
  replay.run.dropped = log.dropped();
  replay.records = records.size();
  for (const obs::LuDecisionRecord& record : records) {
    if (!record.broker_rx) continue;
    replay.lus.push_back({record.mn, record.t, record.true_x, record.true_y,
                          record.vx, record.vy});
  }
  return replay;
}

/// Digest of the sampled positions an experiment's filter saw: the
/// comparison that proves the experiment consumed the generated input.
std::uint64_t sample_digest(const std::vector<Sample>& samples) {
  Digest digest;
  for (const Sample& sample : samples) {
    digest.add_value(sample.mn);
    digest.add_value(sample.t);
    digest.add_value(sample.x);
    digest.add_value(sample.y);
  }
  return digest.value();
}

/// The published directory holds the experiment broker's final views.
void check_published(const scenario::ExperimentResult& result,
                     const serve::ShardedDirectory& directory,
                     Outcome& outcome) {
  const std::vector<serve::DirectoryEntry> entries = directory.snapshot();
  bool same = entries.size() == result.final_positions.size();
  for (std::size_t i = 0; same && i < entries.size(); ++i) {
    const scenario::FinalPosition& want = result.final_positions[i];
    const serve::DirectoryEntry& got = entries[i];
    same = got.mn == want.mn && got.estimated == want.estimated &&
           std::abs(got.t - want.t) <= 1e-9 &&
           std::abs(got.position.x - want.x) <= 1e-9 &&
           std::abs(got.position.y - want.y) <= 1e-9;
  }
  outcome.check(same, "paper: published directory differs from the "
                      "experiment broker's final views");
}

}  // namespace

void report_paper_experiment(std::uint64_t seed, MetricSet& metrics,
                             Outcome& outcome) {
  const std::vector<Sample> input = table1_samples(
      seed, scenario::WorkloadParams{}, 0, kDurationS);

  obs::EventLog log;
  scenario::ExperimentOptions options = paper_options(seed);
  options.event_log = &log;
  const scenario::ExperimentResult result = scenario::run_experiment(options);
  const std::vector<obs::LuDecisionRecord> records = log.records();

  // The experiment consumed the generated input, and its accounting adds
  // up with one final view per MN.
  std::vector<Sample> seen, filter_input;
  for (const obs::LuDecisionRecord& record : records) {
    const Sample sample{record.mn,     record.t,  record.true_x,
                        record.true_y, record.vx, record.vy};
    seen.push_back(sample);
    if (record.decision == obs::LuDecision::kSent ||
        record.decision == obs::LuDecision::kSuppressed) {
      filter_input.push_back(sample);
    }
  }
  outcome.check(sample_digest(seen) == sample_digest(input),
                "paper: the experiment consumed other samples than the "
                "generated input");
  outcome.check(result.total_transmitted + result.lus_suppressed ==
                    result.total_attempted,
                "paper: transmitted + suppressed != attempted");
  bool ids_ok = result.final_positions.size() == result.node_count;
  for (std::size_t i = 1; ids_ok && i < result.final_positions.size(); ++i) {
    ids_ok = result.final_positions[i - 1].mn < result.final_positions[i].mn;
  }
  outcome.check(ids_ok, "paper: not exactly one final position per MN");

  // The broker view, published through the serving layer's eventlog
  // replay, holds the experiment's final positions.
  const std::shared_ptr<serve::ShardedDirectory> directory =
      make_serve_directory();
  {
    serve::IngestOptions ingest;
    ingest.sources = 8;
    ingest.workers = 2;
    ingest.batch_size = 256;
    serve::IngestPipeline pipeline(*directory, ingest);
    const serve::ReplayReport replayed =
        serve::replay_eventlog(broker_stream(log, records), *directory, pipeline);
    pipeline.stop();
    outcome.check(
        replayed.lus_submitted == result.broker_stats.updates_received,
        "paper: replay lost broker LUs");
  }
  check_published(result, *directory, outcome);

  // The ADF replayed over the samples read back from the eventlog makes
  // the experiment's decisions.
  const AdfReplay adf = replay_adf(filter_input, options.adf, 1);
  outcome.check(adf.transmitted == result.total_transmitted,
                "paper: isolated ADF replay disagrees with the experiment");

  metrics.set("sim.federation.interactions_sent",
              static_cast<double>(result.federation_stats.interactions_sent));
  metrics.set("broker.updates_received",
              static_cast<double>(result.broker_stats.updates_received));
  metrics.set("broker.estimates_made",
              static_cast<double>(result.broker_stats.estimates_made));
  metrics.set("net.uplink_messages",
              static_cast<double>(result.uplink_messages));
}

}  // namespace ledger

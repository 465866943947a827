// End-to-end serving-layer fidelity: record a federation run's per-LU event
// log, replay it through wire codec -> ingest pipeline -> sharded directory,
// and require the directory's final per-MN views to match the recording
// run's final positions to 1e-9 — for any worker/source/shard count.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "obs/eventlog.h"
#include "obs/export.h"
#include "scenario/experiment.h"
#include "serve/directory.h"
#include "serve/ingest.h"
#include "serve/replay.h"

namespace mgrid::serve {
namespace {

struct Recording {
  scenario::ExperimentResult result;
  std::string eventlog_path;
};

/// Runs a short lossy experiment with the flight recorder on and writes the
/// log next to gtest's temp dir.
Recording record(const std::string& tag, double duration,
                 const std::string& estimator, std::uint32_t sample_every = 1,
                 bool map_match = false) {
  scenario::ExperimentOptions options;
  options.duration = duration;
  options.estimator = estimator;
  options.map_match = map_match;
  options.channel.loss_probability = 0.05;

  obs::EventLogOptions log_options;
  log_options.sample_every = sample_every;
  obs::EventLog event_log(log_options);
  options.event_log = &event_log;

  Recording recording;
  recording.result = scenario::run_experiment(options);
  recording.eventlog_path =
      testing::TempDir() + "/serve_replay_" + tag + ".jsonl";
  obs::write_eventlog_file(recording.eventlog_path, event_log);
  return recording;
}

void expect_final_state_matches(const ShardedDirectory& directory,
                                const scenario::ExperimentResult& result) {
  const std::vector<DirectoryEntry> entries = directory.snapshot();
  ASSERT_EQ(entries.size(), result.final_positions.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const DirectoryEntry& got = entries[i];
    const scenario::FinalPosition& want = result.final_positions[i];
    ASSERT_EQ(got.mn, want.mn);
    EXPECT_NEAR(got.t, want.t, 1e-9) << "MN " << want.mn;
    EXPECT_NEAR(got.position.x, want.x, 1e-9) << "MN " << want.mn;
    EXPECT_NEAR(got.position.y, want.y, 1e-9) << "MN " << want.mn;
    EXPECT_EQ(got.estimated, want.estimated) << "MN " << want.mn;
  }
}

TEST(ReplayCrossCheck, ReproducesFederationFinalPositionsWithEstimator) {
  const Recording recording = record("brown", 20.0, "brown_polar");
  const ReplayLog log = load_eventlog(recording.eventlog_path);
  EXPECT_EQ(log.run.pipeline_depth, 2u);
  EXPECT_EQ(log.run.estimator, "brown_polar");
  std::string why;
  ASSERT_TRUE(replay_is_exact(log, &why)) << why;
  ASSERT_GT(log.lus.size(), 0u);
  // The recording is lossy (5%), so some attempts never reached the broker.
  EXPECT_EQ(log.lus.size(), recording.result.broker_stats.updates_received);

  for (const auto& [shards, sources, workers] :
       {std::tuple<std::size_t, std::size_t, std::size_t>{1, 1, 1},
        {4, 8, 4}}) {
    DirectoryOptions directory_options;
    directory_options.shards = shards;
    ShardedDirectory directory(directory_options,
                               make_replay_estimator(log.run));
    IngestOptions ingest_options;
    ingest_options.sources = sources;
    ingest_options.workers = workers;
    IngestPipeline pipeline(directory, ingest_options);
    const ReplayReport report = replay_eventlog(log, directory, pipeline);
    pipeline.stop();

    EXPECT_EQ(report.lus_dropped_wire, 0u);
    EXPECT_EQ(report.lus_submitted, log.lus.size());
    EXPECT_EQ(report.estimates,
              recording.result.broker_stats.estimates_made);
    expect_final_state_matches(directory, recording.result);
  }
  std::remove(recording.eventlog_path.c_str());
}

TEST(ReplayCrossCheck, ReproducesFederationFinalPositionsWithoutEstimator) {
  const Recording recording = record("noest", 15.0, "");
  const ReplayLog log = load_eventlog(recording.eventlog_path);
  std::string why;
  ASSERT_TRUE(replay_is_exact(log, &why)) << why;
  EXPECT_EQ(make_replay_estimator(log.run), nullptr);

  ShardedDirectory directory(DirectoryOptions{},
                             make_replay_estimator(log.run));
  IngestPipeline pipeline(directory, IngestOptions{});
  const ReplayReport report = replay_eventlog(log, directory, pipeline);
  pipeline.stop();
  EXPECT_EQ(report.estimates, 0u);
  expect_final_state_matches(directory, recording.result);
  std::remove(recording.eventlog_path.c_str());
}

TEST(ReplayCrossCheck, SampledLogIsNotExact) {
  const Recording recording = record("sampled", 6.0, "", /*sample_every=*/2);
  const ReplayLog log = load_eventlog(recording.eventlog_path);
  std::string why;
  EXPECT_FALSE(replay_is_exact(log, &why));
  EXPECT_NE(why.find("sample"), std::string::npos) << why;
  std::remove(recording.eventlog_path.c_str());
}

TEST(ReplayCrossCheck, MapMatchedLogIsNotExact) {
  const Recording recording =
      record("mapmatch", 6.0, "brown_polar", 1, /*map_match=*/true);
  const ReplayLog log = load_eventlog(recording.eventlog_path);
  std::string why;
  EXPECT_FALSE(replay_is_exact(log, &why));
  EXPECT_THROW((void)make_replay_estimator(log.run), std::runtime_error);
  std::remove(recording.eventlog_path.c_str());
}

TEST(ReplayCrossCheck, MissingFileThrows) {
  EXPECT_THROW((void)load_eventlog("/nonexistent/replay.jsonl"),
               std::runtime_error);
}

}  // namespace
}  // namespace mgrid::serve

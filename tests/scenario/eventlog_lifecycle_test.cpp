// End-to-end flight-recorder coverage: run real experiments with an
// injected obs::EventLog and recompute the ExperimentResult's traffic and
// error summary purely from the per-LU records. Exactness (1e-9 relative)
// is the acceptance bar — the records are sorted by (t, mn), which is the
// order TrafficMetrics / ErrorMetrics accumulated in, so the floating-point
// sums reproduce bit-faithfully.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "obs/eventlog.h"
#include "scenario/experiment.h"

namespace mgrid::scenario {
namespace {

struct Recomputed {
  std::uint64_t attempted = 0;
  std::uint64_t transmitted = 0;
  std::uint64_t lost_on_air = 0;
  std::uint64_t device_suppressed = 0;
  std::uint64_t bucket_count = 0;
  std::size_t scored = 0;
  double sum_sq = 0.0;
  double sum_abs = 0.0;
  double road_sum_sq = 0.0;
  std::size_t road_scored = 0;
  double building_sum_sq = 0.0;
  std::size_t building_scored = 0;
};

Recomputed recompute(const obs::EventLog& log, double bucket_width) {
  Recomputed out;
  for (const obs::LuDecisionRecord& r : log.records()) {
    const bool sent = r.decision == obs::LuDecision::kSent;
    if (sent || r.decision == obs::LuDecision::kSuppressed) {
      ++out.attempted;
      if (sent) {
        ++out.transmitted;
        const double offset = r.t / bucket_width;
        const std::uint64_t index =
            offset <= 0.0 ? 0
                          : static_cast<std::uint64_t>(std::floor(offset));
        out.bucket_count = std::max(out.bucket_count, index + 1);
      }
    }
    if (r.decision == obs::LuDecision::kLostOnAir) ++out.lost_on_air;
    if (r.decision == obs::LuDecision::kDeviceSuppressed) {
      ++out.device_suppressed;
    }
    if (r.scored) {
      const double magnitude = std::abs(r.error);
      ++out.scored;
      out.sum_sq += magnitude * magnitude;
      out.sum_abs += magnitude;
      if (r.region == 'R') {
        ++out.road_scored;
        out.road_sum_sq += magnitude * magnitude;
      } else if (r.region == 'B') {
        ++out.building_scored;
        out.building_sum_sq += magnitude * magnitude;
      }
    }
  }
  return out;
}

double rmse_of(double sum_sq, std::size_t n) {
  return n == 0 ? 0.0 : std::sqrt(sum_sq / static_cast<double>(n));
}

void expect_close(double expected, double actual, const char* what) {
  const double scale =
      std::max({1.0, std::abs(expected), std::abs(actual)});
  EXPECT_LE(std::abs(expected - actual), 1e-9 * scale) << what;
}

ExperimentOptions small_options() {
  ExperimentOptions options;
  options.duration = 40.0;
  options.estimator = "brown_polar";
  return options;
}

void check_against_result(const obs::EventLog& log,
                          const ExperimentResult& result,
                          double bucket_width) {
  const Recomputed sum = recompute(log, bucket_width);
  EXPECT_EQ(sum.attempted, result.total_attempted);
  EXPECT_EQ(sum.transmitted, result.total_transmitted);
  EXPECT_EQ(sum.lost_on_air, result.lus_lost_on_air);
  const double rate =
      sum.attempted == 0 ? 1.0
                         : static_cast<double>(sum.transmitted) /
                               static_cast<double>(sum.attempted);
  expect_close(result.transmission_rate, rate, "transmission_rate");
  const double mean_lu =
      sum.bucket_count == 0 ? 0.0
                            : static_cast<double>(sum.transmitted) /
                                  static_cast<double>(sum.bucket_count);
  expect_close(result.mean_lu_per_bucket, mean_lu, "mean_lu_per_bucket");
  expect_close(result.rmse_overall, rmse_of(sum.sum_sq, sum.scored), "rmse");
  expect_close(result.rmse_road, rmse_of(sum.road_sum_sq, sum.road_scored),
               "rmse_road");
  expect_close(result.rmse_building,
               rmse_of(sum.building_sum_sq, sum.building_scored),
               "rmse_building");
  const double mae =
      sum.scored == 0 ? 0.0 : sum.sum_abs / static_cast<double>(sum.scored);
  expect_close(result.mae_overall, mae, "mae");
}

TEST(EventLogLifecycle, RecomputesResultFromRecordsRealTime) {
  ExperimentOptions options = small_options();
  obs::EventLog log;
  options.event_log = &log;
  const ExperimentResult result = run_experiment(options);
  EXPECT_GT(log.recorded(), 0u);
  EXPECT_EQ(log.dropped(), 0u);
  check_against_result(log, result, options.bucket_width);
}

TEST(EventLogLifecycle, RecomputesResultFromRecordsLogicalScoring) {
  ExperimentOptions options = small_options();
  options.scoring = ScoringMode::kLogical;
  obs::EventLog log;
  options.event_log = &log;
  const ExperimentResult result = run_experiment(options);
  check_against_result(log, result, options.bucket_width);
}

TEST(EventLogLifecycle, ChannelLossRecordsLostOnAir) {
  ExperimentOptions options = small_options();
  options.channel.loss_probability = 0.2;
  obs::EventLog log;
  options.event_log = &log;
  const ExperimentResult result = run_experiment(options);
  EXPECT_GT(result.lus_lost_on_air, 0u);
  check_against_result(log, result, options.bucket_width);
}

TEST(EventLogLifecycle, DeviceSideSuppressionIsRecorded) {
  ExperimentOptions options = small_options();
  options.duration = 60.0;
  options.device_side_filtering = true;
  obs::EventLog log;
  options.event_log = &log;
  const ExperimentResult result = run_experiment(options);
  const Recomputed sum = recompute(log, options.bucket_width);
  EXPECT_GT(sum.device_suppressed, 0u);
  EXPECT_EQ(sum.device_suppressed, result.energy.lus_suppressed_on_device);
  check_against_result(log, result, options.bucket_width);
}

TEST(EventLogLifecycle, RecordsCarryPipelineDetail) {
  ExperimentOptions options = small_options();
  obs::EventLog log;
  options.event_log = &log;
  (void)run_experiment(options);
  const std::vector<obs::LuDecisionRecord> records = log.records();
  ASSERT_FALSE(records.empty());
  // ADF runs classify every LU that reaches the filter; sent records know
  // their gateway, state, cluster and threshold.
  bool saw_full_record = false;
  for (const obs::LuDecisionRecord& r : records) {
    if (r.decision != obs::LuDecision::kSent || r.t < 5.0) continue;
    if (r.gateway >= 0 && r.state != '?' && r.cluster >= 0 && r.dth > 0.0 &&
        r.channel == 'D' && r.broker_rx) {
      saw_full_record = true;
      break;
    }
  }
  EXPECT_TRUE(saw_full_record);
  // The broker estimator coasts unreported nodes: some record must carry an
  // estimate flag, and scored records exist in realtime mode.
  EXPECT_TRUE(std::any_of(records.begin(), records.end(),
                          [](const obs::LuDecisionRecord& r) {
                            return r.estimated;
                          }));
  EXPECT_TRUE(std::any_of(records.begin(), records.end(),
                          [](const obs::LuDecisionRecord& r) {
                            return r.scored;
                          }));
}

TEST(EventLogLifecycle, SampledLogOnlyKeepsStrideNodes) {
  ExperimentOptions options = small_options();
  options.duration = 15.0;
  obs::EventLogOptions log_options;
  log_options.sample_every = 4;
  obs::EventLog log(log_options);
  options.event_log = &log;
  (void)run_experiment(options);
  const std::vector<obs::LuDecisionRecord> records = log.records();
  ASSERT_FALSE(records.empty());
  for (const obs::LuDecisionRecord& r : records) {
    EXPECT_EQ(r.mn % 4, 0u);
  }
}

}  // namespace
}  // namespace mgrid::scenario

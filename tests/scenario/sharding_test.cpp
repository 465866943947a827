// Sharded (edge-deployed) ADF tests: multiple FilterFederate instances,
// each owning a subset of gateways.
#include <gtest/gtest.h>

#include "scenario/experiment.h"

namespace mgrid::scenario {
namespace {

ExperimentOptions sharded(std::size_t shards) {
  ExperimentOptions options;
  options.duration = 120.0;
  options.filter = FilterKind::kAdf;
  options.adf_shards = shards;
  return options;
}

TEST(ShardedAdf, Validation) {
  EXPECT_THROW((void)run_experiment(sharded(0)), std::invalid_argument);
}

TEST(ShardedAdf, EveryLuIsProcessedExactlyOnce) {
  const ExperimentResult single = run_experiment(sharded(1));
  const ExperimentResult four = run_experiment(sharded(4));
  // The union of the shards sees exactly the LU stream one ADF would see.
  EXPECT_EQ(four.total_attempted, single.total_attempted);
}

TEST(ShardedAdf, ReductionStaysComparable) {
  const ExperimentResult single = run_experiment(sharded(1));
  const ExperimentResult four = run_experiment(sharded(4));
  const double r1 = single.transmission_rate;
  const double r4 = four.transmission_rate;
  // Shards fragment the clusters, so filtering differs a little — but not
  // structurally.
  EXPECT_NEAR(r4, r1, 0.10);
}

TEST(ShardedAdf, ShardsFragmentClusters) {
  const ExperimentResult single = run_experiment(sharded(1));
  const ExperimentResult four = run_experiment(sharded(4));
  // Each shard runs its own clusterer over a subset of nodes; the summed
  // cluster count exceeds the monolithic one.
  EXPECT_GT(four.final_cluster_count, single.final_cluster_count);
}

TEST(ShardedAdf, ErrorStaysComparable) {
  ExperimentOptions one = sharded(1);
  one.estimator = "brown_polar";
  ExperimentOptions four = sharded(4);
  four.estimator = "brown_polar";
  const ExperimentResult a = run_experiment(one);
  const ExperimentResult b = run_experiment(four);
  EXPECT_LT(b.rmse_overall, a.rmse_overall * 1.4);
}

TEST(ShardedAdf, DeterministicForFixedSeed) {
  const ExperimentResult a = run_experiment(sharded(3));
  const ExperimentResult b = run_experiment(sharded(3));
  EXPECT_EQ(a.total_transmitted, b.total_transmitted);
  EXPECT_DOUBLE_EQ(a.rmse_overall, b.rmse_overall);
}

TEST(ShardedAdf, WorksWithDeviceSideFiltering) {
  ExperimentOptions options = sharded(3);
  options.device_side_filtering = true;
  const ExperimentResult result = run_experiment(options);
  EXPECT_GT(result.energy.lus_suppressed_on_device, 0u);
  EXPECT_GT(result.dth_downlink_messages, 0u);
}

TEST(ShardedAdf, WorksWithKeepalives) {
  ExperimentOptions options = sharded(3);
  options.device_side_filtering = true;
  options.keepalive_interval = 10.0;
  const ExperimentResult result = run_experiment(options);
  EXPECT_GT(result.keepalives_sent, 0u);
  // Exactly one shard relays each beacon — received never exceeds sent.
  EXPECT_LE(result.keepalives_received, result.keepalives_sent);
  EXPECT_GE(result.keepalives_received, result.keepalives_sent * 8 / 10);
}

}  // namespace
}  // namespace mgrid::scenario

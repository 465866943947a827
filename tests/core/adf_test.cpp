#include "core/adf.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <numbers>

#include "core/baselines.h"
#include "geo/campus.h"
#include "scenario/workload.h"
#include "util/rng.h"

namespace mgrid::core {
namespace {

using mobility::MobilityPattern;

TEST(Adf, ParamValidation) {
  AdfParams bad;
  bad.dth_factor = 0.0;
  EXPECT_THROW(AdaptiveDistanceFilter{bad}, std::invalid_argument);
  bad = {};
  bad.sample_period = 0.0;
  EXPECT_THROW(AdaptiveDistanceFilter{bad}, std::invalid_argument);
  bad = {};
  bad.stop_dth_factor = -1.0;
  EXPECT_THROW(AdaptiveDistanceFilter{bad}, std::invalid_argument);
  bad = {};
  bad.recluster_interval = -1.0;
  EXPECT_THROW(AdaptiveDistanceFilter{bad}, std::invalid_argument);
}

TEST(Adf, StationaryNodeTransmitsOnceThenSilence) {
  AdaptiveDistanceFilter adf;
  const MnId mn{1};
  int transmissions = 0;
  for (int t = 0; t < 60; ++t) {
    if (adf.process(mn, t, {10, 10}).transmit) ++transmissions;
  }
  EXPECT_EQ(transmissions, 1);  // only the first sighting
  EXPECT_EQ(adf.filtered(), 59u);
}

TEST(Adf, StationaryNodeIsClassifiedStopAndUnclustered) {
  AdaptiveDistanceFilter adf;
  const MnId mn{1};
  FilterDecision decision;
  for (int t = 0; t < 10; ++t) decision = adf.process(mn, t, {10, 10});
  EXPECT_EQ(decision.pattern, MobilityPattern::kStop);
  EXPECT_FALSE(decision.cluster.valid());
  EXPECT_EQ(adf.clusterer().cluster_count(), 0u);
  EXPECT_GT(decision.dth, 0.0);  // the stop-state threshold
}

TEST(Adf, MovingNodeGetsClusteredWithSpeedBasedDth) {
  AdaptiveDistanceFilter adf;
  const MnId mn{2};
  FilterDecision decision;
  for (int t = 0; t < 10; ++t) {
    decision = adf.process(mn, t, {3.0 * t, 0.0});  // 3 m/s runner
  }
  EXPECT_EQ(decision.pattern, MobilityPattern::kLinear);
  ASSERT_TRUE(decision.cluster.valid());
  // DTH = factor(1.0) * cluster mean speed (~3) * period (1 s).
  EXPECT_NEAR(decision.dth, 3.0, 0.3);
  EXPECT_NEAR(adf.current_dth(mn), decision.dth, 1e-12);
}

TEST(Adf, NodeMovingAtClusterMeanTransmitsEveryOtherTickAtFactorOne) {
  AdaptiveDistanceFilter adf;  // dth_factor = 1.0
  const MnId mn{3};
  int transmissions = 0;
  const int kTicks = 40;
  for (int t = 0; t < kTicks; ++t) {
    if (adf.process(mn, t, {2.5 * t, 0.0}).transmit) ++transmissions;
  }
  // DTH == per-tick displacement -> needs 2 ticks to strictly exceed.
  EXPECT_NEAR(static_cast<double>(transmissions) / kTicks, 0.5, 0.15);
}

TEST(Adf, LargerFactorFiltersMore) {
  std::uint64_t previous_transmitted = std::numeric_limits<std::uint64_t>::max();
  for (double factor : {0.75, 1.0, 1.25, 2.0}) {
    AdfParams params;
    params.dth_factor = factor;
    AdaptiveDistanceFilter adf(params);
    util::RngStream rng(7);
    // A mixed population of walkers at different speeds.
    for (int t = 0; t < 120; ++t) {
      for (unsigned n = 0; n < 10; ++n) {
        const double speed = 0.5 + 0.3 * n;
        adf.process(MnId{n}, t, {speed * t, static_cast<double>(n) * 10.0});
      }
    }
    EXPECT_LT(adf.transmitted(), previous_transmitted) << factor;
    previous_transmitted = adf.transmitted();
  }
}

TEST(Adf, SeparateClustersForWalkersAndVehicles) {
  AdaptiveDistanceFilter adf;
  for (int t = 0; t < 10; ++t) {
    adf.process(MnId{1}, t, {1.0 * t, 0.0});    // walker, 1 m/s
    adf.process(MnId{2}, t, {1.1 * t, 50.0});   // walker, 1.1 m/s
    adf.process(MnId{3}, t, {8.0 * t, 100.0});  // vehicle, 8 m/s
  }
  EXPECT_EQ(adf.clusterer().cluster_count(), 2u);
  // The vehicle's DTH must be much larger than the walkers'.
  EXPECT_GT(adf.current_dth(MnId{3}), 4.0 * adf.current_dth(MnId{1}));
}

TEST(Adf, NodeEnteringStopStateLeavesItsCluster) {
  AdaptiveDistanceFilter adf;
  const MnId mn{4};
  double x = 0.0;
  int t = 0;
  for (; t < 10; ++t) {
    x += 1.5;
    adf.process(mn, t, {x, 0.0});
  }
  EXPECT_EQ(adf.clusterer().cluster_count(), 1u);
  // Stop walking; once the window flushes, the node is SS and unclustered.
  for (; t < 25; ++t) adf.process(mn, t, {x, 0.0});
  EXPECT_EQ(adf.clusterer().cluster_count(), 0u);
}

TEST(Adf, PeriodicRebuildRuns) {
  AdfParams params;
  params.recluster_interval = 10.0;
  AdaptiveDistanceFilter adf(params);
  for (int t = 0; t < 35; ++t) adf.process(MnId{1}, t, {1.0 * t, 0.0});
  EXPECT_GE(adf.rebuilds(), 2u);
  EXPECT_LE(adf.rebuilds(), 4u);
}

TEST(Adf, RebuildDisabledWhenIntervalZero) {
  AdfParams params;
  params.recluster_interval = 0.0;
  AdaptiveDistanceFilter adf(params);
  for (int t = 0; t < 100; ++t) adf.process(MnId{1}, t, {1.0 * t, 0.0});
  EXPECT_EQ(adf.rebuilds(), 0u);
}

TEST(Adf, ErrorIsBoundedByDthPlusOneStep) {
  // The paper's implicit guarantee: the broker's stale view is never
  // farther from the truth than the node's DTH plus one inter-sample move.
  AdaptiveDistanceFilter adf;
  const MnId mn{5};
  geo::Vec2 last_transmitted{};
  util::RngStream rng(11);
  geo::Vec2 p{0, 0};
  double heading = 0.0;
  for (int t = 0; t < 200; ++t) {
    const FilterDecision decision = adf.process(mn, t, p);
    if (decision.transmit) last_transmitted = p;
    const double bound = decision.dth + 2.0 /* max speed per tick */;
    EXPECT_LE(geo::distance(last_transmitted, p), bound + 1e-9);
    heading += rng.uniform(-0.3, 0.3);
    p += geo::from_polar(heading, rng.uniform(0.5, 2.0));
  }
}

TEST(IdealReporter, TransmitsEverything) {
  IdealReporter ideal;
  EXPECT_THROW((void)ideal.process(MnId::invalid(), 0.0, {0, 0}),
               std::invalid_argument);
  for (int t = 0; t < 10; ++t) {
    const FilterDecision decision = ideal.process(MnId{1}, t, {1.0 * t, 0});
    EXPECT_TRUE(decision.transmit);
    EXPECT_EQ(decision.dth, 0.0);
  }
  EXPECT_EQ(ideal.transmitted(), 10u);
  EXPECT_EQ(ideal.filtered(), 0u);
}

TEST(GeneralDf, WarmupPassesEverything) {
  GeneralDfParams params;
  params.warmup_samples = 50;
  GeneralDistanceFilter df(params);
  int transmissions = 0;
  for (int t = 0; t < 10; ++t) {
    if (df.process(MnId{1}, t, {0.01 * t, 0.0}).transmit) ++transmissions;
  }
  EXPECT_EQ(transmissions, 10);  // global DTH still 0 during warm-up
  EXPECT_EQ(df.global_dth(), 0.0);
}

TEST(GeneralDf, GlobalDthTracksPopulationMean) {
  GeneralDfParams params;
  params.warmup_samples = 10;
  params.dth_factor = 1.0;
  GeneralDistanceFilter df(params);
  // Two nodes at 1 m/s and 3 m/s -> population mean 2 m/s.
  for (int t = 0; t < 30; ++t) {
    df.process(MnId{1}, t, {1.0 * t, 0.0});
    df.process(MnId{2}, t, {3.0 * t, 100.0});
  }
  EXPECT_NEAR(df.population_mean_speed(), 2.0, 0.05);
  EXPECT_NEAR(df.global_dth(), 2.0, 0.05);
}

TEST(GeneralDf, SameDthForEveryNode) {
  // The §3.2.2 critique: a global DTH over-filters slow nodes and
  // under-filters fast ones.
  GeneralDfParams params;
  params.warmup_samples = 4;
  GeneralDistanceFilter df(params);
  std::uint64_t slow_sent = 0;
  std::uint64_t fast_sent = 0;
  for (int t = 0; t < 100; ++t) {
    if (df.process(MnId{1}, t, {0.5 * t, 0.0}).transmit) ++slow_sent;
    if (df.process(MnId{2}, t, {6.0 * t, 100.0}).transmit) ++fast_sent;
  }
  EXPECT_LT(slow_sent, 40u);  // slow node heavily filtered
  EXPECT_GT(fast_sent, 90u);  // fast node barely filtered
}

TEST(Adf, AdaptiveBeatsGeneralOnHeterogeneousPopulation) {
  // At the same factor, the ADF should achieve a *more balanced* filtering:
  // the general DF lets the fast half through unfiltered while starving the
  // slow half. Compare the slow nodes' transmission counts.
  AdfParams adf_params;
  adf_params.dth_factor = 1.0;
  AdaptiveDistanceFilter adf(adf_params);
  GeneralDfParams df_params;
  df_params.dth_factor = 1.0;
  df_params.warmup_samples = 8;
  GeneralDistanceFilter general(df_params);

  std::uint64_t adf_slow = 0;
  std::uint64_t general_slow = 0;
  for (int t = 0; t < 200; ++t) {
    for (unsigned n = 0; n < 4; ++n) {
      const double speed = (n < 2) ? 0.8 : 7.0;  // two walkers, two vehicles
      const geo::Vec2 p{speed * t, static_cast<double>(n) * 50.0};
      const bool a = adf.process(MnId{n}, t, p).transmit;
      const bool g = general.process(MnId{n}, t, p).transmit;
      if (n < 2) {
        adf_slow += a ? 1 : 0;
        general_slow += g ? 1 : 0;
      }
    }
  }
  // The per-cluster DTH lets slow nodes report far more often than the
  // population-mean DTH does.
  EXPECT_GT(adf_slow, 2 * general_slow);
}

/// Digest of every decision the ADF makes on a fixed-seed Table-1 stream
/// (140 MNs, 600 one-second samples each): transmit flag, the DTH's bit
/// pattern, the mobility pattern and the cluster id, in arrival order.
std::uint64_t table1_decision_digest(Duration recluster_interval) {
  const geo::CampusMap campus = geo::CampusMap::default_campus();
  const util::RngRegistry rng(7);
  scenario::Workload workload(campus, scenario::WorkloadParams{}, rng);
  AdfParams params;
  params.recluster_interval = recluster_interval;
  AdaptiveDistanceFilter adf(params);
  std::uint64_t digest = 0;
  const auto mix = [&digest](std::uint64_t value) {
    digest = util::splitmix64(digest ^ value);
  };
  for (int t = 1; t <= 600; ++t) {
    workload.step_all(1.0);
    for (const mobility::MobileNode& node : workload.nodes()) {
      const FilterDecision decision =
          adf.process(node.id(), t, node.position());
      mix(decision.transmit ? 1 : 0);
      mix(std::bit_cast<std::uint64_t>(decision.dth));
      mix(static_cast<std::uint64_t>(decision.pattern));
      mix(decision.cluster.value());
    }
  }
  return digest;
}

// golden_regression_test compares RMSE to 1e-9, which a reordered
// nearest-cluster tie or a one-ulp DTH change can slip past; these digests
// pin the decision stream itself. Captured on the two-pass, hash-map ADF;
// a digest change is a behaviour change.
TEST(Adf, Table1DecisionStreamIsPinned) {
  EXPECT_EQ(table1_decision_digest(30.0), 0x067afeeb1a8693d3ull);
  EXPECT_EQ(table1_decision_digest(0.0), 0x301de62e0cb02ad8ull);
}

}  // namespace
}  // namespace mgrid::core

#include "core/clustering.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <numbers>
#include <optional>
#include <vector>

#include "util/rng.h"

namespace mgrid::core {
namespace {

MotionFeatures features_of(double speed, double heading = 0.0) {
  MotionFeatures f;
  f.mean_speed = speed;
  f.heading = heading;
  f.samples = 8;
  return f;
}

TEST(Clustering, ParamValidation) {
  ClusteringParams bad;
  bad.alpha = 0.0;
  EXPECT_THROW(SequentialClusterer{bad}, std::invalid_argument);
  bad = {};
  bad.direction_weight = -1.0;
  EXPECT_THROW(SequentialClusterer{bad}, std::invalid_argument);
}

TEST(Clustering, SimilarNodesShareACluster) {
  SequentialClusterer clusterer;
  const ClusterId a = clusterer.assign(MnId{1}, features_of(1.0));
  const ClusterId b = clusterer.assign(MnId{2}, features_of(1.2));
  EXPECT_EQ(a, b);
  EXPECT_EQ(clusterer.cluster_count(), 1u);
  EXPECT_EQ(clusterer.cluster(a).size, 2u);
  EXPECT_NEAR(clusterer.cluster(a).mean_speed(), 1.1, 1e-12);
}

TEST(Clustering, DissimilarSpeedsCreateNewClusters) {
  SequentialClusterer clusterer;  // alpha = 0.8
  clusterer.assign(MnId{1}, features_of(1.0));
  const ClusterId fast = clusterer.assign(MnId{2}, features_of(7.0));
  EXPECT_EQ(clusterer.cluster_count(), 2u);
  EXPECT_NEAR(clusterer.cluster(fast).mean_speed(), 7.0, 1e-12);
}

TEST(Clustering, AlphaBoundIsInclusive) {
  ClusteringParams params;
  params.alpha = 1.0;
  params.direction_weight = 0.0;  // pure speed distance
  SequentialClusterer clusterer(params);
  clusterer.assign(MnId{1}, features_of(2.0));
  // Distance exactly 1.0 == alpha -> joins.
  const ClusterId joined = clusterer.assign(MnId{2}, features_of(3.0));
  EXPECT_EQ(clusterer.cluster_count(), 1u);
  EXPECT_NEAR(clusterer.cluster(joined).mean_speed(), 2.5, 1e-12);
  // Distance from the (updated) centroid 2.5 beyond alpha -> new cluster.
  clusterer.assign(MnId{3}, features_of(4.0));
  EXPECT_EQ(clusterer.cluster_count(), 2u);
}

// find_nearest scans live clusters only, in ascending id order, keeping the
// first strictly nearer one: an exact tie goes to the lower live id, and a
// retired slot below it changes nothing.
TEST(Clustering, EquidistantTieGoesToTheLowestLiveId) {
  ClusteringParams params;
  params.alpha = 0.5;
  params.max_clusters = 2;  // the tied node must join one of the two
  SequentialClusterer clusterer(params);
  const ClusterId retired = clusterer.assign(MnId{1}, features_of(10.0));
  const ClusterId slow = clusterer.assign(MnId{2}, features_of(1.0));
  clusterer.remove(MnId{1});  // retires the lowest slot
  const ClusterId fast = clusterer.assign(MnId{3}, features_of(3.0));
  ASSERT_LT(retired, slow);
  ASSERT_LT(slow, fast);
  EXPECT_EQ(clusterer.cluster_count(), 2u);
  // Speed 2.0 is exactly 1.0 from both centroids (headings equal).
  EXPECT_EQ(clusterer.assign(MnId{4}, features_of(2.0)), slow);
  EXPECT_EQ(clusterer.cluster_count(), 2u);
}

TEST(Clustering, DirectionSeparatesEqualSpeeds) {
  ClusteringParams params;
  params.alpha = 0.5;
  params.direction_weight = 1.0;
  SequentialClusterer clusterer(params);
  clusterer.assign(MnId{1}, features_of(1.0, 0.0));           // east
  clusterer.assign(MnId{2}, features_of(1.0, 3.14159));       // west
  EXPECT_EQ(clusterer.cluster_count(), 2u);
}

TEST(Clustering, ZeroDirectionWeightIgnoresHeading) {
  ClusteringParams params;
  params.alpha = 0.5;
  params.direction_weight = 0.0;
  SequentialClusterer clusterer(params);
  clusterer.assign(MnId{1}, features_of(1.0, 0.0));
  clusterer.assign(MnId{2}, features_of(1.0, 3.14159));
  EXPECT_EQ(clusterer.cluster_count(), 1u);
}

TEST(Clustering, ReassignMovesNodeBetweenClusters) {
  SequentialClusterer clusterer;
  clusterer.assign(MnId{1}, features_of(1.0));
  clusterer.assign(MnId{2}, features_of(7.0));
  EXPECT_EQ(clusterer.cluster_count(), 2u);
  // Node 1 speeds up: it must migrate to the fast cluster, and the cluster
  // it vacates (now empty) retires.
  const ClusterId now = clusterer.assign(MnId{1}, features_of(7.2));
  EXPECT_EQ(clusterer.cluster_count(), 1u);
  EXPECT_EQ(now, *clusterer.cluster_of(MnId{2}));
  EXPECT_EQ(clusterer.cluster(now).size, 2u);
}

TEST(Clustering, EmptyClustersAreRetired) {
  SequentialClusterer clusterer;
  const ClusterId only = clusterer.assign(MnId{1}, features_of(1.0));
  clusterer.assign(MnId{2}, features_of(7.0));
  // Node 1 migrates away; its old cluster dies.
  clusterer.assign(MnId{1}, features_of(7.0));
  EXPECT_EQ(clusterer.cluster_count(), 1u);
  EXPECT_THROW((void)clusterer.cluster(only), std::out_of_range);
}

TEST(Clustering, RemoveRetiresNodeAndCluster) {
  SequentialClusterer clusterer;
  clusterer.assign(MnId{1}, features_of(1.0));
  EXPECT_TRUE(clusterer.remove(MnId{1}));
  EXPECT_FALSE(clusterer.remove(MnId{1}));
  EXPECT_EQ(clusterer.cluster_count(), 0u);
  EXPECT_EQ(clusterer.member_count(), 0u);
  EXPECT_FALSE(clusterer.cluster_of(MnId{1}).has_value());
}

TEST(Clustering, CentroidTracksMembershipChanges) {
  ClusteringParams params;
  params.alpha = 2.0;
  params.direction_weight = 0.0;
  SequentialClusterer clusterer(params);
  const ClusterId c = clusterer.assign(MnId{1}, features_of(1.0));
  clusterer.assign(MnId{2}, features_of(2.0));
  clusterer.assign(MnId{3}, features_of(3.0));
  EXPECT_NEAR(clusterer.cluster(c).mean_speed(), 2.0, 1e-12);
  clusterer.remove(MnId{3});
  EXPECT_NEAR(clusterer.cluster(c).mean_speed(), 1.5, 1e-12);
}

TEST(Clustering, MaxClustersForcesNearestAssignment) {
  ClusteringParams params;
  params.alpha = 0.1;
  params.max_clusters = 2;
  params.direction_weight = 0.0;
  SequentialClusterer clusterer(params);
  clusterer.assign(MnId{1}, features_of(1.0));
  clusterer.assign(MnId{2}, features_of(5.0));
  // Far from both, but the cap forces it into the nearest (5.0).
  const ClusterId forced = clusterer.assign(MnId{3}, features_of(9.0));
  EXPECT_EQ(clusterer.cluster_count(), 2u);
  EXPECT_EQ(forced, *clusterer.cluster_of(MnId{2}));
}

TEST(Clustering, RebuildIsDeterministicAndMerges) {
  ClusteringParams params;
  params.alpha = 1.0;
  params.direction_weight = 0.0;
  SequentialClusterer clusterer(params);
  // Insertion order 1.0, 3.0, 2.0 leaves two clusters whose centroids can
  // drift close together after reassignments.
  clusterer.assign(MnId{1}, features_of(1.0));
  clusterer.assign(MnId{2}, features_of(3.0));
  clusterer.assign(MnId{3}, features_of(2.0));
  clusterer.rebuild();
  // Rebuild in MnId order: 1.0 seeds c0; 2.0 joins (d=1<=alpha, centroid
  // 1.5); 3.0 is d=1.5 away -> new cluster... then the merge pass runs.
  const std::size_t after_first = clusterer.cluster_count();
  // A second rebuild from identical features must be a fixed point.
  clusterer.rebuild();
  EXPECT_EQ(clusterer.cluster_count(), after_first);
  EXPECT_EQ(clusterer.member_count(), 3u);
}

TEST(Clustering, RebuildRejectsNegativeMergeFraction) {
  SequentialClusterer clusterer;
  EXPECT_THROW(clusterer.rebuild(-0.5), std::invalid_argument);
}

TEST(Clustering, ClustersListedInIdOrder) {
  SequentialClusterer clusterer;
  clusterer.assign(MnId{1}, features_of(1.0));
  clusterer.assign(MnId{2}, features_of(5.0));
  clusterer.assign(MnId{3}, features_of(9.0));
  const auto clusters = clusterer.clusters();
  ASSERT_EQ(clusters.size(), 3u);
  EXPECT_LT(clusters[0].id, clusters[1].id);
  EXPECT_LT(clusters[1].id, clusters[2].id);
  EXPECT_EQ(clusterer.clusters_created(), 3u);
}

TEST(Clustering, InvalidMnRejected) {
  SequentialClusterer clusterer;
  EXPECT_THROW((void)clusterer.assign(MnId::invalid(), features_of(1.0)),
               std::invalid_argument);
}

TEST(ClusterFeature, DistanceIsEuclideanInEmbeddedSpace) {
  const ClusterFeature a = ClusterFeature::from_motion(features_of(1.0, 0.0),
                                                       /*w=*/2.0);
  const ClusterFeature b = ClusterFeature::from_motion(features_of(1.0, 0.0),
                                                       2.0);
  EXPECT_EQ(a.distance_to(b), 0.0);
  const ClusterFeature c = ClusterFeature::from_motion(features_of(4.0, 0.0),
                                                       2.0);
  EXPECT_NEAR(a.distance_to(c), 3.0, 1e-12);
}

/// Largest gap between a running-sum centroid and the exact mean of its
/// members' latest features, checked every 1000 of 200k assign/remove calls
/// (10% removes) on 40 MNs with no rebuild. Features are drawn uniformly
/// from the given speed band and heading spread.
struct Drift {
  double worst_gap = 0.0;
  std::uint64_t clusters_created = 0;
};

Drift centroid_drift(double speed_lo, double speed_hi, double heading_spread) {
  constexpr std::uint32_t kNodes = 40;
  constexpr int kCalls = 200000;
  const ClusteringParams params;
  SequentialClusterer clusterer(params);
  util::RngStream rng(2024);
  // The feature each MN joined with, mirrored here to recompute the means.
  std::vector<std::optional<ClusterFeature>> latest(kNodes);
  Drift drift;
  for (int call = 0; call < kCalls; ++call) {
    const MnId mn{static_cast<MnId::value_type>(rng.index(kNodes))};
    if (rng.chance(0.1)) {
      clusterer.remove(mn);
      latest[mn.value()].reset();
    } else {
      const MotionFeatures f =
          features_of(rng.uniform(speed_lo, speed_hi),
                      rng.uniform(-heading_spread, heading_spread));
      clusterer.assign(mn, f);
      latest[mn.value()] =
          ClusterFeature::from_motion(f, params.direction_weight);
    }
    if (call % 1000 != 999) continue;
    for (const ClusterInfo& info : clusterer.clusters()) {
      ClusterFeature sum;
      std::size_t members = 0;
      for (std::uint32_t n = 0; n < kNodes; ++n) {
        if (clusterer.cluster_of(MnId{n}) != info.id) continue;
        sum.speed += latest[n]->speed;
        sum.dir_x += latest[n]->dir_x;
        sum.dir_y += latest[n]->dir_y;
        ++members;
      }
      EXPECT_EQ(members, info.size);
      const double count = static_cast<double>(members);
      const ClusterFeature mean{sum.speed / count, sum.dir_x / count,
                                sum.dir_y / count};
      drift.worst_gap =
          std::max(drift.worst_gap, info.centroid.distance_to(mean));
    }
  }
  drift.clusters_created = clusterer.clusters_created();
  return drift;
}

// Centroids are running sums updated by subtract/add, so between rebuilds
// they can drift from the exact member mean (ROADMAP item 4). Measured
// before any change to that arithmetic; the bounds are 100x the measured
// gaps, so a change that makes drift grow trips them while the last bits
// of today's rounding do not.
TEST(Clustering, RunningSumCentroidDriftStaysBounded) {
  // Churning population: clusters are founded and retired all the time.
  const Drift churn = centroid_drift(0.5, 2.5, std::numbers::pi);
  // One band inside alpha: a single cluster lives through all 200k calls,
  // so every rounding error it ever takes stays in its sums.
  const Drift steady = centroid_drift(1.0, 1.6, 0.3);
  std::printf("centroid drift: churn %.6g (%llu clusters), steady %.6g\n",
              churn.worst_gap,
              static_cast<unsigned long long>(churn.clusters_created),
              steady.worst_gap);
  EXPECT_GT(churn.clusters_created, 100u);
  EXPECT_EQ(steady.clusters_created, 1u);
  // Measured (x86-64, GCC, no FMA contraction): 2.55597e-14 and 1.04739e-14.
  EXPECT_LE(churn.worst_gap, 2.6e-12);
  EXPECT_LE(steady.worst_gap, 1.1e-12);
}

}  // namespace
}  // namespace mgrid::core

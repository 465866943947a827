#include "cluster/ring.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace mgrid::cluster {
namespace {

std::vector<std::uint32_t> all_mns(std::uint32_t count) {
  std::vector<std::uint32_t> mns(count);
  for (std::uint32_t i = 0; i < count; ++i) mns[i] = i;
  return mns;
}

TEST(HashRing, EmptyRingThrowsAndReportsEmpty) {
  HashRing ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.node_count(), 0u);
  EXPECT_EQ(ring.version(), 0u);
  EXPECT_THROW(static_cast<void>(ring.owner(7)), std::logic_error);
}

TEST(HashRing, MembershipAndVersion) {
  HashRing ring;
  EXPECT_TRUE(ring.add_node("a"));
  EXPECT_FALSE(ring.add_node("a"));  // duplicate: no version bump
  EXPECT_TRUE(ring.add_node("b"));
  EXPECT_EQ(ring.version(), 2u);
  EXPECT_TRUE(ring.contains("a"));
  EXPECT_FALSE(ring.contains("c"));
  EXPECT_TRUE(ring.remove_node("a"));
  EXPECT_FALSE(ring.remove_node("a"));
  EXPECT_EQ(ring.version(), 3u);
  EXPECT_EQ(ring.nodes(), std::vector<std::string>{"b"});
}

TEST(HashRing, SingleNodeOwnsEverything) {
  HashRing ring;
  ring.add_node("only");
  for (std::uint32_t mn = 0; mn < 1000; ++mn) {
    EXPECT_EQ(ring.owner(mn), "only");
  }
}

TEST(HashRing, OwnershipIsIndependentOfInsertionOrder) {
  HashRing forward;
  forward.add_node("alpha");
  forward.add_node("beta");
  forward.add_node("gamma");
  HashRing backward;
  backward.add_node("gamma");
  backward.add_node("alpha");
  backward.add_node("beta");
  for (std::uint32_t mn = 0; mn < 10000; ++mn) {
    EXPECT_EQ(forward.owner(mn), backward.owner(mn)) << "mn " << mn;
  }
}

// The ISSUE's spread property: at 64 vnodes per node, every node's share of
// a large key population stays within ±10% of uniform.
TEST(HashRing, KeySpreadWithinTenPercentOfUniform) {
  for (const std::size_t node_count : {2u, 3u, 4u, 8u}) {
    HashRing ring(RingOptions{64});
    for (std::size_t n = 0; n < node_count; ++n) {
      ring.add_node("shard-" + std::to_string(n));
    }
    constexpr std::uint32_t kKeys = 200000;
    std::map<std::string, std::uint32_t> owned;
    for (std::uint32_t mn = 0; mn < kKeys; ++mn) ++owned[ring.owner(mn)];
    const double uniform = static_cast<double>(kKeys) /
                           static_cast<double>(node_count);
    ASSERT_EQ(owned.size(), node_count) << node_count << " nodes";
    for (const auto& [name, count] : owned) {
      EXPECT_GE(count, 0.9 * uniform)
          << name << " underloaded at " << node_count << " nodes";
      EXPECT_LE(count, 1.1 * uniform)
          << name << " overloaded at " << node_count << " nodes";
    }
  }
}

// The minimal-movement property: a join only moves keys *to* the new node,
// a leave only moves keys *from* the departed node — assignments between
// surviving nodes never change.
TEST(HashRing, JoinMovesOnlyKeysGainedByTheNewNode) {
  HashRing before(RingOptions{64});
  before.add_node("a");
  before.add_node("b");
  before.add_node("c");
  HashRing after = before;
  after.add_node("d");

  const std::vector<std::uint32_t> mns = all_mns(50000);
  std::uint32_t moved = 0;
  for (const std::uint32_t mn : mns) {
    if (before.owner(mn) != after.owner(mn)) {
      EXPECT_EQ(after.owner(mn), "d") << "mn " << mn
                                      << " moved between survivors";
      ++moved;
    }
  }
  // The new node should own roughly a quarter; definitely not nothing and
  // definitely not keys it did not gain.
  EXPECT_GT(moved, 0u);
  EXPECT_LT(moved, mns.size() / 2);
  EXPECT_EQ(moved_mns(before, after, mns).size(), moved);
}

TEST(HashRing, LeaveMovesOnlyKeysOfTheDepartedNode) {
  HashRing before(RingOptions{64});
  before.add_node("a");
  before.add_node("b");
  before.add_node("c");
  before.add_node("d");
  HashRing after = before;
  after.remove_node("d");

  for (std::uint32_t mn = 0; mn < 50000; ++mn) {
    if (before.owner(mn) == "d") {
      EXPECT_NE(after.owner(mn), "d");
    } else {
      EXPECT_EQ(before.owner(mn), after.owner(mn))
          << "mn " << mn << " moved although its owner survived";
    }
  }
}

TEST(HashRing, JoinThenLeaveRoundTripsExactly) {
  HashRing ring(RingOptions{64});
  ring.add_node("a");
  ring.add_node("b");
  const HashRing baseline = ring;
  ring.add_node("c");
  ring.remove_node("c");
  for (std::uint32_t mn = 0; mn < 20000; ++mn) {
    EXPECT_EQ(ring.owner(mn), baseline.owner(mn));
  }
  EXPECT_EQ(ring.version(), baseline.version() + 2);
}

/// The multi-probe ring as it was first written: every probe binary-searches
/// the sorted points with std::upper_bound. owner() must agree with it on
/// every key — the bucket index may change the cost of a lookup, never its
/// answer.
class ReferenceRing {
 public:
  ReferenceRing(std::vector<std::string> nodes, RingOptions options)
      : nodes_(std::move(nodes)), probes_(options.probes) {
    std::sort(nodes_.begin(), nodes_.end());
    for (std::uint32_t n = 0; n < nodes_.size(); ++n) {
      for (std::size_t v = 0; v < options.vnodes; ++v) {
        const std::uint64_t point = util::splitmix64(
            util::fnv1a64(nodes_[n] + "#" + std::to_string(v)));
        points_.emplace_back(point, n);
      }
    }
    std::sort(points_.begin(), points_.end());
  }

  [[nodiscard]] std::pair<std::uint64_t, std::uint32_t> successor(
      std::uint64_t probe) const {
    auto it = std::upper_bound(
        points_.begin(), points_.end(), probe,
        [](std::uint64_t k, const auto& point) { return k < point.first; });
    if (it == points_.end()) it = points_.begin();  // wrap past 2^64
    return *it;
  }

  [[nodiscard]] const std::string& owner(std::uint32_t mn) const {
    const std::uint64_t key = util::splitmix64(mn);
    std::uint64_t best_distance = 0;
    std::pair<std::uint64_t, std::uint32_t> best{};
    bool have_best = false;
    for (std::size_t p = 0; p < probes_; ++p) {
      const std::uint64_t probe =
          util::splitmix64(key + p * 0x9E3779B97F4A7C15ull);
      const auto point = successor(probe);
      const std::uint64_t distance = point.first - probe;
      if (!have_best || distance < best_distance ||
          (distance == best_distance && point < best)) {
        best_distance = distance;
        best = point;
        have_best = true;
      }
    }
    return nodes_[best.second];
  }

  [[nodiscard]] const std::vector<std::pair<std::uint64_t, std::uint32_t>>&
  points() const noexcept {
    return points_;
  }

 private:
  std::vector<std::string> nodes_;
  std::size_t probes_;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> points_;
};

std::vector<std::string> shard_names(std::size_t count) {
  std::vector<std::string> names;
  for (std::size_t n = 0; n < count; ++n) {
    names.push_back("shard-" + std::to_string(n));
  }
  return names;
}

HashRing make_ring(const std::vector<std::string>& names, RingOptions options) {
  HashRing ring(options);
  for (const std::string& name : names) ring.add_node(name);
  return ring;
}

/// Counts keys in [0, keys) whose owner differs from the reference's.
std::uint32_t owner_mismatches(const HashRing& ring,
                               const ReferenceRing& reference,
                               std::uint32_t keys) {
  std::uint32_t mismatches = 0;
  for (std::uint32_t mn = 0; mn < keys; ++mn) {
    if (ring.owner(mn) != reference.owner(mn)) ++mismatches;
  }
  return mismatches;
}

class RingMatchesReference
    : public testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(RingMatchesReference, OnAMillionKeys) {
  const auto [node_count, probes] = GetParam();
  const RingOptions options{64, probes};
  const std::vector<std::string> names = shard_names(node_count);
  const HashRing ring = make_ring(names, options);
  EXPECT_EQ(owner_mismatches(ring, ReferenceRing(names, options), 1000000),
            0u);
}

INSTANTIATE_TEST_SUITE_P(NodesAndProbes, RingMatchesReference,
                         testing::Combine(testing::Values(1u, 2u, 3u, 8u),
                                          testing::Values(1u, 21u)));

TEST(HashRing, MatchesReferenceAfterAddAndRemove) {
  const RingOptions options{64, 21};
  std::vector<std::string> names = shard_names(3);
  HashRing ring = make_ring(names, options);
  ring.add_node("shard-3");
  names.push_back("shard-3");
  EXPECT_EQ(owner_mismatches(ring, ReferenceRing(names, options), 200000),
            0u);
  ring.remove_node("shard-1");
  names.erase(names.begin() + 1);
  EXPECT_EQ(owner_mismatches(ring, ReferenceRing(names, options), 200000),
            0u);
}

TEST(HashRing, SuccessorMatchesReferenceAtCraftedPositions) {
  for (const std::size_t node_count : {1u, 2u, 3u, 8u}) {
    const RingOptions options{64, 21};
    const std::vector<std::string> names = shard_names(node_count);
    const HashRing ring = make_ring(names, options);
    const ReferenceRing reference(names, options);
    const auto& points = reference.points();
    std::vector<std::uint64_t> positions = {
        0, 1, std::numeric_limits<std::uint64_t>::max(),
        std::numeric_limits<std::uint64_t>::max() - 1,
        points.front().first / 2,  // bucket 0, before the first point
        points.back().first + 1,   // past the last point: wraps
    };
    for (const auto& [point, node] : points) {
      positions.push_back(point);  // exactly on a point: the next one wins
      positions.push_back(point - 1);
      positions.push_back(point + 1);
    }
    // Every bucket boundary at each plausible bucket width.
    for (unsigned bits = 1; bits <= 16; ++bits) {
      for (std::uint64_t b = 0; b < (std::uint64_t{1} << bits); ++b) {
        const std::uint64_t base = b << (64 - bits);
        positions.push_back(base);
        positions.push_back(base - 1);
      }
    }
    for (const std::uint64_t position : positions) {
      EXPECT_EQ(ring.successor(position), reference.successor(position))
          << node_count << " nodes, position " << position;
    }
  }
}

}  // namespace
}  // namespace mgrid::cluster

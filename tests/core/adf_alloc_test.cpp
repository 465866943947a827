// The ADF hot path allocates nothing once every MN has been seen, except
// to found a cluster.
//
// This binary replaces the global operator new with a counting one, so it
// stays out of test_core: the count covers only the code between the
// snapshots below, but a process-wide hook is best kept to a binary of its
// own.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/adf.h"
#include "geo/campus.h"
#include "scenario/workload.h"
#include "util/rng.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }

namespace mgrid::core {
namespace {

struct Sample {
  MnId mn;
  SimTime t;
  geo::Vec2 position;
};

/// A fixed-seed Table-1 stream (140 MNs, one sample per MN per second),
/// recorded up front so the mobility models' own allocations stay outside
/// the counted window.
std::vector<Sample> table1_stream(int seconds) {
  const geo::CampusMap campus = geo::CampusMap::default_campus();
  const util::RngRegistry rng(7);
  scenario::Workload workload(campus, scenario::WorkloadParams{}, rng);
  std::vector<Sample> samples;
  for (int t = 1; t <= seconds; ++t) {
    workload.step_all(1.0);
    for (const mobility::MobileNode& node : workload.nodes()) {
      samples.push_back({node.id(), static_cast<SimTime>(t), node.position()});
    }
  }
  return samples;
}

// A sample that founds a cluster may grow the cluster tables (amortised:
// a handful of doublings); every other sample must not allocate at all, up
// to one allocation per thousand samples.
TEST(AdfAllocation, HotPathMakesAtMostOneAllocationPerThousandSamples) {
  constexpr std::size_t kCounted = 10000;
  const std::vector<Sample> samples = table1_stream(80);
  const std::size_t warmup = 140;  // one sample of every MN
  ASSERT_GE(samples.size(), warmup + kCounted);

  AdfParams params;
  params.recluster_interval = 0.0;
  AdaptiveDistanceFilter adf(params);
  for (std::size_t i = 0; i < warmup; ++i) {
    adf.process(samples[i].mn, samples[i].t, samples[i].position);
  }
  std::size_t allocations = 0;          // in samples that made no cluster
  std::size_t cluster_allocations = 0;  // in samples that made one
  std::uint64_t created = 0;
  for (std::size_t i = warmup; i < warmup + kCounted; ++i) {
    const std::uint64_t clusters = adf.clusterer().clusters_created();
    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    adf.process(samples[i].mn, samples[i].t, samples[i].position);
    const std::size_t made =
        g_allocations.load(std::memory_order_relaxed) - before;
    if (adf.clusterer().clusters_created() != clusters) {
      cluster_allocations += made;
      ++created;
    } else {
      allocations += made;
    }
  }
  // Guard against a stream that exercises nothing.
  EXPECT_GT(adf.transmitted(), 0u);
  EXPECT_GT(adf.filtered(), 0u);
  EXPECT_GT(created, 0u);
  EXPECT_LE(allocations, kCounted / 1000)
      << allocations << " allocations over " << kCounted << " samples";
  // Two geometrically grown tables (cluster slots, live ids).
  EXPECT_LE(cluster_allocations, 2 * (std::bit_width(created) + 1))
      << cluster_allocations << " allocations founding " << created
      << " clusters";
}

}  // namespace
}  // namespace mgrid::core

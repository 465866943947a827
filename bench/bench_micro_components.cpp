// Micro-benchmarks (google-benchmark) of every hot component: the distance
// filter, classifier, clusterer, estimators, Dijkstra routing
// and a full federation cycle. These quantify the ADF's processing cost —
// the overhead budget a real deployment would pay per LU.
#include <benchmark/benchmark.h>

#include "core/adf.h"
#include "core/baselines.h"
#include "core/classifier.h"
#include "core/clustering.h"
#include "core/distance_filter.h"
#include "estimation/ar_estimator.h"
#include "estimation/brown_estimator.h"
#include "geo/campus.h"
#include "scenario/experiment.h"
#include "util/rng.h"

using namespace mgrid;

namespace {

void BM_DistanceFilterApply(benchmark::State& state) {
  core::DistanceFilter filter;
  util::RngStream rng(1);
  geo::Vec2 p{0, 0};
  for (auto _ : state) {
    p.x += rng.uniform(0.0, 2.0);
    benchmark::DoNotOptimize(filter.apply(MnId{1}, p, 1.5));
  }
}
BENCHMARK(BM_DistanceFilterApply);

void BM_ClassifierObserveClassify(benchmark::State& state) {
  core::MobilityClassifier classifier;
  util::RngStream rng(2);
  geo::Vec2 p{0, 0};
  double t = 0.0;
  for (auto _ : state) {
    t += 1.0;
    p += geo::from_polar(rng.uniform(-3.14, 3.14), rng.uniform(0.0, 2.0));
    classifier.observe(MnId{1}, t, p);
    benchmark::DoNotOptimize(classifier.classify(MnId{1}));
  }
}
BENCHMARK(BM_ClassifierObserveClassify);

void BM_ClustererAssign(benchmark::State& state) {
  const auto population = static_cast<unsigned>(state.range(0));
  core::SequentialClusterer clusterer;
  util::RngStream rng(3);
  unsigned next = 0;
  for (auto _ : state) {
    core::MotionFeatures f;
    f.mean_speed = rng.uniform(0.0, 10.0);
    f.heading = rng.uniform(-3.14, 3.14);
    f.samples = 8;
    benchmark::DoNotOptimize(
        clusterer.assign(MnId{next % population}, f));
    ++next;
  }
}
BENCHMARK(BM_ClustererAssign)->Arg(10)->Arg(140)->Arg(1000);

void BM_AdfProcess(benchmark::State& state) {
  const auto population = static_cast<unsigned>(state.range(0));
  core::AdaptiveDistanceFilter adf;
  util::RngStream rng(4);
  std::vector<geo::Vec2> positions(population);
  double t = 0.0;
  unsigned next = 0;
  for (auto _ : state) {
    const unsigned n = next % population;
    if (n == 0) t += 1.0;
    positions[n] += geo::from_polar(rng.uniform(-3.14, 3.14),
                                    rng.uniform(0.0, 2.0));
    benchmark::DoNotOptimize(adf.process(MnId{n}, t, positions[n]));
    ++next;
  }
}
BENCHMARK(BM_AdfProcess)->Arg(140)->Arg(1000);

void BM_BrownPolarObserveEstimate(benchmark::State& state) {
  estimation::BrownPolarEstimator estimator;
  util::RngStream rng(5);
  geo::Vec2 p{0, 0};
  double t = 0.0;
  for (auto _ : state) {
    t += 1.0;
    p += geo::Vec2{rng.uniform(0.0, 2.0), rng.uniform(-0.2, 0.2)};
    estimator.observe(t, p);
    benchmark::DoNotOptimize(estimator.estimate(t + 3.0));
  }
}
BENCHMARK(BM_BrownPolarObserveEstimate);

void BM_ArEstimate(benchmark::State& state) {
  estimation::ArEstimator estimator;
  util::RngStream rng(6);
  geo::Vec2 p{0, 0};
  double t = 0.0;
  for (int i = 0; i < 64; ++i) {
    t += 1.0;
    p.x += rng.uniform(0.5, 1.5);
    estimator.observe(t, p);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.estimate(t + 3.0));
  }
}
BENCHMARK(BM_ArEstimate);

void BM_CampusDijkstra(benchmark::State& state) {
  const geo::CampusMap campus = geo::CampusMap::default_campus();
  util::RngStream rng(8);
  const auto n = static_cast<geo::NodeIndex>(campus.graph().node_count());
  for (auto _ : state) {
    const auto from = static_cast<geo::NodeIndex>(rng.index(n));
    const auto to = static_cast<geo::NodeIndex>(rng.index(n));
    benchmark::DoNotOptimize(campus.graph().shortest_path(from, to));
  }
}
BENCHMARK(BM_CampusDijkstra);

void BM_FullExperimentSecond(benchmark::State& state) {
  // Cost of one simulated second of the full 140-node federation pipeline
  // (amortised over a 60 s run).
  for (auto _ : state) {
    scenario::ExperimentOptions options;
    options.duration = 60.0;
    options.filter = scenario::FilterKind::kAdf;
    benchmark::DoNotOptimize(scenario::run_experiment(options));
  }
  state.SetItemsProcessed(state.iterations() * 60);
}
BENCHMARK(BM_FullExperimentSecond)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

// Sweep-side observability isolation: per-job event logs must come out
// byte-identical for any worker count, and per-job trace recorders must keep
// federation spans out of the global ring.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/trace.h"
#include "sweep/engine.h"
#include "sweep/spec.h"

namespace mgrid::sweep {
namespace {

SweepSpec small_spec() {
  SweepSpec spec;
  spec.base.duration = 15.0;
  spec.base.estimator = "brown_polar";
  spec.axes.dth_factors = {0.75, 1.25};
  spec.replicates = 2;
  return spec;
}

TEST(SweepEventLog, PerJobLogsAreByteIdenticalAcrossWorkerCounts) {
  const SweepSpec spec = small_spec();

  EngineOptions serial;
  serial.jobs = 1;
  serial.eventlog = true;
  const SweepOutcome one = run_sweep(spec, serial);

  EngineOptions parallel;
  parallel.jobs = 8;
  parallel.eventlog = true;
  const SweepOutcome eight = run_sweep(spec, parallel);

  ASSERT_EQ(one.eventlogs.size(), one.jobs.size());
  ASSERT_EQ(one.eventlogs.size(), eight.eventlogs.size());
  for (std::size_t i = 0; i < one.eventlogs.size(); ++i) {
    EXPECT_FALSE(one.eventlogs[i].empty());
    EXPECT_EQ(one.eventlogs[i], eight.eventlogs[i]) << "job " << i;
  }
}

TEST(SweepEventLog, DisabledByDefault) {
  const SweepSpec spec = small_spec();
  const SweepOutcome outcome = run_sweep(spec, EngineOptions{});
  EXPECT_TRUE(outcome.eventlogs.empty());
}

TEST(SweepTraceIsolation, JobsDoNotSpillSpansIntoTheGlobalRing) {
  obs::TraceRecorder& global = obs::TraceRecorder::global();
  global.clear();
  global.set_enabled(true);
  const std::size_t before = global.size();

  SweepSpec spec = small_spec();
  spec.axes.dth_factors = {1.0};
  spec.replicates = 2;
  EngineOptions engine;
  engine.jobs = 2;
  (void)run_sweep(spec, engine);

  // The engine injects a per-job recorder, so even with the global recorder
  // enabled no federation span may land in its ring.
  const auto events = global.events();
  for (std::size_t i = before; i < events.size(); ++i) {
    EXPECT_NE(events[i].category, "federation");
  }
  global.set_enabled(false);
  global.clear();
}

}  // namespace
}  // namespace mgrid::sweep

#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <span>

#include "cluster/ring.h"
#include "geo/campus.h"
#include "util/rng.h"
#include "serve/snapshot.h"
#include "serve/wal.h"

namespace ledger {

namespace wire = serve::wire;

serve::DirectoryOptions serve_directory_options() {
  serve::DirectoryOptions options;
  options.shards = 8;
  options.history_limit = 8;
  options.cell_size = 50.0;
  return options;
}

std::unique_ptr<estimation::LocationEstimator> serve_estimator() {
  return estimation::make_estimator("brown_polar", 0.0, 1.0);
}

std::unique_ptr<serve::ShardedDirectory> make_serve_directory() {
  return std::make_unique<serve::ShardedDirectory>(serve_directory_options(),
                                                   serve_estimator());
}

std::vector<std::uint8_t> snapshot_bytes(
    const serve::ShardedDirectory& directory) {
  std::vector<std::uint8_t> bytes;
  if (!serve::encode_snapshot(directory, 0, 0.0, bytes)) bytes.clear();
  return bytes;
}

namespace {

std::vector<double> slice(const std::vector<double>& values, std::size_t begin,
                          std::size_t end) {
  return {values.begin() + static_cast<long>(begin),
          values.begin() + static_cast<long>(end)};
}

}  // namespace

bool report_end_to_end(const std::vector<SegmentFigures>& segments,
                       const DueSchedule& nearests, MetricSet& metrics,
                       std::string* why) {
  if (segments.empty()) {
    if (why != nullptr) *why = "run: no segment";
    return false;
  }
  const auto median_of = [&](const std::function<double(const SegmentFigures&)>&
                                 value) {
    std::vector<double> values;
    for (const SegmentFigures& segment : segments) values.push_back(value(segment));
    return median(values);
  };
  metrics.set("experiment_s", median_of([](const SegmentFigures& segment) {
                return segment.wall_s;
              }));
  metrics.set("lus_per_s", median_of([](const SegmentFigures& segment) {
                return static_cast<double>(segment.lus) / segment.wall_s;
              }));
  metrics.set("cpu_us_per_lu", median_of([](const SegmentFigures& segment) {
                return segment.cpu_s * 1e6 / static_cast<double>(segment.lus);
              }));

  struct Percentile {
    const char* name;
    bool ticks;  // else k-nearest reads
    double q;
    double scale;  // to the metric's unit
  };
  const Percentile percentiles[] = {
      {"tick_p50_ms", true, 0.50, 1.0},
      {"tick_p99_ms", true, 0.99, 1.0},
      {"nearest_p50_us", false, 0.50, 1e-3},
  };
  const auto samples_of = [&](const SegmentFigures& segment, bool ticks) {
    return ticks ? segment.tick_ms
                 : slice(nearests.latency_ns, segment.nearests_begin,
                         segment.nearests_end);
  };
  bool resolved = true;
  for (const Percentile& p : percentiles) {
    bool per_segment = true;
    std::vector<double> pooled;
    for (const SegmentFigures& segment : segments) {
      const std::vector<double> samples = samples_of(segment, p.ticks);
      per_segment = per_segment && percentile_resolved(samples.size(), p.q);
      pooled.insert(pooled.end(), samples.begin(), samples.end());
    }
    // A segment too short to resolve the percentile on its own: the figure
    // is taken over all of the run's samples instead.
    const double value =
        per_segment ? median_of([&](const SegmentFigures& segment) {
                        return percentile(samples_of(segment, p.ticks), p.q);
                      })
                    : percentile(pooled, p.q);
    metrics.set(p.name, value * p.scale);
    if (!percentile_resolved(pooled.size(), p.q)) {
      if (resolved && why != nullptr) *why = p.name;
      resolved = false;
    }
  }
  return resolved;
}

void report_read_layers(const DueSchedule& lookups,
                        const DueSchedule& nearests, MetricSet& metrics) {
  metrics.set("lookup_p99_us", percentile(lookups.latency_ns, 0.99) / 1e3);
  metrics.set("nearest_p99_us", percentile(nearests.latency_ns, 0.99) / 1e3);
  metrics.set("serve.directory.lookup_service_ns",
              median(lookups.service_ns));
  metrics.set("serve.directory.nearest_service_us",
              median(nearests.service_ns) / 1e3);
  std::vector<double> late;
  for (const DueSchedule* schedule : {&lookups, &nearests}) {
    for (std::size_t i = 0; i < schedule->latency_ns.size(); ++i) {
      late.push_back(schedule->latency_ns[i] - schedule->service_ns[i]);
    }
  }
  metrics.set("bench.reader.late_p99_us", percentile(late, 0.99) / 1e3);
}

void report_spans(const std::vector<obs::LuSpan>& spans, MetricSet& metrics) {
  static const char* const kStages[] = {"router_batch", "net", "queue",
                                        "wal", "apply", "visible",
                                        "follower_apply"};
  constexpr std::size_t kFollower =
      static_cast<std::size_t>(obs::LuStage::kFollowerApply);
  std::vector<std::vector<double>> stage_us(obs::kLuStageCount);
  constexpr std::size_t kNet = static_cast<std::size_t>(obs::LuStage::kNet);
  for (const obs::LuSpan& span : spans) {
    const bool follower = span.stage_seconds[kFollower] > 0.0;
    // A shard span that arrived without a router context never had the
    // router_batch and net stages.
    const bool routed = span.stage_seconds[kNet] > 0.0;
    for (std::size_t stage = 0; stage < obs::kLuStageCount; ++stage) {
      if ((stage == kFollower) != follower || (stage <= kNet && !routed)) {
        continue;
      }
      stage_us[stage].push_back(span.stage_seconds[stage] * 1e6);
    }
  }
  for (std::size_t stage = 0; stage < obs::kLuStageCount; ++stage) {
    const std::string prefix = std::string("trace.") + kStages[stage];
    metrics.set(prefix + ".p50_us", percentile(stage_us[stage], 0.50));
    metrics.set(prefix + ".p99_us", percentile(stage_us[stage], 0.99));
  }
}

void PairedOverhead::add(double untraced_cpu_per_lu,
                         double traced_cpu_per_lu) {
  if (untraced_cpu_per_lu > 0.0) {
    ratios_.push_back(traced_cpu_per_lu / untraced_cpu_per_lu - 1.0);
  }
}

void PairedOverhead::report(MetricSet& metrics) const {
  metrics.set("trace.overhead_frac", median(ratios_));
  if (ratios_.size() >= 2) {
    const Quartiles q = quartiles(ratios_);
    metrics.set("trace.overhead_frac_iqr", q.q3 - q.q1);
  }
}

wire::LuMsg to_lu(const Sample& sample, std::uint32_t seq) {
  wire::LuMsg lu;
  lu.mn = sample.mn;
  lu.seq = seq;
  lu.t = sample.t;
  lu.x = sample.x;
  lu.y = sample.y;
  lu.vx = sample.vx;
  lu.vy = sample.vy;
  return lu;
}

std::vector<Sample> table1_samples(std::uint64_t seed,
                                   const scenario::WorkloadParams& params,
                                   int first, int last) {
  const geo::CampusMap campus = geo::CampusMap::default_campus();
  scenario::Workload workload(campus, params, util::RngRegistry(seed));
  std::vector<Sample> samples;
  samples.reserve(workload.size() *
                  static_cast<std::size_t>(std::max(last - first + 1, 0)));
  for (int t = 0; t <= last; ++t) {
    if (t > 0) {
      for (int step = 0; step < 10; ++step) workload.step_all(0.1);
    }
    if (t < first) continue;
    for (const mobility::MobileNode& node : workload.nodes()) {
      const geo::Vec2 position = node.position();
      const geo::Vec2 velocity = node.velocity();
      samples.push_back({static_cast<std::uint32_t>(node.id().value()),
                         static_cast<double>(t), position.x, position.y,
                         velocity.x, velocity.y});
    }
  }
  return samples;
}

AdfReplay replay_adf(const std::vector<Sample>& samples,
                     const core::AdfParams& params, int reps) {
  AdfReplay replay;
  std::vector<double> ns;
  for (int rep = 0; rep < reps; ++rep) {
    core::AdaptiveDistanceFilter adf(params);
    std::uint64_t transmitted = 0;
    const std::int64_t start = now_ns();
    for (const Sample& sample : samples) {
      if (adf.process(MnId(sample.mn), sample.t, {sample.x, sample.y})
              .transmit) {
        ++transmitted;
      }
    }
    const std::int64_t elapsed = now_ns() - start;
    ns.push_back(static_cast<double>(elapsed) /
                 static_cast<double>(std::max<std::size_t>(samples.size(), 1)));
    replay.samples = samples.size();
    replay.transmitted = transmitted;
    replay.rebuilds = adf.rebuilds();
    replay.retired_slots = adf.clusterer().clusters_created() -
                           adf.clusterer().cluster_count();
  }
  replay.ns_per_sample = median(ns);
  return replay;
}

namespace {

/// Median over three timed passes of `pass`, in ns per item.
template <typename Pass>
double timed_ns_per_item(std::size_t items, Pass&& pass) {
  std::vector<double> ns;
  for (int rep = 0; rep < 3; ++rep) {
    const std::int64_t start = now_ns();
    pass();
    ns.push_back(static_cast<double>(now_ns() - start) /
                 static_cast<double>(std::max<std::size_t>(items, 1)));
  }
  return median(ns);
}

}  // namespace

LayerCosts isolated_layer_costs(const std::vector<wire::LuMsg>& all_lus,
                                const std::string& wal_path,
                                std::size_t cap) {
  const std::vector<wire::LuMsg> lus(
      all_lus.begin(),
      all_lus.begin() + static_cast<long>(std::min(cap, all_lus.size())));
  const std::size_t n = lus.size();
  LayerCosts costs;
  volatile std::uint64_t sink = 0;

  // Codec: encode every LU into one buffer, then decode the frames back.
  std::vector<std::uint8_t> frames;
  frames.reserve(n * (wire::kHeaderBytes + 64));
  costs.encode_ns = timed_ns_per_item(n, [&] {
    frames.clear();
    for (const wire::LuMsg& lu : lus) wire::encode(frames, lu);
  });
  costs.decode_ns = timed_ns_per_item(n, [&] {
    std::span<const std::uint8_t> rest(frames);
    std::uint64_t decoded = 0;
    while (!rest.empty()) {
      const wire::Decoded frame = wire::decode_frame(rest);
      if (!frame.ok()) break;
      decoded += std::get<wire::LuMsg>(frame.msg).mn;
      rest = rest.subspan(frame.consumed);
    }
    sink = sink + decoded;
  });

  // Ring: the two-shard ring the cluster workload routes on.
  cluster::HashRing ring;
  ring.add_node("shard-0");
  ring.add_node("shard-1");
  costs.ring_owner_ns = timed_ns_per_item(n, [&] {
    std::uint64_t sizes = 0;
    for (const wire::LuMsg& lu : lus) sizes += ring.owner(lu.mn).size();
    sink = sink + sizes;
  });

  // WAL append without fsync: the codec, CRC and write(2) per record.
  costs.wal_append_ns = timed_ns_per_item(n, [&] {
    std::remove(wal_path.c_str());
    serve::WalWriter wal(wal_path, serve::FsyncPolicy::kNever);
    for (const wire::LuMsg& lu : lus) wal.append(lu);
  });
  std::remove(wal_path.c_str());

  // Directory apply: per tick, ingest-sized batches of 256; the estimate
  // advance between ticks runs untimed.
  {
    std::vector<double> ns;
    for (int rep = 0; rep < 3; ++rep) {
      const std::unique_ptr<serve::ShardedDirectory> directory =
          make_serve_directory();
      std::vector<serve::ShardedDirectory::LuApply> batch;
      std::int64_t busy = 0;
      std::size_t i = 0;
      while (i < n) {
        const double t = lus[i].t;
        while (i < n && lus[i].t == t) {
          batch.clear();
          for (; i < n && lus[i].t == t && batch.size() < 256; ++i) {
            batch.push_back({lus[i].mn, lus[i].t, {lus[i].x, lus[i].y},
                             {lus[i].vx, lus[i].vy}});
          }
          const std::int64_t start = now_ns();
          directory->apply_batch(batch);
          busy += now_ns() - start;
        }
        directory->advance_estimates(t);
      }
      ns.push_back(static_cast<double>(busy) /
                   static_cast<double>(std::max<std::size_t>(n, 1)));
    }
    costs.apply_ns = median(ns);
  }

  // Estimator: one brown_polar per MN, observe every LU, then forecast one
  // period past each.
  std::uint32_t max_mn = 0;
  for (const wire::LuMsg& lu : lus) max_mn = std::max(max_mn, lu.mn);
  const std::unique_ptr<estimation::LocationEstimator> prototype =
      serve_estimator();
  std::vector<std::unique_ptr<estimation::LocationEstimator>> estimators(
      static_cast<std::size_t>(max_mn) + 1);
  const auto fresh = [&] {
    for (auto& estimator : estimators) estimator = prototype->clone();
  };
  std::vector<double> observe_ns;
  for (int rep = 0; rep < 3; ++rep) {
    fresh();
    const std::int64_t start = now_ns();
    for (const wire::LuMsg& lu : lus) {
      estimators[lu.mn]->observe(lu.t, {lu.x, lu.y},
                                 geo::Vec2{lu.vx, lu.vy});
    }
    observe_ns.push_back(static_cast<double>(now_ns() - start) /
                         static_cast<double>(std::max<std::size_t>(n, 1)));
  }
  costs.observe_ns = median(observe_ns);
  costs.forecast_ns = timed_ns_per_item(n, [&] {
    double sum = 0.0;
    for (const wire::LuMsg& lu : lus) {
      sum += estimators[lu.mn]->estimate(lu.t + 1.0).x;
    }
    sink = sink + static_cast<std::uint64_t>(sum != 0.0);
  });
  return costs;
}

void report_layers(const LayerCosts& costs, const AdfReplay& adf,
                   double wall_ns_per_lu, double samples_per_lu,
                   MetricSet& metrics) {
  const auto share = [&](double ns_per_op, double ops_per_lu) {
    return wall_ns_per_lu > 0.0 ? ns_per_op * ops_per_lu / wall_ns_per_lu
                                : 0.0;
  };
  metrics.set("core.adf.ns_per_sample", adf.ns_per_sample);
  metrics.set("core.adf.share", share(adf.ns_per_sample, samples_per_lu));
  const std::uint64_t suppressed = adf.samples - adf.transmitted;
  metrics.set("core.adf.suppressed_ratio",
              adf.samples > 0 ? static_cast<double>(suppressed) /
                                    static_cast<double>(adf.samples)
                              : 0.0);
  const double adf_ns = adf.ns_per_sample * static_cast<double>(adf.samples);
  metrics.set("core.adf.payback_ratio",
              adf_ns > 0.0 ? static_cast<double>(suppressed) *
                                 costs.server_ns_per_lu() / adf_ns
                           : 0.0);
  metrics.set("core.adf.rebuilds", static_cast<double>(adf.rebuilds));
  metrics.set("core.clusterer.retired_slots",
              static_cast<double>(adf.retired_slots));
  metrics.set("estimation.brown_polar.observe_ns", costs.observe_ns);
  metrics.set("estimation.brown_polar.observe.share",
              share(costs.observe_ns, 1.0));
  metrics.set("estimation.brown_polar.forecast_ns", costs.forecast_ns);
  metrics.set("estimation.brown_polar.forecast.share",
              share(costs.forecast_ns, 1.0));
  metrics.set("serve.wire.encode_ns_per_lu", costs.encode_ns);
  metrics.set("serve.wire.encode.share", share(costs.encode_ns, 1.0));
  metrics.set("serve.wire.decode_ns_per_lu", costs.decode_ns);
  metrics.set("serve.wire.decode.share", share(costs.decode_ns, 1.0));
  metrics.set("cluster.ring.owner_ns", costs.ring_owner_ns);
  metrics.set("cluster.ring.owner.share", share(costs.ring_owner_ns, 1.0));
  metrics.set("serve.wal.append_ns_per_lu", costs.wal_append_ns);
  metrics.set("serve.wal.append.share", share(costs.wal_append_ns, 1.0));
  metrics.set("serve.directory.apply_ns_per_lu", costs.apply_ns);
  metrics.set("serve.directory.apply.share", share(costs.apply_ns, 1.0));
}

}  // namespace ledger

// cluster_adf_e2e: the north-star path, from each MN's filter decision to a
// replicated belief.
//
// A Table-1-mix population scaled to 1960 MNs. One generator thread passes
// each sample through AdaptiveDistanceFilter::process and hands each
// transmitted LU to a Router, which drives two in-process loopback LuServer
// shards, each with a WAL. Shard-0 has a ReplicationHub feeding one
// Follower, polled by a watcher thread: three connections in all. The loop
// is closed: each tick is issued after the previous barrier is acked, as
// mgrid_router pace_ms=0 does. An open-loop reader queries the shard
// directories in process beside the writes. Each segment brings up a fresh
// cluster over the same generated samples and checks, outside timing, that
// the shard union equals one directory fed the same transmitted stream and
// that the follower equals shard-0.
#include <algorithm>
#include <filesystem>

#include "layers.h"
#include "mobilegrid/mobilegrid.h"

namespace ledger {

namespace {

namespace wire = serve::wire;

constexpr int kTicksPerSegment = 200;
constexpr std::size_t kVariants = 4;
constexpr double kLookupRate = 20'000.0;
constexpr double kNearestRate = 2'000.0;
constexpr std::size_t kShards = 2;

/// Table 1 scaled 14x: 5 roads x 140 + 6 buildings x 210 = 1960 MNs.
scenario::WorkloadParams scaled_table1() {
  scenario::WorkloadParams params;
  params.road_humans_per_road = 70;
  params.road_vehicles_per_road = 70;
  params.building_ss_per_building = 70;
  params.building_rms_per_building = 70;
  params.building_lms_per_building = 70;
  return params;
}

std::string shard_name(std::size_t i) { return "shard-" + std::to_string(i); }

/// One shard node: WAL, directory, ingest and the LU listener; shard-0 also
/// carries the replication hub.
struct ShardNode {
  std::unique_ptr<serve::WalWriter> wal;
  std::unique_ptr<serve::ShardedDirectory> directory;
  std::unique_ptr<cluster::ReplicationHub> hub;
  std::unique_ptr<serve::IngestPipeline> pipeline;
  std::unique_ptr<cluster::LuServer> server;

  ShardNode(const std::string& wal_path, bool replicated,
            obs::SpanTracer& tracer) {
    wal = std::make_unique<serve::WalWriter>(wal_path,
                                             serve::FsyncPolicy::kEveryTick);
    directory = make_serve_directory();
    serve::IngestOptions ingest;
    ingest.sources = 8;
    ingest.workers = 2;
    ingest.batch_size = 256;
    ingest.wal = wal.get();
    ingest.spans = &tracer;
    if (replicated) {
      hub = std::make_unique<cluster::ReplicationHub>(*directory);
      cluster::ReplicationHub* target = hub.get();
      ingest.lu_tap = [target](const wire::LuMsg& lu) { target->on_lu(lu); };
      ingest.traced_lu_tap = [target](const wire::TracedLuMsg& lu) {
        target->on_lu(lu);
      };
    }
    pipeline = std::make_unique<serve::IngestPipeline>(*directory, ingest);
    cluster::LuServerHooks hooks;
    hooks.directory = directory.get();
    hooks.pipeline = pipeline.get();
    hooks.wal = wal.get();
    hooks.replication = hub.get();
    server = std::make_unique<cluster::LuServer>(cluster::LuServerOptions{},
                                                 hooks);
    server->start();
  }

  /// mgrid_serve's shard shutdown order: deliver the replication tail, stop
  /// the listener, the hub, then the pipeline.
  void stop() {
    if (hub) hub->drain();
    server->stop();
    if (hub) hub->stop();
    pipeline->stop();
  }
};

/// What one segment measured beyond its end-to-end figures.
struct Segment : SegmentFigures {
  std::uint64_t ctx_switches = 0;
  std::uint64_t threads = 0;
  std::uint64_t samples = 0;  ///< filter decisions
  // In-path figures (traced segments only).
  double submit_ns = 0.0;
  std::vector<double> router_tick_ms;
  cluster::RouterStats router;
  std::uint64_t lus_rejected = 0;
  std::uint64_t bad_frames = 0;
  std::uint64_t applied = 0;
  std::uint64_t batches = 0;
  std::size_t queue_depth_max = 0;
  cluster::ReplicationHub::Stats replication;
  std::uint64_t lag_records_max = 0;
  std::vector<double> follower_lag_ms;
  std::uint64_t snapshot_bytes = 0;
  std::vector<obs::LuSpan> spans;
  std::uint64_t wal_bytes = 0;
  std::uint64_t wal_records = 0;
  std::uint64_t wal_file_bytes = 0;
  std::uint64_t union_digest = 0;
};

/// Polls the follower and the hub: follower lag per tick (from the tick's
/// ack at the router to the follower applying it) and the hub's backlog.
class Watcher {
 public:
  Watcher(const cluster::Follower& follower, const cluster::ReplicationHub& hub,
          const std::vector<std::atomic<std::int64_t>>& ack_ns)
      : follower_(follower), hub_(hub), ack_ns_(ack_ns) {
    thread_ = std::thread([this] { run(); });
  }
  ~Watcher() { stop(); }
  Watcher(const Watcher&) = delete;
  Watcher& operator=(const Watcher&) = delete;

  void stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

  std::vector<double> lag_ms;  ///< valid after stop()
  std::uint64_t lag_records_max = 0;

 private:
  void run() {
    std::uint64_t seen = follower_.stats().last_tick;
    while (!stop_.load(std::memory_order_acquire)) {
      const std::uint64_t applied = follower_.stats().last_tick;
      const std::int64_t now = now_ns();
      for (; seen < applied && seen + 1 < ack_ns_.size(); ++seen) {
        const std::int64_t ack = ack_ns_[seen + 1].load(std::memory_order_acquire);
        lag_ms.push_back(ack > 0 ? std::max<double>(0.0, (now - ack) / 1e6)
                                 : 0.0);
      }
      lag_records_max =
          std::max(lag_records_max, hub_.stats().subscriber_lag_records);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  const cluster::Follower& follower_;
  const cluster::ReplicationHub& hub_;
  const std::vector<std::atomic<std::int64_t>>& ack_ns_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

class ClusterRun {
 public:
  explicit ClusterRun(const RunConfig& config)
      : config_(config),
        dir_(config.work_dir + "/cluster_adf_e2e"),
        ack_ns_(kTicksPerSegment + 1),
        lookups_(kLookupRate, read_capacity(kLookupRate)),
        nearests_(kNearestRate, read_capacity(kNearestRate)) {
    ring_.add_node(shard_name(0));
    ring_.add_node(shard_name(1));
  }

  /// Brings a fresh cluster up and drives `samples` (one input variant)
  /// through it.
  Segment run_segment(const std::vector<Sample>& samples, bool traced,
                      Outcome& outcome, double& bring_up_s, PeakRss& rss) {
    rss.begin_phase();
    const std::int64_t bring_up_start = now_ns();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    obs::SpanTracerOptions span_options;
    span_options.sample_period = 64;
    span_options.ring_capacity = 1 << 16;
    span_options.emit_trace_events = false;
    obs::SpanTracer tracer(span_options);
    tracer.set_enabled(traced);
    std::vector<std::unique_ptr<ShardNode>> shards;
    for (std::size_t i = 0; i < kShards; ++i) {
      shards.push_back(std::make_unique<ShardNode>(
          dir_ + "/" + shard_name(i) + ".wal", i == 0, tracer));
    }
    const std::unique_ptr<serve::ShardedDirectory> follower_directory =
        make_serve_directory();
    cluster::FollowerOptions follower_options;
    follower_options.port = shards[0]->server->port();
    follower_options.spans = &tracer;
    cluster::Follower follower(*follower_directory, follower_options);
    std::string error;
    if (!follower.connect(&error)) {
      throw std::runtime_error("follower cannot subscribe: " + error);
    }
    std::thread follower_thread([&follower] { follower.run(); });
    cluster::RouterOptions router_options;
    router_options.batch_size = 64;
    router_options.health_period_seconds = 0.0;
    router_options.spans = &tracer;
    std::vector<cluster::RouterShardConfig> configs;
    for (std::size_t i = 0; i < kShards; ++i) {
      cluster::RouterShardConfig shard_config;
      shard_config.name = shard_name(i);
      shard_config.lu_port = shards[i]->server->port();
      configs.push_back(shard_config);
    }
    cluster::Router router(router_options, configs);
    if (!router.start(&error)) {
      follower.stop();
      follower_thread.join();
      throw std::runtime_error("router cannot connect: " + error);
    }
    // Tick 0 bootstraps the follower from shard-0's (empty) snapshot.
    const bool bootstrapped =
        router.tick(0.0, 0) &&
        wait_for([&] { return follower.stats().snapshot_loaded; });
    outcome.check(bootstrapped, "cluster: follower did not bootstrap");
    for (auto& ack : ack_ns_) ack.store(0, std::memory_order_relaxed);
    bring_up_s = static_cast<double>(now_ns() - bring_up_start) / 1e9;

    Segment segment;
    Watcher watcher(follower, *shards[0]->hub, ack_ns_);
    std::unique_ptr<OpenLoopReader> reader;
    core::AdaptiveDistanceFilter adf{core::AdfParams{}};
    const double cpu_start = cpu_seconds();
    const std::uint64_t ctx_start = context_switches();
    const std::int64_t start = now_ns();
    std::size_t next = 0;
    std::int64_t submit_ns = 0;
    for (int k = 1; k <= kTicksPerSegment; ++k) {
      const double t = static_cast<double>(k);
      const std::int64_t tick_start = now_ns();
      for (; next < samples.size() && samples[next].t == t; ++next) {
        const Sample& sample = samples[next];
        ++segment.samples;
        if (!adf.process(MnId(sample.mn), sample.t, {sample.x, sample.y})
                 .transmit) {
          continue;
        }
        ++segment.lus;
        const wire::LuMsg lu = to_lu(sample, static_cast<std::uint32_t>(k));
        if (traced) {
          const std::int64_t submit_start = now_ns();
          router.submit(lu);
          submit_ns += now_ns() - submit_start;
        } else {
          router.submit(lu);
        }
      }
      if (traced) {
        for (const auto& shard : shards) {
          for (const std::size_t depth : shard->pipeline->queue_depths()) {
            segment.queue_depth_max = std::max(segment.queue_depth_max, depth);
          }
        }
        const std::int64_t tick_call = now_ns();
        router.tick(t, static_cast<std::uint64_t>(k));
        segment.router_tick_ms.push_back((now_ns() - tick_call) / 1e6);
      } else {
        router.tick(t, static_cast<std::uint64_t>(k));
      }
      const std::int64_t acked = now_ns();
      ack_ns_[static_cast<std::size_t>(k)].store(acked,
                                                 std::memory_order_release);
      segment.tick_ms.push_back((acked - tick_start) / 1e6);
      if (k == 1) {
        // Every MN has reported by the first barrier: reads start here.
        segment.nearests_begin = nearests_.recorded();
        reader = std::make_unique<OpenLoopReader>(
            read_ops(shards, static_cast<std::uint32_t>(samples.back().mn + 1)),
            lookups_, nearests_);
      }
      if (k == kTicksPerSegment / 2) segment.threads = thread_count();
    }
    segment.wall_s = static_cast<double>(now_ns() - start) / 1e9;
    segment.cpu_s = cpu_seconds() - cpu_start - reader->cpu_seconds();
    segment.ctx_switches = context_switches() - ctx_start;
    reader->stop();
    outcome.failed += reader->missing();
    segment.nearests_end = nearests_.recorded();
    segment.submit_ns = static_cast<double>(submit_ns);

    // Let the follower catch up with the last tick, then stop watching.
    shards[0]->hub->drain();
    outcome.check(wait_for([&] {
                    return follower.stats().last_tick ==
                           static_cast<std::uint64_t>(kTicksPerSegment);
                  }),
                  "cluster: follower did not reach the last tick");
    watcher.stop();
    rss.end_phase();
    segment.follower_lag_ms = std::move(watcher.lag_ms);
    segment.lag_records_max = watcher.lag_records_max;

    segment.router = router.stats();
    segment.replication = shards[0]->hub->stats();
    segment.snapshot_bytes = follower.stats().snapshot_bytes;
    if (traced) segment.spans = tracer.snapshot().recent;
    router.stop();
    follower.stop();
    follower_thread.join();
    for (const auto& shard : shards) {
      shard->stop();
      const cluster::LuServerStats server = shard->server->stats();
      segment.lus_rejected += server.lus_rejected;
      segment.bad_frames += server.bad_frames;
      const serve::IngestStats ingest = shard->pipeline->stats();
      segment.applied += ingest.applied;
      segment.batches += ingest.batches;
      outcome.failed +=
          ingest.rejected_full + ingest.rejected_stale + ingest.shed_low_info;
      segment.wal_bytes += shard->wal->bytes_appended();
      segment.wal_records += shard->wal->records_appended();
      outcome.check(!shard->wal->failed(), "cluster: WAL write failed");
    }
    outcome.failed += segment.router.lus_dropped +
                      segment.router.tick_failures +
                      segment.replication.dropped_slow + segment.lus_rejected;
    outcome.check(segment.applied == segment.lus,
                  "cluster: not every transmitted LU was applied");
    check_state(shards, *follower_directory, segment, outcome);
    shards.clear();
    for (std::size_t i = 0; i < kShards; ++i) {
      segment.wal_file_bytes +=
          std::filesystem::file_size(dir_ + "/" + shard_name(i) + ".wal");
    }
    std::filesystem::remove_all(dir_);
    return segment;
  }

  [[nodiscard]] const DueSchedule& lookups() const { return lookups_; }
  [[nodiscard]] const DueSchedule& nearests() const { return nearests_; }
  [[nodiscard]] std::uint64_t reads() const {
    return lookups_.latency_ns.size() + lookups_.overflow() +
           nearests_.latency_ns.size() + nearests_.overflow();
  }

 private:
  template <typename Predicate>
  static bool wait_for(Predicate&& done) {
    const std::int64_t deadline = now_ns() + 10'000'000'000;
    while (!done()) {
      if (now_ns() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return true;
  }

  OpenLoopReader::Ops read_ops(
      const std::vector<std::unique_ptr<ShardNode>>& shards,
      std::uint32_t nodes) {
    std::vector<const serve::ShardedDirectory*> directories;
    for (const auto& shard : shards) directories.push_back(shard->directory.get());
    const std::uint64_t seed = config_.seed;
    OpenLoopReader::Ops ops;
    // A lookup goes to the MN's owner shard, as the router routes it.
    ops.lookup = [this, directories, seed, nodes,
                  first = shard_name(0)](std::uint64_t i) {
      const std::uint32_t mn = read_mn(seed, i, nodes);
      const std::size_t owner = ring_.owner(mn) == first ? 0 : 1;
      return directories[owner]->lookup(mn).has_value();
    };
    // k-nearest fans out to every shard and merges by (distance, mn).
    ops.nearest = [directories, seed](std::uint64_t i) {
      const auto [x, y] = read_center(seed, i, 800, 600);
      const geo::Vec2 center{x, y};
      std::vector<serve::Neighbor> merged;
      for (const serve::ShardedDirectory* directory : directories) {
        const std::vector<serve::Neighbor> hits = directory->k_nearest(center, 8);
        merged.insert(merged.end(), hits.begin(), hits.end());
      }
      std::sort(merged.begin(), merged.end(),
                [](const serve::Neighbor& a, const serve::Neighbor& b) {
                  return a.distance != b.distance ? a.distance < b.distance
                                                  : a.mn < b.mn;
                });
      return merged.size() >= 8;
    };
    return ops;
  }

  /// The follower equals shard-0, and the shard union's snapshot digest is
  /// recorded for the comparison with a single directory.
  void check_state(const std::vector<std::unique_ptr<ShardNode>>& shards,
                   const serve::ShardedDirectory& follower, Segment& segment,
                   Outcome& outcome) {
    const std::vector<std::uint8_t> primary =
        snapshot_bytes(*shards[0]->directory);
    outcome.check(!primary.empty() && primary == snapshot_bytes(follower),
                  "cluster: follower differs from shard-0");
    const std::unique_ptr<serve::ShardedDirectory> merged =
        make_serve_directory();
    for (const auto& shard : shards) {
      const std::vector<std::uint8_t> bytes = snapshot_bytes(*shard->directory);
      serve::SnapshotData data;
      const bool decoded = serve::decode_snapshot(bytes.data(), bytes.size(), data);
      outcome.check(decoded && serve::apply_snapshot(*merged, data) ==
                                   data.tracks.size(),
                    "cluster: a shard snapshot does not restore");
    }
    const std::vector<std::uint8_t> bytes = snapshot_bytes(*merged);
    Digest digest;
    digest.add(bytes.data(), bytes.size());
    segment.union_digest = digest.value();
  }

  const RunConfig& config_;
  std::string dir_;
  cluster::HashRing ring_;
  std::vector<std::atomic<std::int64_t>> ack_ns_;
  DueSchedule lookups_;
  DueSchedule nearests_;
};

/// The LUs the filter transmits for `samples`, and the digest of one
/// directory fed them tick by tick — what the shard union must equal.
std::uint64_t single_directory_digest(const std::vector<Sample>& samples,
                                      std::vector<wire::LuMsg>& transmitted) {
  core::AdaptiveDistanceFilter adf{core::AdfParams{}};
  const std::unique_ptr<serve::ShardedDirectory> directory =
      make_serve_directory();
  directory->advance_estimates(0.0);
  for (std::size_t i = 0; i < samples.size();) {
    const double t = samples[i].t;
    for (; i < samples.size() && samples[i].t == t; ++i) {
      const Sample& sample = samples[i];
      if (!adf.process(MnId(sample.mn), sample.t, {sample.x, sample.y})
               .transmit) {
        continue;
      }
      transmitted.push_back(to_lu(sample, static_cast<std::uint32_t>(t)));
      directory->update(sample.mn, sample.t, {sample.x, sample.y},
                        {sample.vx, sample.vy});
    }
    directory->advance_estimates(t);
  }
  const std::vector<std::uint8_t> bytes = snapshot_bytes(*directory);
  Digest digest;
  digest.add(bytes.data(), bytes.size());
  return digest.value();
}

}  // namespace

RunReport run_cluster_adf_e2e(const RunConfig& config) {
  RunReport report;
  Outcome& outcome = report.outcome;
  MetricSet& metrics = report.metrics;

  // Input generation: one sampled population per variant.
  std::vector<double> generate_s;
  std::vector<std::vector<Sample>> inputs;
  Digest input;
  for (std::size_t v = 0; v < kVariants; ++v) {
    const std::int64_t start = now_ns();
    inputs.push_back(table1_samples(variant_seed(config.seed, v),
                                    scaled_table1(), 1, kTicksPerSegment));
    generate_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
    input.add(inputs.back().data(), inputs.back().size() * sizeof(Sample));
  }
  report.info.emplace_back("input_digest", input.hex());
  report.info.emplace_back("input_samples",
                           std::to_string(kVariants * inputs[0].size()));

  ClusterRun run(config);
  PeakRss rss;
  std::vector<Segment> segments;
  std::vector<double> bring_up_s;
  double timed_s = 0.0;
  std::size_t ticks = 0;
  const std::int64_t run_start = now_ns();
  // Segments go on until the run has measured its seconds, run every
  // variant twice (a traced run: every variant as one traced/untraced pair)
  // and has 1000 ticks, within a hard limit on the run's wall time.
  const std::size_t min_segments = 2 * kVariants;
  while (outcome.correct &&
         (timed_s < config.seconds || ticks < 1000 ||
          segments.size() < min_segments ||
          (config.trace && segments.size() % 2 == 1)) &&
         static_cast<double>(now_ns() - run_start) / 1e9 < kRunLimitS) {
    const std::size_t i = segments.size();
    const std::size_t variant = variant_of(i, kVariants, config.trace);
    double bring_up = 0.0;
    segments.push_back(run.run_segment(inputs[variant],
                                       traced_segment(i, config.trace),
                                       outcome, bring_up, rss));
    segments.back().variant = variant;
    bring_up_s.push_back(bring_up);
    timed_s += segments.back().wall_s;
    ticks += segments.back().tick_ms.size();
  }

  // Outside timing: each segment's shard union equals one directory fed the
  // same transmitted stream.
  std::vector<std::vector<wire::LuMsg>> transmitted(kVariants);
  std::vector<std::uint64_t> reference(kVariants);
  for (std::size_t v = 0; v < kVariants; ++v) {
    reference[v] = single_directory_digest(inputs[v], transmitted[v]);
  }
  for (const Segment& segment : segments) {
    outcome.check(segment.union_digest == reference[segment.variant],
                  "cluster: shard union differs from a single directory");
  }

  std::uint64_t samples_total = 0;
  for (const Segment& segment : segments) samples_total += segment.samples;
  outcome.attempted = samples_total + run.reads();
  report.info.emplace_back("segments", std::to_string(segments.size()));
  report.info.emplace_back("tick_samples", std::to_string(ticks));
  report.info.emplace_back("lookup_samples",
                           std::to_string(run.lookups().latency_ns.size()));
  report.info.emplace_back("nearest_samples",
                           std::to_string(run.nearests().latency_ns.size()));

  metrics.set("setup_s", median(generate_s) + median(bring_up_s));
  metrics.set("peak_rss_mb", rss.growth_mb());
  std::string why;
  const std::vector<SegmentFigures> figures(segments.begin(), segments.end());
  const bool resolved = report_end_to_end(figures, run.nearests(), metrics, &why);
  outcome.check(resolved, "cluster: too few samples beyond the " + why);
  if (!config.trace) return report;

  // --- traced pass: per-layer metrics ---------------------------------------
  report_read_layers(run.lookups(), run.nearests(), metrics);
  PairedOverhead overhead;
  std::vector<double> router_tick_ms, lag_ms;
  std::vector<obs::LuSpan> spans;
  double traced_wall = 0.0, submit_ns = 0.0;
  std::uint64_t traced_lus = 0, forwarded = 0, batches_sent = 0,
                lus_rejected = 0, bad_frames = 0, applied = 0, batches = 0,
                streamed_bytes = 0, streamed_lus = 0, dropped_slow = 0,
                lag_records_max = 0, snapshot_bytes = 0, wal_bytes = 0,
                wal_records = 0, untraced_ctx = 0, untraced_lus = 0,
                threads = 0;
  std::size_t queue_depth_max = 0;
  double wal_file_mb = 0.0;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const Segment& segment = segments[i];
    const bool traced = traced_segment(i, true);
    if (i % 2 == 1) {
      const Segment& a = segments[i - 1];
      const Segment& untraced = traced ? a : segment;
      const Segment& with_trace = traced ? segment : a;
      overhead.add(untraced.cpu_s / static_cast<double>(untraced.lus),
                   with_trace.cpu_s / static_cast<double>(with_trace.lus));
    }
    if (!traced) {
      untraced_ctx += segment.ctx_switches;
      untraced_lus += segment.lus;
      threads = std::max(threads, segment.threads);
      continue;
    }
    traced_wall += segment.wall_s;
    traced_lus += segment.lus;
    submit_ns += segment.submit_ns;
    router_tick_ms.insert(router_tick_ms.end(), segment.router_tick_ms.begin(),
                          segment.router_tick_ms.end());
    lag_ms.insert(lag_ms.end(), segment.follower_lag_ms.begin(),
                  segment.follower_lag_ms.end());
    spans.insert(spans.end(), segment.spans.begin(), segment.spans.end());
    forwarded += segment.router.lus_forwarded;
    batches_sent += segment.router.batches_sent;
    lus_rejected += segment.lus_rejected;
    bad_frames += segment.bad_frames;
    applied += segment.applied;
    batches += segment.batches;
    streamed_bytes += segment.replication.bytes_streamed;
    streamed_lus += segment.replication.lus_streamed;
    dropped_slow += segment.replication.dropped_slow;
    lag_records_max = std::max(lag_records_max, segment.lag_records_max);
    snapshot_bytes = segment.snapshot_bytes;
    wal_bytes += segment.wal_bytes;
    wal_records += segment.wal_records;
    queue_depth_max = std::max(queue_depth_max, segment.queue_depth_max);
    wal_file_mb = static_cast<double>(segment.wal_file_bytes) / (1 << 20);
  }
  const auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  metrics.set("cluster.router.submit_ns_per_lu",
              submit_ns / static_cast<double>(traced_lus));
  metrics.set("cluster.router.tick_p50_ms", percentile(router_tick_ms, 0.50));
  metrics.set("cluster.router.tick_p99_ms", percentile(router_tick_ms, 0.99));
  metrics.set("cluster.router.lus_per_batch", ratio(forwarded, batches_sent));
  metrics.set("cluster.lu_server.lus_rejected",
              static_cast<double>(lus_rejected));
  metrics.set("cluster.lu_server.bad_frames", static_cast<double>(bad_frames));
  metrics.set("cluster.replication.bytes_per_lu",
              ratio(streamed_bytes, streamed_lus));
  metrics.set("cluster.replication.lag_records_max",
              static_cast<double>(lag_records_max));
  metrics.set("cluster.replication.dropped_slow",
              static_cast<double>(dropped_slow));
  metrics.set("cluster.follower.lag_p50_ms", percentile(lag_ms, 0.50));
  metrics.set("cluster.follower.lag_p99_ms", percentile(lag_ms, 0.99));
  metrics.set("cluster.follower.snapshot_bytes",
              static_cast<double>(snapshot_bytes));
  metrics.set("serve.ingest.lus_per_batch", ratio(applied, batches));
  metrics.set("serve.ingest.queue_depth_max",
              static_cast<double>(queue_depth_max));
  metrics.set("serve.wal.bytes_per_lu", ratio(wal_bytes, wal_records));
  metrics.set("serve.wal.file_mb", wal_file_mb);
  report_spans(spans, metrics);
  overhead.report(metrics);
  metrics.set("proc.threads", static_cast<double>(threads));
  metrics.set("proc.ctx_switches_per_klu",
              static_cast<double>(untraced_ctx) * 1e3 /
                  static_cast<double>(untraced_lus));

  // Isolated layers over this workload's own stream (the first variant).
  const AdfReplay adf = replay_adf(inputs[0], core::AdfParams{}, 3);
  outcome.check(adf.transmitted == transmitted[0].size(),
                "cluster: isolated ADF replay disagrees with the run");
  const LayerCosts costs = isolated_layer_costs(
      transmitted[0], config.work_dir + "/isolated_wal.log");
  report_layers(costs, adf, traced_wall * 1e9 / static_cast<double>(traced_lus),
                static_cast<double>(inputs[0].size()) /
                    static_cast<double>(transmitted[0].size()),
                metrics);
  // The paper's own experiment, on this run's seed: the sim, broker and
  // net counts.
  report_paper_experiment(config.seed, metrics, outcome);
  return report;
}

}  // namespace ledger

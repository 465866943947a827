// shard_durable_rw: one in-process shard with a WAL, no sockets.
//
// Writes run closed loop: one generator thread submits 5000 MNs per tick,
// then runs the shard's barrier exactly as LuServer does (flush,
// append_tick with fsync, advance_estimates). Reads run open loop beside
// them: one reader thread issues lookup at 20k/s and k_nearest(8) at 2k/s.
// Each segment is a fresh shard over the same generated ticks; its WAL is
// read back and recovered after the segment, outside timing.
#include <cmath>
#include <filesystem>

#include "layers.h"
#include "mobilegrid/mobilegrid.h"

namespace ledger {

namespace {

namespace wire = serve::wire;

constexpr std::uint32_t kNodes = 5000;
constexpr std::size_t kTicksPerSegment = 50;
constexpr double kLookupRate = 20'000.0;
constexpr double kNearestRate = 2'000.0;

/// The deterministic walk mgrid_router and mgrid_serve mode=synthetic
/// drive: each MN bounces around a 1 km square at 1.5 m/s.
std::vector<wire::LuMsg> generate_walk(std::uint64_t seed) {
  util::RngRegistry rng(seed);
  std::vector<geo::Vec2> position(kNodes);
  std::vector<geo::Vec2> velocity(kNodes);
  for (std::uint32_t mn = 0; mn < kNodes; ++mn) {
    util::RngStream stream = rng.stream("serve_synthetic", mn);
    position[mn] = {stream.uniform(0.0, 1000.0), stream.uniform(0.0, 1000.0)};
    const double heading = stream.uniform(0.0, 6.283185307179586);
    velocity[mn] = {1.5 * std::cos(heading), 1.5 * std::sin(heading)};
  }
  std::vector<wire::LuMsg> lus;
  lus.reserve(kNodes * kTicksPerSegment);
  for (std::size_t k = 1; k <= kTicksPerSegment; ++k) {
    for (std::uint32_t mn = 0; mn < kNodes; ++mn) {
      position[mn].x += velocity[mn].x;
      position[mn].y += velocity[mn].y;
      if (position[mn].x < 0.0 || position[mn].x > 1000.0) {
        velocity[mn].x = -velocity[mn].x;
      }
      if (position[mn].y < 0.0 || position[mn].y > 1000.0) {
        velocity[mn].y = -velocity[mn].y;
      }
      wire::LuMsg lu;
      lu.mn = mn;
      lu.seq = static_cast<std::uint32_t>(k);
      lu.t = static_cast<double>(k);
      lu.x = position[mn].x;
      lu.y = position[mn].y;
      lu.vx = velocity[mn].x;
      lu.vy = velocity[mn].y;
      lus.push_back(lu);
    }
  }
  return lus;
}

/// What one segment measured beyond its end-to-end figures.
struct Segment : SegmentFigures {
  std::uint64_t ctx_switches = 0;
  // In-path timers (traced segments only).
  double submit_ns = 0.0;
  std::vector<double> flush_ms;
  std::vector<double> tick_sync_ms;
  std::vector<double> advance_ms;
  std::size_t queue_depth_max = 0;
  std::uint64_t threads = 0;
  serve::IngestStats ingest;
  std::uint64_t wal_bytes = 0;
  std::uint64_t wal_records = 0;
  std::uint64_t wal_file_bytes = 0;
  std::vector<obs::LuSpan> spans;
};

class ShardRun {
 public:
  ShardRun(const RunConfig& config, const std::vector<wire::LuMsg>& lus)
      : config_(config),
        lus_(lus),
        wal_dir_(config.work_dir + "/shard_durable_rw"),
        lookups_(kLookupRate, read_capacity(kLookupRate)),
        nearests_(kNearestRate, read_capacity(kNearestRate)) {}

  /// Brings a fresh shard up, runs the ticks, checks WAL and recovery.
  Segment run_segment(bool traced, Outcome& outcome, double& bring_up_s,
                      PeakRss& rss) {
    rss.begin_phase();
    const std::int64_t bring_up_start = now_ns();
    std::filesystem::remove_all(wal_dir_);
    std::filesystem::create_directories(wal_dir_);
    const std::string wal_path = wal_dir_ + "/wal.log";
    auto wal = std::make_unique<serve::WalWriter>(
        wal_path, serve::FsyncPolicy::kEveryTick);
    const std::unique_ptr<serve::ShardedDirectory> directory =
        make_serve_directory();
    obs::SpanTracerOptions span_options;
    span_options.sample_period = 64;
    span_options.ring_capacity = 1 << 16;
    span_options.emit_trace_events = false;
    obs::SpanTracer tracer(span_options);
    tracer.set_enabled(traced);
    serve::IngestOptions ingest;
    ingest.sources = 8;
    ingest.workers = 2;
    ingest.batch_size = 256;
    ingest.wal = wal.get();
    ingest.spans = &tracer;
    auto pipeline = std::make_unique<serve::IngestPipeline>(*directory, ingest);
    bring_up_s = static_cast<double>(now_ns() - bring_up_start) / 1e9;

    Segment segment;
    std::unique_ptr<OpenLoopReader> reader;
    const double cpu_start = cpu_seconds();
    const std::uint64_t ctx_start = context_switches();
    const std::int64_t start = now_ns();
    std::size_t next = 0;
    std::int64_t submit_ns = 0;
    for (std::size_t k = 1; k <= kTicksPerSegment; ++k) {
      const double t = static_cast<double>(k);
      const std::int64_t tick_start = now_ns();
      for (; next < lus_.size() && lus_[next].t == t; ++next) {
        if (traced) {
          const std::int64_t submit_start = now_ns();
          pipeline->submit(lus_[next]);
          submit_ns += now_ns() - submit_start;
        } else {
          pipeline->submit(lus_[next]);
        }
      }
      if (traced) {
        for (const std::size_t depth : pipeline->queue_depths()) {
          segment.queue_depth_max = std::max(segment.queue_depth_max, depth);
        }
        const std::int64_t flush_start = now_ns();
        pipeline->flush();
        const std::int64_t sync_start = now_ns();
        wal->append_tick(t, k);
        const std::int64_t advance_start = now_ns();
        directory->advance_estimates(t);
        const std::int64_t advance_end = now_ns();
        segment.flush_ms.push_back((sync_start - flush_start) / 1e6);
        segment.tick_sync_ms.push_back((advance_start - sync_start) / 1e6);
        segment.advance_ms.push_back((advance_end - advance_start) / 1e6);
      } else {
        pipeline->flush();
        wal->append_tick(t, k);
        directory->advance_estimates(t);
      }
      segment.tick_ms.push_back((now_ns() - tick_start) / 1e6);
      if (k == 1) {
        // Every MN is visible after the first barrier: reads start here.
        segment.nearests_begin = nearests_.recorded();
        reader = std::make_unique<OpenLoopReader>(read_ops(*directory),
                                                  lookups_, nearests_);
      }
      if (k == kTicksPerSegment / 2) segment.threads = thread_count();
    }
    segment.wall_s = static_cast<double>(now_ns() - start) / 1e9;
    // The write path's CPU: the reader thread's own CPU is left out.
    segment.cpu_s = cpu_seconds() - cpu_start - reader->cpu_seconds();
    segment.ctx_switches = context_switches() - ctx_start;
    reader->stop();
    outcome.failed += reader->missing();
    segment.nearests_end = nearests_.recorded();

    pipeline->stop();
    rss.end_phase();
    segment.lus = next;
    segment.submit_ns = static_cast<double>(submit_ns);
    segment.ingest = pipeline->stats();
    segment.wal_bytes = wal->bytes_appended();
    segment.wal_records = wal->records_appended();
    if (traced) segment.spans = tracer.snapshot().recent;
    outcome.check(!wal->failed(), "shard: WAL write failed");
    pipeline.reset();
    wal.reset();
    segment.wal_file_bytes = std::filesystem::file_size(wal_path);

    const serve::IngestStats& stats = segment.ingest;
    outcome.failed +=
        stats.rejected_full + stats.rejected_stale + stats.shed_low_info;
    outcome.check(stats.applied == segment.lus,
                  "shard: not every submitted LU was applied");
    check_wal(wal_path, segment, *directory, outcome);
    std::filesystem::remove_all(wal_dir_);
    return segment;
  }

  [[nodiscard]] const DueSchedule& lookups() const { return lookups_; }
  [[nodiscard]] const DueSchedule& nearests() const { return nearests_; }
  [[nodiscard]] std::uint64_t reads() const {
    return lookups_.latency_ns.size() + lookups_.overflow() +
           nearests_.latency_ns.size() + nearests_.overflow();
  }

 private:
  OpenLoopReader::Ops read_ops(const serve::ShardedDirectory& directory) {
    const std::uint64_t seed = config_.seed;
    OpenLoopReader::Ops ops;
    ops.lookup = [&directory, seed](std::uint64_t i) {
      return directory.lookup(read_mn(seed, i, kNodes)).has_value();
    };
    ops.nearest = [&directory, seed](std::uint64_t i) {
      const auto [x, y] = read_center(seed, i, 1000, 1000);
      return directory.k_nearest({x, y}, 8).size() == 8;
    };
    return ops;
  }

  /// The WAL holds every LU and tick in order and recovers to the live
  /// directory byte for byte.
  void check_wal(const std::string& wal_path, const Segment& segment,
                 const serve::ShardedDirectory& live, Outcome& outcome) {
    const serve::WalReadResult read = serve::read_wal(wal_path);
    std::uint64_t lu_records = 0;
    std::uint64_t tick_records = 0;
    for (const wire::Message& record : read.records) {
      if (std::holds_alternative<wire::LuMsg>(record)) ++lu_records;
      if (std::holds_alternative<wire::TickMsg>(record)) ++tick_records;
    }
    outcome.check(read.status == serve::WalReadStatus::kEnd,
                  "shard: WAL does not end cleanly");
    outcome.check(lu_records == segment.lus &&
                      tick_records == kTicksPerSegment &&
                      read.records.size() == segment.wal_records,
                  "shard: WAL record counts differ from the live run");
    serve::RecoverOptions recover;
    recover.wal_dir = wal_dir_;
    serve::RecoverReport report;
    const std::unique_ptr<serve::ShardedDirectory> recovered =
        serve::recover_directory(recover, make_serve_directory, report);
    const std::vector<std::uint8_t> live_bytes = snapshot_bytes(live);
    outcome.check(!live_bytes.empty() && live_bytes == snapshot_bytes(*recovered),
                  "shard: recovered directory differs from the live one");
    Digest digest;
    digest.add(live_bytes.data(), live_bytes.size());
    if (live_digest_ == 0) live_digest_ = digest.value();
    outcome.check(digest.value() == live_digest_,
                  "shard: segments over the same input reached different "
                  "states");
  }

  const RunConfig& config_;
  const std::vector<wire::LuMsg>& lus_;
  std::string wal_dir_;
  DueSchedule lookups_;
  DueSchedule nearests_;
  std::uint64_t live_digest_ = 0;
};

}  // namespace

RunReport run_shard_durable_rw(const RunConfig& config) {
  RunReport report;
  Outcome& outcome = report.outcome;
  MetricSet& metrics = report.metrics;

  // Input generation, three times for a steady set-up figure.
  std::vector<double> generate_s;
  std::vector<wire::LuMsg> lus;
  for (int rep = 0; rep < 3; ++rep) {
    const std::int64_t start = now_ns();
    lus = generate_walk(config.seed);
    generate_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
  }
  Digest input;
  input.add(lus.data(), lus.size() * sizeof(wire::LuMsg));
  report.info.emplace_back("input_digest", input.hex());
  report.info.emplace_back("input_lus", std::to_string(lus.size()));
  ShardRun run(config, lus);
  PeakRss rss;
  std::vector<Segment> segments;
  std::vector<double> bring_up_s;
  double timed_s = 0.0;
  std::size_t ticks = 0;
  const std::int64_t run_start = now_ns();
  // Segments go on until the run has measured its seconds and has 1000
  // ticks for the tick p99 (a traced run: at least four traced/untraced
  // pairs), within a hard limit on the run's wall time.
  while (outcome.correct &&
         (timed_s < config.seconds || ticks < 1000 ||
          (config.trace && segments.size() < 8)) &&
         static_cast<double>(now_ns() - run_start) / 1e9 < kRunLimitS) {
    double bring_up = 0.0;
    segments.push_back(run.run_segment(
        traced_segment(segments.size(), config.trace), outcome, bring_up, rss));
    bring_up_s.push_back(bring_up);
    timed_s += segments.back().wall_s;
    ticks += segments.back().tick_ms.size();
  }

  std::uint64_t lus_total = 0;
  for (const Segment& segment : segments) lus_total += segment.lus;
  outcome.attempted = lus_total + run.reads();
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
  outcome.check(resolved, "shard: too few samples beyond the " + why);
  if (!config.trace) return report;

  // --- traced pass: per-layer metrics ---------------------------------------
  report_read_layers(run.lookups(), run.nearests(), metrics);
  PairedOverhead overhead;
  std::vector<double> flush_ms, tick_sync_ms, advance_ms;
  std::vector<obs::LuSpan> spans;
  double traced_wall = 0.0, submit_ns = 0.0;
  std::uint64_t traced_lus = 0, applied = 0, batches = 0, wal_bytes = 0,
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
    flush_ms.insert(flush_ms.end(), segment.flush_ms.begin(),
                    segment.flush_ms.end());
    tick_sync_ms.insert(tick_sync_ms.end(), segment.tick_sync_ms.begin(),
                        segment.tick_sync_ms.end());
    advance_ms.insert(advance_ms.end(), segment.advance_ms.begin(),
                      segment.advance_ms.end());
    spans.insert(spans.end(), segment.spans.begin(), segment.spans.end());
    applied += segment.ingest.applied;
    batches += segment.ingest.batches;
    wal_bytes += segment.wal_bytes;
    wal_records += segment.wal_records;
    queue_depth_max = std::max(queue_depth_max, segment.queue_depth_max);
    wal_file_mb = static_cast<double>(segment.wal_file_bytes) / (1 << 20);
  }
  metrics.set("serve.ingest.submit_ns_per_lu",
              submit_ns / static_cast<double>(traced_lus));
  metrics.set("serve.ingest.flush_p50_ms", percentile(flush_ms, 0.50));
  metrics.set("serve.ingest.flush_p99_ms", percentile(flush_ms, 0.99));
  metrics.set("serve.ingest.lus_per_batch",
              batches > 0 ? static_cast<double>(applied) /
                                static_cast<double>(batches)
                          : 0.0);
  metrics.set("serve.ingest.queue_depth_max",
              static_cast<double>(queue_depth_max));
  metrics.set("serve.wal.tick_sync_p50_ms", percentile(tick_sync_ms, 0.50));
  metrics.set("serve.wal.tick_sync_p99_ms", percentile(tick_sync_ms, 0.99));
  metrics.set("serve.wal.bytes_per_lu",
              static_cast<double>(wal_bytes) / static_cast<double>(wal_records));
  metrics.set("serve.wal.file_mb", wal_file_mb);
  metrics.set("serve.directory.advance_p50_ms", percentile(advance_ms, 0.50));
  report_spans(spans, metrics);
  overhead.report(metrics);
  metrics.set("proc.threads", static_cast<double>(threads));
  metrics.set("proc.ctx_switches_per_klu",
              static_cast<double>(untraced_ctx) * 1e3 /
                  static_cast<double>(untraced_lus));

  // Isolated layers over this workload's own stream.
  std::vector<Sample> samples;
  samples.reserve(lus.size());
  for (const wire::LuMsg& lu : lus) {
    samples.push_back({lu.mn, lu.t, lu.x, lu.y, lu.vx, lu.vy});
  }
  core::AdfParams adf;
  const AdfReplay replay = replay_adf(samples, adf, 1);
  const LayerCosts costs =
      isolated_layer_costs(lus, config.work_dir + "/isolated_wal.log");
  report_layers(costs, replay,
                traced_wall * 1e9 / static_cast<double>(traced_lus), 1.0,
                metrics);
  return report;
}

}  // namespace ledger

// Workload interface and isolated per-layer timings of the LU cost ledger.
//
// An isolated timing replays a workload's own generated stream through one
// layer's public call (ADF process, wire encode/decode, ring owner, WAL
// append, directory apply, estimator observe/forecast) with nothing else in
// the loop. Each also yields a share: its cost for the workload's operation
// count as a fraction of the workload's composed wall time.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/adf.h"
#include "estimation/estimator.h"
#include "obs/span.h"
#include "scenario/workload.h"
#include "serve/directory.h"
#include "serve/wire.h"
#include "support.h"
#include "util/rng.h"

namespace ledger {

using namespace mgrid;

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout for WAL files.
  std::string work_dir;
};

struct RunReport {
  Outcome outcome;
  MetricSet metrics;
  /// Un-gated context printed before the result (input digest, sample
  /// counts, ...).
  std::vector<std::pair<std::string, std::string>> info;
};

RunReport run_shard_durable_rw(const RunConfig& config);
RunReport run_cluster_adf_e2e(const RunConfig& config);

/// Runs the paper's experiment (140 Table-1 MNs, 1800 s, ADF with
/// Brown-polar LE) once for input seed `seed`, checks its outputs and
/// reports its sim, broker and net counts.
void report_paper_experiment(std::uint64_t seed, MetricSet& metrics,
                             Outcome& outcome);

// --- serving configuration shared by the workloads --------------------------

/// mgrid_serve mode=shard defaults: 8 directory shards, history 8, 50 m
/// cells.
[[nodiscard]] serve::DirectoryOptions serve_directory_options();
/// The serving estimator: brown_polar at its default smoothing, 1 s period.
[[nodiscard]] std::unique_ptr<estimation::LocationEstimator> serve_estimator();
[[nodiscard]] std::unique_ptr<serve::ShardedDirectory> make_serve_directory();
/// mgrid-snap-v1 bytes of a directory (empty when a track refuses capture).
[[nodiscard]] std::vector<std::uint8_t> snapshot_bytes(
    const serve::ShardedDirectory& directory);

/// Hard limit on a run's wall time: a run stops taking segments here even
/// when a percentile still lacks samples (and then fails its check), so it
/// exits well within the 180 s a run may take.
inline constexpr double kRunLimitS = 100.0;

/// Read samples to preallocate for one run at `rate` per second.
[[nodiscard]] inline std::size_t read_capacity(double rate) {
  return static_cast<std::size_t>(rate * kRunLimitS);
}

/// One segment of a run: a fixed number of ticks over one input variant,
/// with the figures it measured.
struct SegmentFigures {
  std::size_t variant = 0;
  double wall_s = 0.0;
  /// Write-path CPU seconds (the reader thread's CPU left out).
  double cpu_s = 0.0;
  /// LUs made visible.
  std::uint64_t lus = 0;
  std::vector<double> tick_ms;
  /// The k-nearest reads recorded while the segment ran: [begin, end) of
  /// the run's schedule.
  std::size_t nearests_begin = 0, nearests_end = 0;
};

/// The input variant segment `i` runs. A run cycles through its variants so
/// its figures average over several inputs; a traced run keeps each
/// traced/untraced pair on one variant so the pair compares like with like.
[[nodiscard]] inline std::size_t variant_of(std::size_t i, std::size_t variants,
                                            bool trace) {
  return (trace ? i / 2 : i) % variants;
}

/// The seed of input variant `v` of a run seeded `seed` (variant 0 is the
/// run's own seed).
[[nodiscard]] inline std::uint64_t variant_seed(std::uint64_t seed,
                                                std::size_t v) {
  return v == 0 ? seed : util::splitmix64(seed + v);
}

/// Whether segment `i` of a traced run is traced: pairs alternate which of
/// traced and untraced comes first.
[[nodiscard]] inline bool traced_segment(std::size_t i, bool trace) {
  return trace && ((i % 2 == 0) == ((i / 2) % 2 == 0));
}

/// Reduces a run's segments to their run figures (the end-to-end metrics
/// and the wall-clock ones printed in the traced pass): each figure is taken
/// per segment and the run reports the median over its segments. A
/// percentile is taken per segment only when every segment has ten samples
/// beyond it; otherwise it is taken over all of the run's samples. Returns
/// false, naming the figure in `why`, when even the whole run has fewer
/// than ten beyond.
bool report_end_to_end(const std::vector<SegmentFigures>& segments,
                       const DueSchedule& nearests, MetricSet& metrics,
                       std::string* why);

/// Per-layer read figures over every read of the run: the read p99s, the
/// median service times and the reader's lateness.
void report_read_layers(const DueSchedule& lookups,
                        const DueSchedule& nearests, MetricSet& metrics);

// --- traced passes ------------------------------------------------------------

/// Per-stage p50/p99 (us) over recorded spans. A stage is summarised over
/// the spans that observed it: follower spans carry only follower_apply,
/// shard spans every earlier stage they crossed.
void report_spans(const std::vector<obs::LuSpan>& spans, MetricSet& metrics);

/// Tracing overhead from paired, adjacent traced and untraced passes: the
/// median over pairs of (traced CPU per LU / untraced CPU per LU) - 1, with
/// the distance between its quartiles as the spread. CPU time is blind to
/// descheduling, and each pair shares its neighbourhood in time, so the
/// ratio resolves small overheads that a median of two phases cannot.
class PairedOverhead {
 public:
  void add(double untraced_cpu_per_lu, double traced_cpu_per_lu);
  [[nodiscard]] std::size_t pairs() const { return ratios_.size(); }
  void report(MetricSet& metrics) const;

 private:
  std::vector<double> ratios_;
};

// --- isolated timings ---------------------------------------------------------

/// One MN position sample, as an MN's filter sees it.
struct Sample {
  std::uint32_t mn = 0;
  double t = 0.0;
  double x = 0.0;
  double y = 0.0;
  double vx = 0.0;
  double vy = 0.0;
};

[[nodiscard]] serve::wire::LuMsg to_lu(const Sample& sample,
                                       std::uint32_t seq);

/// The Table-1 population's trajectories on the paper's campus, sampled
/// the way the experiment's mobility federate samples them: 0.1 s motion
/// steps, one sample per MN per second for t = first..last, in node order
/// within each second. `workload` scales the per-region counts.
[[nodiscard]] std::vector<Sample> table1_samples(
    std::uint64_t seed, const scenario::WorkloadParams& workload, int first,
    int last);

struct AdfReplay {
  double ns_per_sample = 0.0;
  std::uint64_t samples = 0;
  std::uint64_t transmitted = 0;
  std::uint64_t rebuilds = 0;
  /// clusters_created() - cluster_count(): retired slots never reclaimed.
  std::uint64_t retired_slots = 0;
};

/// Replays `samples` (time-ordered) through a fresh ADF, median of `reps`.
[[nodiscard]] AdfReplay replay_adf(const std::vector<Sample>& samples,
                                   const core::AdfParams& params,
                                   int reps = 3);

struct LayerCosts {
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  double ring_owner_ns = 0.0;
  double wal_append_ns = 0.0;  ///< fsync=never
  double apply_ns = 0.0;
  double observe_ns = 0.0;
  double forecast_ns = 0.0;

  /// The server work one LU costs, summed over the isolated layers: what a
  /// suppressed LU saves.
  [[nodiscard]] double server_ns_per_lu() const {
    return encode_ns + decode_ns + ring_owner_ns + wal_append_ns + apply_ns +
           observe_ns;
  }
};

/// Times each per-LU layer over `lus` (time-ordered, at most `cap` of them
/// used). `wal_path` is a scratch file, removed afterwards.
[[nodiscard]] LayerCosts isolated_layer_costs(
    const std::vector<serve::wire::LuMsg>& lus, const std::string& wal_path,
    std::size_t cap = 200'000);

/// Writes the isolated per-layer metrics and their shares.
/// `wall_ns_per_lu` is the workload's composed wall cost per visible LU and
/// `samples_per_lu` the filter samples behind each visible LU.
void report_layers(const LayerCosts& costs, const AdfReplay& adf,
                   double wall_ns_per_lu, double samples_per_lu,
                   MetricSet& metrics);

}  // namespace ledger

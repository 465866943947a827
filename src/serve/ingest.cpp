#include "serve/ingest.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "obs/trace.h"

namespace mgrid::serve {

/// Registry handles for the pipeline's backpressure telemetry, resolved
/// once against the constructing thread's current registry. Depth gauges
/// are per source so a scrape shows which queues are hot.
struct IngestPipeline::Telemetry {
  obs::Counter accepted;
  obs::Counter rejected_full;
  obs::Counter rejected_stale;
  obs::Counter shed_low_info;
  obs::Counter shed_queue_full;
  obs::HistogramMetric enqueue_to_apply_seconds;
  obs::HistogramMetric batch_size;
  std::vector<obs::Gauge> queue_depth;  ///< One per source.

  Telemetry(obs::MetricsRegistry& registry, std::size_t sources,
            std::size_t max_batch) {
    accepted = registry.counter("mgrid_ingest_accepted_total", {},
                                "LUs accepted into the ingest queues");
    rejected_full =
        registry.counter("mgrid_ingest_rejected_total",
                         {{"reason", "full"}},
                         "LUs rejected by the ingest pipeline");
    rejected_stale =
        registry.counter("mgrid_ingest_rejected_total",
                         {{"reason", "stale"}},
                         "LUs rejected by the ingest pipeline");
    shed_low_info = registry.counter(
        "mgrid_ingest_shed_total", {{"reason", "low_info"}},
        "LUs shed by overload admission control");
    shed_queue_full = registry.counter(
        "mgrid_ingest_shed_total", {{"reason", "queue_full"}},
        "LUs shed by overload admission control");
    enqueue_to_apply_seconds = registry.histogram(
        "mgrid_ingest_enqueue_to_apply_seconds", 0.0, 0.1, 100, {},
        "Latency from submit() to directory apply");
    batch_size = registry.histogram(
        "mgrid_ingest_batch_size", 0.0,
        static_cast<double>(max_batch) + 1.0,
        std::min<std::size_t>(max_batch + 1, 64), {},
        "LUs drained per worker batch");
    queue_depth.reserve(sources);
    for (std::size_t s = 0; s < sources; ++s) {
      queue_depth.push_back(registry.gauge(
          "mgrid_ingest_queue_depth", {{"source", std::to_string(s)}},
          "Instantaneous depth of one ingest source queue"));
    }
  }
};

IngestPipeline::IngestPipeline(ShardedDirectory& directory,
                               IngestOptions options)
    : directory_(directory), options_(std::move(options)) {
  if (options_.sources == 0) {
    throw std::invalid_argument("IngestPipeline: sources must be >= 1");
  }
  if (options_.workers == 0) {
    throw std::invalid_argument("IngestPipeline: workers must be >= 1");
  }
  if (options_.batch_size == 0) {
    throw std::invalid_argument("IngestPipeline: batch_size must be >= 1");
  }
  if (options_.shed_watermark < 0.0 || options_.shed_watermark > 1.0) {
    throw std::invalid_argument(
        "IngestPipeline: shed_watermark must be in [0, 1]");
  }
  if (options_.shed_watermark > 0.0 && options_.queue_capacity > 0) {
    shed_threshold_ = std::max<std::size_t>(
        1, static_cast<std::size_t>(options_.shed_watermark *
                                    static_cast<double>(
                                        options_.queue_capacity)));
  } else {
    shed_threshold_ = std::numeric_limits<std::size_t>::max();
  }
  wake_depth_ = std::min(options_.batch_size, shed_threshold_);
  if (options_.queue_capacity > 0) {
    wake_depth_ = std::min(wake_depth_, options_.queue_capacity);
  }
  paused_ = options_.start_paused;
  queues_.reserve(options_.sources);
  for (std::size_t i = 0; i < options_.sources; ++i) {
    queues_.push_back(std::make_unique<SourceQueue>());
  }
  home_registry_ = &obs::current_registry();
  telemetry_ = std::make_shared<Telemetry>(*home_registry_, options_.sources,
                                           options_.batch_size);
  if (options_.spans != nullptr) {
    // Exemplar buckets mirror the enqueue-to-apply latency histogram, so a
    // /tracez exemplar maps 1:1 onto a /metrics bucket.
    options_.spans->register_sli("update_latency", 0.0, 0.1, 100);
  }
  slots_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    slots_.push_back(std::make_unique<WorkerSlot>());
  }
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this, i] { worker_main(i); });
  }
}

IngestPipeline::~IngestPipeline() { stop(); }

namespace {

/// Per-thread scratch of submit_batch(), kept across calls so that a run
/// allocates nothing once the vectors have grown to the caller's run size.
/// A run never nests: taps must not call back into a pipeline.
struct RunScratch {
  std::vector<std::uint32_t> source;  ///< Per LU of the run.
  std::vector<bool> sampled;          ///< Per LU of the run.
  std::vector<bool> touched_mark;     ///< Per source index.
  std::vector<std::uint32_t> touched;  ///< Touched sources, ascending.
  std::vector<std::size_t> depth_before;  ///< Per touched source.
  std::vector<std::size_t> depth_after;   ///< Per touched source.
  std::vector<std::uint32_t> accepted;  ///< Run indices, arrival order.
  std::vector<wire::LuMsg> wal_run;     ///< The accepted LUs, for the WAL.
  /// wal_ns of the sampled LUs the run enqueued (deque elements stay put
  /// while the run holds their queue locks).
  std::vector<std::uint64_t*> sampled_wal_ns;

  void reset(std::size_t sources) {
    source.clear();
    sampled.clear();
    touched_mark.assign(sources, false);
    touched.clear();
    depth_before.clear();
    depth_after.clear();
    accepted.clear();
    wal_run.clear();
    sampled_wal_ns.clear();
  }
};

thread_local RunScratch run_scratch;

}  // namespace

bool IngestPipeline::submit(const wire::LuMsg& msg) {
  const IngestLu item{msg, {}};
  return submit_batch({&item, 1}) == 1;
}

bool IngestPipeline::submit_traced(const wire::LuMsg& msg,
                                   const IngestTraceContext& trace) {
  const IngestLu item{msg, trace};
  return submit_batch({&item, 1}) == 1;
}

std::size_t IngestPipeline::submit_batch(std::span<const IngestLu> run) {
  if (run.empty() || !accepting_.load(std::memory_order_acquire)) return 0;
  const bool telemetry = obs::enabled();
  RunScratch& scratch = run_scratch;
  scratch.reset(queues_.size());
  // Producer-side sampling decisions: a pure function of each LU's
  // identity, so the sampled set cannot depend on worker count, timing or
  // how LUs were grouped into runs. An LU with a propagated context was
  // sampled upstream and stays sampled here, so one cluster-wide decision
  // selects every hop of the trace.
  bool any_sampled = false;
  for (const IngestLu& item : run) {
    const auto source =
        static_cast<std::uint32_t>(item.msg.mn % queues_.size());
    const bool sampled =
        options_.spans != nullptr &&
        (item.trace.trace_id != 0 ||
         options_.spans->sampled(source, item.msg.mn, item.msg.seq));
    any_sampled = any_sampled || sampled;
    scratch.source.push_back(source);
    scratch.sampled.push_back(sampled);
    if (!scratch.touched_mark[source]) {
      scratch.touched_mark[source] = true;
      scratch.touched.push_back(source);
    }
  }
  // Ascending lock order: concurrent runs cannot deadlock, and workers only
  // ever hold one queue lock.
  std::sort(scratch.touched.begin(), scratch.touched.end());

  /// Holds every touched queue lock for the run; releases them on any exit.
  class QueueLocks {
   public:
    QueueLocks(IngestPipeline& pipeline, const RunScratch& scratch)
        : pipeline_(pipeline), touched_(scratch.touched) {
      for (const std::uint32_t source : touched_) {
        pipeline_.queues_[source]->mutex.lock();
      }
    }
    ~QueueLocks() {
      for (const std::uint32_t source : touched_) {
        pipeline_.queues_[source]->mutex.unlock();
      }
    }
    QueueLocks(const QueueLocks&) = delete;
    QueueLocks& operator=(const QueueLocks&) = delete;

   private:
    IngestPipeline& pipeline_;
    const std::vector<std::uint32_t>& touched_;
  };

  std::uint64_t rejected_full = 0;
  std::uint64_t shed_low_info = 0;
  const auto flag_degraded = [this] {
    if (!shed_active_.exchange(true, std::memory_order_relaxed)) {
      directory_.set_degraded(true);
    }
  };
  {
    const QueueLocks locks(*this, scratch);
    for (const std::uint32_t source : scratch.touched) {
      scratch.depth_before.push_back(queues_[source]->lus.size());
    }
    std::chrono::steady_clock::time_point enqueued{};
    if (telemetry || any_sampled) enqueued = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < run.size(); ++i) {
      const wire::LuMsg& msg = run[i].msg;
      SourceQueue& queue = *queues_[scratch.source[i]];
      if (options_.queue_capacity > 0 &&
          queue.lus.size() >= options_.queue_capacity) {
        ++rejected_full;
        flag_degraded();
        continue;
      }
      if (queue.lus.size() >= shed_threshold_) {
        // Overload: shed lowest-information LUs first. An MN that barely
        // moved since its last accepted fix costs the estimator little to
        // lose — the same displacement signal the ADF filters on.
        const auto last = queue.last_position.find(msg.mn);
        if (last != queue.last_position.end() &&
            (geo::Vec2{msg.x, msg.y} - last->second).norm() <
                options_.shed_min_displacement) {
          ++shed_low_info;
          flag_degraded();
          continue;
        }
      }
      QueuedLu& item = queue.lus.emplace_back();
      item.msg = msg;
      item.enqueued = enqueued;
      item.sampled = scratch.sampled[i];
      if (run[i].trace.trace_id != 0) item.trace = run[i].trace;
      if (item.sampled) scratch.sampled_wal_ns.push_back(&item.wal_ns);
      if (shed_threshold_ != std::numeric_limits<std::size_t>::max()) {
        queue.last_position[msg.mn] = geo::Vec2{msg.x, msg.y};
      }
      scratch.accepted.push_back(static_cast<std::uint32_t>(i));
    }
    // WAL append inside the queue locks: the log's per-MN record order is
    // the queues', so serial replay reproduces exactly what the workers
    // apply. A sampled LU's WAL stage is its run's append, carved out of
    // its queue-wait stage.
    if (options_.wal != nullptr && !scratch.accepted.empty()) {
      for (const std::uint32_t i : scratch.accepted) {
        scratch.wal_run.push_back(run[i].msg);
      }
      if (scratch.sampled_wal_ns.empty()) {
        options_.wal->append(scratch.wal_run);
      } else {
        const auto wal_start = std::chrono::steady_clock::now();
        options_.wal->append(scratch.wal_run);
        const auto wal_ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - wal_start)
                .count());
        for (std::uint64_t* slot : scratch.sampled_wal_ns) *slot = wal_ns;
      }
    }
    // Replication taps under the same locks: the tapped stream's per-MN
    // order is the queues' (== the WAL's), which is what makes follower
    // replay deterministic. Tap time lands in the span's queue stage. A
    // traced LU prefers the trace-propagating tap so the follower joins the
    // trace; either way every accepted LU reaches exactly one tap.
    if (options_.traced_lu_tap || options_.lu_tap) {
      for (const std::uint32_t i : scratch.accepted) {
        const IngestLu& lu = run[i];
        if (lu.trace.trace_id != 0 && options_.traced_lu_tap) {
          wire::TracedLuMsg traced;
          traced.lu = lu.msg;
          traced.trace.trace_id = lu.trace.trace_id;
          traced.trace.origin_us = lu.trace.origin_us;
          traced.trace.send_us = lu.trace.send_us;
          traced.trace.parent_stage =
              static_cast<std::uint32_t>(obs::LuStage::kVisible);
          options_.traced_lu_tap(traced);
        } else if (options_.lu_tap) {
          options_.lu_tap(lu.msg);
        }
      }
    }
    for (const std::uint32_t source : scratch.touched) {
      scratch.depth_after.push_back(queues_[source]->lus.size());
    }
    // Counted before the locks drop, so a worker that drains these LUs
    // never finds pending() short of them.
    const std::size_t accepted = scratch.accepted.size();
    if (accepted > 0) {
      accepted_.fetch_add(accepted, std::memory_order_relaxed);
      pending_.fetch_add(accepted, std::memory_order_acq_rel);
    }
  }
  const std::size_t accepted = scratch.accepted.size();
  if (rejected_full > 0) {
    rejected_full_.fetch_add(rejected_full, std::memory_order_relaxed);
  }
  if (shed_low_info > 0) {
    shed_low_info_.fetch_add(shed_low_info, std::memory_order_relaxed);
  }
  if (telemetry) {
    if (accepted > 0) telemetry_->accepted.inc(accepted);
    if (rejected_full > 0) {
      telemetry_->rejected_full.inc(rejected_full);
      telemetry_->shed_queue_full.inc(rejected_full);
    }
    if (shed_low_info > 0) telemetry_->shed_low_info.inc(shed_low_info);
    for (std::size_t k = 0; k < scratch.touched.size(); ++k) {
      telemetry_->queue_depth[scratch.touched[k]].set(
          static_cast<double>(scratch.depth_after[k]));
    }
  }
  // Wake each touched queue's owning worker once per run: when the run
  // took the queue to the wake depth, or when the worker is parked with no
  // timer and the run is the first work in the queue. Taking
  // control_mutex_ pairs with the worker's check-then-wait, so the wakeup
  // cannot be lost.
  std::unique_lock<std::mutex> control(control_mutex_, std::defer_lock);
  for (std::size_t k = 0; k < scratch.touched.size(); ++k) {
    const std::size_t before = scratch.depth_before[k];
    const std::size_t after = scratch.depth_after[k];
    WorkerSlot& slot = *slots_[scratch.touched[k] % slots_.size()];
    if ((before < wake_depth_ && after >= wake_depth_) ||
        (before == 0 && after > 0 && slot.parked.load())) {
      if (!control.owns_lock()) control.lock();
      slot.cv.notify_one();
    }
  }
  return accepted;
}

void IngestPipeline::wake_all_locked() {
  for (const std::unique_ptr<WorkerSlot>& slot : slots_) slot->cv.notify_one();
}

void IngestPipeline::resume() {
  const std::lock_guard<std::mutex> lock(control_mutex_);
  if (!paused_) return;
  paused_ = false;
  ++resume_epoch_;
  wake_all_locked();
}

void IngestPipeline::flush() {
  resume();
  std::unique_lock<std::mutex> lock(control_mutex_);
  ++flushing_;
  wake_all_locked();
  idle_cv_.wait(lock, [this] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
  --flushing_;
}

void IngestPipeline::stop() {
  {
    const std::lock_guard<std::mutex> lock(control_mutex_);
    if (stopped_) return;
    stopped_ = true;
    accepting_.store(false, std::memory_order_release);
    stopping_ = true;
    paused_ = false;
    wake_all_locked();
  }
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
}

IngestPipeline::OwnWork IngestPipeline::own_work(std::size_t worker_id) {
  OwnWork work;
  for (std::size_t q = worker_id; q < queues_.size();
       q += options_.workers) {
    const std::lock_guard<std::mutex> lock(queues_[q]->mutex);
    const std::size_t depth = queues_[q]->lus.size();
    if (depth >= wake_depth_) {
      work.full = true;
    } else if (depth > 0) {
      work.partial = true;
    }
  }
  return work;
}

IngestPipeline::Drain IngestPipeline::await_work(
    std::size_t worker_id, std::unique_lock<std::mutex>& lock) {
  using Clock = std::chrono::steady_clock;
  WorkerSlot& slot = *slots_[worker_id];
  for (;;) {
    slot.parked.store(true);
    const OwnWork work = paused_ ? OwnWork{} : own_work(worker_id);
    const bool any = work.full || work.partial;
    if (any) slot.parked.store(false);
    if (stopping_) return any ? Drain::kAll : Drain::kExit;
    const bool resumed = slot.resume_epoch != resume_epoch_;
    slot.resume_epoch = resume_epoch_;
    if (!any) {
      slot.linger_deadline = {};
      slot.cv.wait(lock);
      continue;
    }
    // The first sight of a partial batch starts its linger clock; a full
    // queue elsewhere does not restart it, so no queue waits unboundedly.
    bool all = resumed || flushing_ > 0;
    if (work.partial && !all) {
      if (slot.linger_deadline == Clock::time_point{}) {
        slot.linger_deadline = Clock::now() + kMaxLinger;
      } else {
        all = Clock::now() >= slot.linger_deadline;
      }
    }
    if (all) {
      slot.linger_deadline = {};
      return Drain::kAll;
    }
    if (work.full) return Drain::kFull;
    slot.cv.wait_until(lock, slot.linger_deadline);
  }
}

std::vector<std::size_t> IngestPipeline::queue_depths() const {
  std::vector<std::size_t> depths;
  depths.reserve(queues_.size());
  for (const std::unique_ptr<SourceQueue>& queue : queues_) {
    const std::lock_guard<std::mutex> lock(queue->mutex);
    depths.push_back(queue->lus.size());
  }
  return depths;
}

void IngestPipeline::worker_main(std::size_t worker_id) {
  // Workers record through the owner's registry (directory apply metrics,
  // pipeline histograms), not whatever the global happens to be.
  const obs::ScopedRegistry scoped_registry(*home_registry_);
  // Name the thread for trace exports so Perfetto groups the pipeline's
  // workers instead of showing raw trace ids.
  obs::current_trace_recorder().set_thread_name(
      obs::trace_thread_id(), "ingest-worker-" + std::to_string(worker_id));
  /// A span-sampled LU awaiting its apply/visible stage stamps.
  struct PendingSpan {
    std::uint32_t mn = 0;
    std::uint32_t seq = 0;
    std::uint64_t wal_ns = 0;
    std::chrono::steady_clock::time_point enqueued{};
    IngestTraceContext trace{};
  };
  std::vector<ShardedDirectory::LuApply> batch;
  std::vector<std::chrono::steady_clock::time_point> enqueue_times;
  std::vector<PendingSpan> pending_spans;
  batch.reserve(options_.batch_size);
  enqueue_times.reserve(options_.batch_size);
  for (;;) {
    Drain drain = Drain::kExit;
    {
      std::unique_lock<std::mutex> lock(control_mutex_);
      drain = await_work(worker_id, lock);
    }
    if (drain == Drain::kExit) return;
    for (std::size_t q = worker_id; q < queues_.size();
         q += options_.workers) {
      SourceQueue& queue = *queues_[q];
      batch.clear();
      enqueue_times.clear();
      pending_spans.clear();
      std::size_t remaining_depth = 0;
      {
        const std::lock_guard<std::mutex> lock(queue.mutex);
        if (drain == Drain::kFull && queue.lus.size() < wake_depth_) continue;
        const std::size_t take =
            std::min(options_.batch_size, queue.lus.size());
        for (std::size_t i = 0; i < take; ++i) {
          const QueuedLu& item = queue.lus[i];
          batch.push_back({item.msg.mn,
                           item.msg.t,
                           {item.msg.x, item.msg.y},
                           {item.msg.vx, item.msg.vy}});
          enqueue_times.push_back(item.enqueued);
          if (item.sampled) {
            pending_spans.push_back({item.msg.mn, item.msg.seq, item.wal_ns,
                                     item.enqueued, item.trace});
          }
        }
        queue.lus.erase(queue.lus.begin(),
                        queue.lus.begin() + static_cast<std::ptrdiff_t>(take));
        remaining_depth = queue.lus.size();
      }
      if (batch.empty()) continue;
      // The batch reaches the WAL file before it becomes visible. A sampled
      // batch charges the write to its spans' WAL stage.
      std::uint64_t write_ns = 0;
      if (options_.wal != nullptr) {
        if (pending_spans.empty()) {
          options_.wal->write_pending();
        } else {
          const auto write_start = std::chrono::steady_clock::now();
          options_.wal->write_pending();
          write_ns = static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - write_start)
                  .count());
        }
      }
      std::chrono::steady_clock::time_point apply_start;
      if (!pending_spans.empty()) {
        apply_start = std::chrono::steady_clock::now();
      }
      const std::size_t applied = directory_.apply_batch(batch);
      std::chrono::steady_clock::time_point apply_end;
      if (!pending_spans.empty()) {
        apply_end = std::chrono::steady_clock::now();
      }
      applied_.fetch_add(applied, std::memory_order_relaxed);
      rejected_stale_.fetch_add(batch.size() - applied,
                                std::memory_order_relaxed);
      batches_.fetch_add(1, std::memory_order_relaxed);

      double max_latency = 0.0;
      bool have_latency = false;
      if (obs::enabled()) {
        const auto now = std::chrono::steady_clock::now();
        for (const auto& enqueued : enqueue_times) {
          if (enqueued == std::chrono::steady_clock::time_point{}) continue;
          const double seconds =
              std::chrono::duration<double>(now - enqueued).count();
          telemetry_->enqueue_to_apply_seconds.observe(seconds);
          max_latency = std::max(max_latency, seconds);
          have_latency = true;
        }
        telemetry_->batch_size.observe(static_cast<double>(batch.size()));
        telemetry_->queue_depth[q].set(
            static_cast<double>(remaining_depth));
        if (applied < batch.size()) {
          telemetry_->rejected_stale.inc(
              static_cast<std::uint64_t>(batch.size() - applied));
        }
      }
      if (options_.backpressure_hook && have_latency) {
        options_.backpressure_hook(batch.size(), max_latency);
      }

      if (!pending_spans.empty()) {
        // "Visible" is stamped after the telemetry/hook work above: it is
        // the moment a lookup issued now would see the applied batch with
        // all observability side effects settled. The four stages tile
        // [enqueued, visible] exactly, so their sum IS the span total.
        const auto visible = std::chrono::steady_clock::now();
        for (const PendingSpan& pending_span : pending_spans) {
          obs::LuSpan span;
          span.mn = pending_span.mn;
          span.seq = pending_span.seq;
          span.source = static_cast<std::uint32_t>(q);
          // A propagated context keeps its upstream id so every hop of the
          // cluster trace shares one trace_id; local sampling derives it.
          span.trace_id =
              pending_span.trace.trace_id != 0
                  ? pending_span.trace.trace_id
                  : obs::SpanTracer::trace_id(span.source, pending_span.mn,
                                              pending_span.seq);
          span.tid = obs::trace_thread_id();
          span.wall_us = static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  visible.time_since_epoch())
                  .count());
          const double wal_seconds =
              static_cast<double>(pending_span.wal_ns + write_ns) * 1e-9;
          const double to_apply_start =
              std::chrono::duration<double>(apply_start -
                                            pending_span.enqueued)
                  .count();
          span.stage_seconds[static_cast<std::size_t>(obs::LuStage::kWal)] =
              wal_seconds;
          span.stage_seconds[static_cast<std::size_t>(
              obs::LuStage::kQueue)] =
              std::max(0.0, to_apply_start - wal_seconds);
          span.stage_seconds[static_cast<std::size_t>(
              obs::LuStage::kApply)] =
              std::chrono::duration<double>(apply_end - apply_start).count();
          span.stage_seconds[static_cast<std::size_t>(
              obs::LuStage::kVisible)] =
              std::chrono::duration<double>(visible - apply_end).count();
          // Upstream stages from the propagated timestamps (monotonic us,
          // cross-process comparable on one machine). Untraced LUs leave
          // them 0, so the local four stages still tile the span exactly.
          const IngestTraceContext& upstream = pending_span.trace;
          if (upstream.send_us > upstream.origin_us &&
              upstream.origin_us != 0) {
            span.stage_seconds[static_cast<std::size_t>(
                obs::LuStage::kRouterBatch)] =
                static_cast<double>(upstream.send_us - upstream.origin_us) *
                1e-6;
          }
          if (upstream.recv_us > upstream.send_us && upstream.send_us != 0) {
            span.stage_seconds[static_cast<std::size_t>(obs::LuStage::kNet)] =
                static_cast<double>(upstream.recv_us - upstream.send_us) *
                1e-6;
          }
          for (const double stage : span.stage_seconds) {
            span.total_seconds += stage;
          }
          options_.spans->record("update_latency", span);
        }
      }

      if (pending_.fetch_sub(batch.size(), std::memory_order_acq_rel) ==
          batch.size()) {
        // Fully drained: the overload that triggered shedding has passed,
        // so lift degraded mode.
        if (shed_active_.exchange(false, std::memory_order_relaxed)) {
          directory_.set_degraded(false);
        }
        const std::lock_guard<std::mutex> lock(control_mutex_);
        idle_cv_.notify_all();
      }
    }
  }
}

IngestStats IngestPipeline::stats() const {
  IngestStats out;
  out.accepted = accepted_.load(std::memory_order_relaxed);
  out.rejected_full = rejected_full_.load(std::memory_order_relaxed);
  out.applied = applied_.load(std::memory_order_relaxed);
  out.rejected_stale = rejected_stale_.load(std::memory_order_relaxed);
  out.batches = batches_.load(std::memory_order_relaxed);
  out.shed_low_info = shed_low_info_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace mgrid::serve

#include "sweep/engine.h"

#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "obs/eventlog.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mgrid::sweep {

namespace {

void run_one_job(const SweepJob& job, const EngineOptions& engine,
                 scenario::ExperimentResult& slot, std::string* eventlog_slot) {
  // A registry per job keeps concurrent federations' telemetry disjoint;
  // run_experiment installs it thread-wide, so nothing leaks into
  // MetricsRegistry::global(). The same
  // goes for spans: a small per-job recorder (left disabled — isolation, not
  // capture) keeps concurrent jobs from interleaving into the global ring.
  obs::MetricsRegistry registry;
  obs::TraceRecorder tracer(64);
  scenario::ExperimentOptions options = job.options;
  options.registry = &registry;
  options.tracer = &tracer;
  std::optional<obs::EventLog> event_log;
  if (eventlog_slot != nullptr) {
    obs::EventLogOptions log_options;
    log_options.capacity = engine.eventlog_capacity;
    log_options.sample_every = engine.eventlog_sample;
    event_log.emplace(log_options);
    options.event_log = &*event_log;
  }
  slot = scenario::run_experiment(options);
  if (eventlog_slot != nullptr) *eventlog_slot = event_log->to_jsonl();
}

}  // namespace

SweepOutcome run_sweep(const SweepSpec& spec, const EngineOptions& engine) {
  SweepOutcome outcome;
  outcome.cells = expand_cells(spec);
  outcome.jobs = expand_jobs(spec);
  outcome.results.resize(outcome.jobs.size());
  if (engine.eventlog) outcome.eventlogs.resize(outcome.jobs.size());

  std::size_t workers = engine.jobs;
  if (workers == 0) {
    workers = std::thread::hardware_concurrency();
    if (workers == 0) workers = 1;
  }
  if (workers > outcome.jobs.size()) workers = outcome.jobs.size();
  if (workers == 0) workers = 1;
  outcome.workers = workers;

  const auto start = std::chrono::steady_clock::now();
  auto eventlog_slot = [&](std::size_t i) {
    return engine.eventlog ? &outcome.eventlogs[i] : nullptr;
  };
  if (workers == 1) {
    for (std::size_t i = 0; i < outcome.jobs.size(); ++i) {
      run_one_job(outcome.jobs[i], engine, outcome.results[i],
                  eventlog_slot(i));
    }
  } else {
    std::atomic<std::size_t> next_job{0};
    std::atomic<bool> failed{false};
    std::mutex error_mutex;
    std::size_t error_job = 0;
    std::exception_ptr error;

    auto worker = [&] {
      while (true) {
        const std::size_t i = next_job.fetch_add(1, std::memory_order_relaxed);
        if (i >= outcome.jobs.size()) return;
        if (failed.load(std::memory_order_acquire)) return;
        try {
          run_one_job(outcome.jobs[i], engine, outcome.results[i],
                      eventlog_slot(i));
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mutex);
          // Keep the first failure in job order so reruns report stably.
          if (error == nullptr || i < error_job) {
            error = std::current_exception();
            error_job = i;
          }
          failed.store(true, std::memory_order_release);
        }
      }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t t = 0; t < workers; ++t) pool.emplace_back(worker);
    for (std::thread& thread : pool) thread.join();
    if (error != nullptr) std::rethrow_exception(error);
  }
  outcome.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  outcome.aggregates =
      aggregate_cells(outcome.cells, outcome.jobs, outcome.results);
  return outcome;
}

}  // namespace mgrid::sweep

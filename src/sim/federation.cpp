#include "sim/federation.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "obs/trace.h"
#include "util/logging.h"

namespace mgrid::sim {

namespace {

struct FederationMetrics {
  obs::Counter sent;
  obs::Counter delivered;
  obs::Counter cycles;

  explicit FederationMetrics(obs::MetricsRegistry& registry) {
    sent = registry.counter("mgrid_federation_interactions_sent_total", {},
                            "Interactions submitted by federates");
    delivered =
        registry.counter("mgrid_federation_interactions_delivered_total", {},
                         "Interactions delivered to subscriber inboxes");
    cycles = registry.counter("mgrid_federation_cycles_total", {},
                              "Completed federation time-grant cycles");
  }
};

FederationMetrics& federation_metrics() {
  return obs::instruments<FederationMetrics>();
}

/// Installs the federation grant time as the sim clock for the logger and
/// this thread's trace recorder for the duration of a run (restored on
/// scope exit, exception-safe). The clock is cleared on the same recorder
/// it was installed on even if the thread's override changes underneath.
class ScopedSimClock {
 public:
  explicit ScopedSimClock(const SimTime* grant)
      : tracer_(&obs::current_trace_recorder()) {
    util::Logger::instance().set_clock([grant] { return *grant; });
    tracer_->set_clock([grant] { return *grant; });
  }
  ~ScopedSimClock() {
    util::Logger::instance().set_clock(nullptr);
    tracer_->set_clock(nullptr);
  }
  ScopedSimClock(const ScopedSimClock&) = delete;
  ScopedSimClock& operator=(const ScopedSimClock&) = delete;

 private:
  obs::TraceRecorder* tracer_;
};

}  // namespace

FederateId Federation::join(std::shared_ptr<Federate> federate) {
  if (!federate) throw std::invalid_argument("Federation::join: null");
  if (federate->joined()) {
    throw std::logic_error("Federation::join: federate '" + federate->name() +
                           "' already joined a federation");
  }
  if (running_) {
    throw std::logic_error("Federation::join: federation is running");
  }
  const FederateId id{static_cast<FederateId::value_type>(federates_.size())};
  federate->id_ = id;
  federate->federation_ = this;
  FederateSlot slot{federate, {}, 0, {}, {}};
  slot.step_seconds = obs::current_registry().histogram(
      "mgrid_federation_step_seconds", 0.0, 0.1, 50,
      {{"federate", federate->name()}},
      "Wall-clock seconds per federate cycle (deliver + tick)");
  federates_.push_back(std::move(slot));
  federate->on_join();
  return id;
}

const Federate& Federation::federate(FederateId id) const {
  if (!id.valid() || id.value() >= federates_.size()) {
    throw std::out_of_range("Federation::federate: bad id");
  }
  return *federates_[id.value()].federate;
}

SimTime Federation::lbts() const noexcept {
  Duration min_lookahead = 0.0;
  bool first = true;
  for (const FederateSlot& slot : federates_) {
    const Duration la = slot.federate->lookahead();
    if (first || la < min_lookahead) {
      min_lookahead = la;
      first = false;
    }
  }
  return current_grant_ + min_lookahead;
}

void Federation::submit(Federate& sender, std::string topic, SimTime timestamp,
                        std::shared_ptr<const InteractionPayload> payload) {
  // Time regulation: a federate at grant t may not send below t + lookahead.
  const SimTime floor = current_grant_ + sender.lookahead();
  if (timestamp < floor) {
    throw std::logic_error(
        "Federate '" + sender.name() + "' violated lookahead: timestamp " +
        std::to_string(timestamp) + " < " + std::to_string(floor));
  }
  Interaction interaction;
  interaction.topic = std::move(topic);
  interaction.timestamp = timestamp;
  interaction.sender = sender.id();
  interaction.payload = std::move(payload);
  interaction.sequence = federates_[sender.id().value()].send_sequence++;
  staged_.push_back(std::move(interaction));
  ++stats_.interactions_sent;
  if (obs::enabled()) federation_metrics().sent.inc();
}

void Federation::subscribe(Federate& subscriber, std::string topic) {
  if (running_) {
    throw std::logic_error("Federation::subscribe: federation is running");
  }
  auto& subs = subscriptions_[topic];
  const FederateId id = subscriber.id();
  if (std::find(subs.begin(), subs.end(), id) == subs.end()) {
    subs.push_back(id);
    federates_[id.value()].topics.push_back(std::move(topic));
  }
}

void Federation::merge_staged() {
  if (staged_.empty()) return;
  pending_.insert(pending_.end(), std::make_move_iterator(staged_.begin()),
                  std::make_move_iterator(staged_.end()));
  staged_.clear();
  std::sort(pending_.begin(), pending_.end(), InteractionOrder{});
  stats_.max_pending = std::max(stats_.max_pending, pending_.size());
}

void Federation::prepare_inboxes(SimTime grant) {
  // pending_ is sorted; find the prefix due at this grant.
  auto due_end = std::find_if(
      pending_.begin(), pending_.end(),
      [grant](const Interaction& i) { return i.timestamp > grant; });
  for (auto it = pending_.begin(); it != due_end; ++it) {
    auto subs = subscriptions_.find(it->topic);
    if (subs == subscriptions_.end()) continue;
    for (FederateId id : subs->second) {
      federates_[id.value()].inbox.push_back(*it);
    }
  }
  pending_.erase(pending_.begin(), due_end);
}

void Federation::run_cycle_for(FederateSlot& slot, SimTime grant) {
  const bool instrumented = obs::enabled();
  obs::TraceRecorder& tracer = obs::current_trace_recorder();
  const bool tracing = tracer.enabled();
  const std::uint64_t trace_start = tracing ? tracer.now_us() : 0;
  const auto start = instrumented ? std::chrono::steady_clock::now()
                                  : std::chrono::steady_clock::time_point{};
  for (const Interaction& interaction : slot.inbox) {
    slot.federate->receive(interaction);
  }
  stats_.interactions_delivered += slot.inbox.size();
  if (instrumented) {
    federation_metrics().delivered.inc(slot.inbox.size());
  }
  slot.inbox.clear();
  slot.federate->on_time_grant(grant);
  if (instrumented) {
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    slot.step_seconds.observe(seconds);
  }
  if (tracing) {
    tracer.complete(slot.federate->name(), "federation", trace_start,
                    tracer.now_us() - trace_start);
  }
}

void Federation::run(SimTime t0, SimTime end, Duration step) {
  if (!(step > 0.0)) {
    throw std::invalid_argument("Federation::run: step must be > 0");
  }
  if (end < t0) throw std::invalid_argument("Federation::run: end < t0");
  const double cycles_exact = (end - t0) / step;
  const auto cycles = static_cast<std::uint64_t>(std::llround(cycles_exact));
  if (std::abs(cycles_exact - static_cast<double>(cycles)) > 1e-6) {
    throw std::invalid_argument(
        "Federation::run: (end - t0) must be an integer multiple of step");
  }
  running_ = true;
  // However the run ends — completion or a federate's exception — the
  // federation is left joinable and runnable, with no half-delivered inbox.
  struct EndRun {
    Federation& federation;
    ~EndRun() {
      federation.running_ = false;
      for (FederateSlot& slot : federation.federates_) slot.inbox.clear();
    }
  } end_run{*this};
  current_grant_ = t0;
  // While the run is in flight, log lines and trace events carry the
  // federation grant time as their sim timestamp.
  ScopedSimClock sim_clock(&current_grant_);
  util::log_debug("federation: run start, ", federates_.size(),
                  " federates, ", cycles, " cycles of ", step, " s");
  for (FederateSlot& slot : federates_) slot.federate->on_start(t0);
  merge_staged();

  for (std::uint64_t k = 1; k <= cycles; ++k) {
    const SimTime grant = t0 + static_cast<double>(k) * step;
    prepare_inboxes(grant);
    current_grant_ = grant;
    for (FederateSlot& slot : federates_) run_cycle_for(slot, grant);
    merge_staged();
  }

  for (FederateSlot& slot : federates_) slot.federate->on_stop(current_grant_);
  util::log_debug("federation: run complete, ",
                  stats_.interactions_delivered, " interactions delivered");
  stats_.cycles += cycles;
  if (obs::enabled()) federation_metrics().cycles.inc(cycles);
}

}  // namespace mgrid::sim

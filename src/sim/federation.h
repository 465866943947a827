// HLA-lite federation: topic-based publish/subscribe with conservative,
// deterministic time management.
//
// Replaces the DMSO RTI 1.3 the paper used. The execution is time-stepped:
// the federation grants every federate the same sequence of times
// t0 + k*step; before each grant it delivers all interactions with
// timestamp <= grant to every subscriber, in (timestamp, sender, sequence)
// order. Interactions sent during a cycle are staged and only become
// deliverable at the next cycle — combined with the per-federate lookahead
// check this implements a conservative LBTS: no federate ever observes a
// message "from the past". One thread runs every cycle, ticking the
// federates in join order.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "sim/federate.h"
#include "sim/interaction.h"
#include "util/types.h"

namespace mgrid::sim {

/// The only executor is sequential. The enumerator is kept because the
/// lu_ledger benchmark assigns ExperimentOptions::mode; nothing reads it.
enum class ExecutionMode { kSequential };

/// Aggregate statistics for a completed run.
struct FederationStats {
  std::uint64_t interactions_sent = 0;
  std::uint64_t interactions_delivered = 0;
  std::uint64_t cycles = 0;
  std::size_t max_pending = 0;
};

class Federation {
 public:
  Federation() = default;
  Federation(const Federation&) = delete;
  Federation& operator=(const Federation&) = delete;

  /// Joins a federate; calls its on_join(). The federation keeps the
  /// federate alive for its own lifetime.
  FederateId join(std::shared_ptr<Federate> federate);

  [[nodiscard]] std::size_t federate_count() const noexcept {
    return federates_.size();
  }
  [[nodiscard]] const Federate& federate(FederateId id) const;

  /// Lower Bound Time Stamp: smallest timestamp any federate could still
  /// send, i.e. current grant + min lookahead. Before the run starts this is
  /// t0 + min lookahead.
  [[nodiscard]] SimTime lbts() const noexcept;

  /// Runs the federation from t0 to end with fixed time step `step` (> 0).
  /// Grant times are t0 + k*step for k = 1..N where N = round((end-t0)/step);
  /// end must be (approximately) t0 + N*step.
  void run(SimTime t0, SimTime end, Duration step);

  [[nodiscard]] const FederationStats& stats() const noexcept {
    return stats_;
  }

 private:
  friend class Federate;

  struct FederateSlot {
    std::shared_ptr<Federate> federate;
    std::vector<std::string> topics;
    std::uint64_t send_sequence = 0;
    std::vector<Interaction> inbox;  // due interactions for this cycle
    /// Wall-clock seconds per cycle (deliver + tick), labelled by federate.
    obs::HistogramMetric step_seconds;
  };

  /// Called by Federate::send().
  void submit(Federate& sender, std::string topic, SimTime timestamp,
              std::shared_ptr<const InteractionPayload> payload);
  /// Called by Federate::subscribe().
  void subscribe(Federate& subscriber, std::string topic);

  /// Moves staged interactions into the pending queue (keeps total order).
  void merge_staged();
  /// Fills every subscriber's inbox with interactions due at `grant`.
  void prepare_inboxes(SimTime grant);
  /// Delivers one federate's inbox and ticks it.
  void run_cycle_for(FederateSlot& slot, SimTime grant);

  std::vector<FederateSlot> federates_;
  std::unordered_map<std::string, std::vector<FederateId>> subscriptions_;

  // Interactions ordered for delivery (sorted by InteractionOrder).
  std::vector<Interaction> pending_;
  // Interactions sent during the current cycle (unsorted).
  std::vector<Interaction> staged_;

  SimTime current_grant_ = 0.0;
  bool running_ = false;
  FederationStats stats_;
};

}  // namespace mgrid::sim

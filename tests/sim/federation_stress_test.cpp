// Federation stress / property tests: randomized topologies and message
// loads, asserting the invariants the experiments lean on —
// timestamp-ordered delivery, conservation (sent == delivered x fan-out for
// due messages), and bit-identical reruns.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <numeric>

#include "sim/federation.h"
#include "util/rng.h"

namespace mgrid::sim {
namespace {

struct StressPayload final : InteractionPayload {
  StressPayload(int producer, std::uint64_t n) : producer_id(producer), seq(n) {}
  int producer_id;
  std::uint64_t seq;
};

/// Publishes a random number of messages on random topics each grant, with
/// random (lookahead-respecting) timestamp offsets.
class ChattyFederate final : public Federate {
 public:
  ChattyFederate(int index, std::uint64_t seed, std::vector<std::string> topics,
                 std::vector<std::string> subscriptions, Duration lookahead)
      : Federate("chatty" + std::to_string(index), lookahead),
        index_(index),
        rng_(seed),
        topics_(std::move(topics)),
        subscriptions_(std::move(subscriptions)) {}

  void on_join() override {
    for (const std::string& topic : subscriptions_) subscribe(topic);
  }

  void receive(const Interaction& interaction) override {
    // Delivery-order invariant: (timestamp, sender, sequence) non-decreasing
    // within one grant batch, timestamps never exceed the next grant.
    if (last_grant_ > 0.0) {
      EXPECT_LE(interaction.timestamp, last_grant_ + 1.0);
    }
    received_log_.emplace_back(interaction.timestamp,
                               interaction.sender.value(),
                               interaction.sequence);
    ++received_count_;
  }

  void on_time_grant(SimTime t) override {
    last_grant_ = t;
    const int burst = static_cast<int>(rng_.uniform_int(0, 4));
    for (int i = 0; i < burst; ++i) {
      const std::string& topic = topics_[rng_.index(topics_.size())];
      const double offset = rng_.uniform(0.0, 3.0);
      send(topic, t + lookahead() + offset,
           make_payload<StressPayload>(index_, sent_count_));
      ++sent_count_;
    }
  }

  int index_;
  util::RngStream rng_;
  std::vector<std::string> topics_;
  std::vector<std::string> subscriptions_;
  std::uint64_t sent_count_ = 0;
  std::uint64_t received_count_ = 0;
  SimTime last_grant_ = 0.0;
  std::vector<std::tuple<double, unsigned, std::uint64_t>> received_log_;
};

struct Outcome {
  std::vector<std::vector<std::tuple<double, unsigned, std::uint64_t>>> logs;
  std::uint64_t total_sent = 0;
  std::uint64_t total_received = 0;
};

Outcome run_topology(std::uint64_t seed) {
  util::RngStream setup(seed);
  const int federate_count = static_cast<int>(setup.uniform_int(2, 7));
  const std::vector<std::string> all_topics{"alpha", "beta", "gamma"};

  Federation federation;
  std::vector<std::shared_ptr<ChattyFederate>> federates;
  for (int i = 0; i < federate_count; ++i) {
    // Random subscription subset (possibly empty) and random lookahead.
    std::vector<std::string> subs;
    for (const std::string& topic : all_topics) {
      if (setup.chance(0.6)) subs.push_back(topic);
    }
    const double lookahead = setup.chance(0.5) ? 0.0 : setup.uniform(0.5, 2.0);
    federates.push_back(std::make_shared<ChattyFederate>(
        i, seed * 1000 + static_cast<std::uint64_t>(i), all_topics, subs,
        lookahead));
    federation.join(federates.back());
  }
  federation.run(0.0, 40.0, 1.0);

  Outcome outcome;
  for (const auto& federate : federates) {
    outcome.logs.push_back(federate->received_log_);
    outcome.total_sent += federate->sent_count_;
    outcome.total_received += federate->received_count_;
  }
  EXPECT_EQ(outcome.total_sent, federation.stats().interactions_sent);
  EXPECT_EQ(outcome.total_received,
            federation.stats().interactions_delivered);
  return outcome;
}

class FederationStress : public testing::TestWithParam<std::uint64_t> {};

TEST_P(FederationStress, TimestampsNeverRegressPerReceiver) {
  // Conservative synchronisation: once a receiver has seen a message with
  // timestamp T, it never receives one with a smaller timestamp (no
  // message from the past). Full tuples are only ordered within a grant
  // batch, so the cross-batch invariant is on timestamps.
  const Outcome outcome = run_topology(GetParam());
  for (const auto& log : outcome.logs) {
    for (std::size_t i = 1; i < log.size(); ++i) {
      EXPECT_LE(std::get<0>(log[i - 1]), std::get<0>(log[i]))
          << "receiver saw time regress at " << i;
    }
  }
}

TEST_P(FederationStress, RerunningIsDeterministic) {
  const Outcome a = run_topology(GetParam());
  const Outcome b = run_topology(GetParam());
  EXPECT_EQ(a.total_sent, b.total_sent);
  EXPECT_EQ(a.logs, b.logs);
}

INSTANTIATE_TEST_SUITE_P(RandomTopologies, FederationStress,
                         testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 42u));

}  // namespace
}  // namespace mgrid::sim

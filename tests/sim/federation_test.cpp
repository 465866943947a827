#include "sim/federation.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

namespace mgrid::sim {
namespace {

struct IntPayload final : InteractionPayload {
  explicit IntPayload(int v) : value(v) {}
  int value;
};

/// Sends `value + k` on topic "numbers" at every grant k.
class Producer final : public Federate {
 public:
  Producer(std::string name, int base, Duration lookahead = 0.0)
      : Federate(std::move(name), lookahead), base_(base) {}

  void on_time_grant(SimTime t) override {
    send("numbers", t + lookahead(), make_payload<IntPayload>(base_++));
  }

 private:
  int base_;
};

/// Records everything it receives.
class Recorder final : public Federate {
 public:
  explicit Recorder(std::string topic = "numbers")
      : Federate("recorder"), topic_(std::move(topic)) {}

  void on_join() override { subscribe(topic_); }
  void on_start(SimTime t0) override { start_time_ = t0; }
  void receive(const Interaction& interaction) override {
    received_.push_back(interaction);
  }
  void on_time_grant(SimTime t) override { grants_.push_back(t); }
  void on_stop(SimTime t) override { stop_time_ = t; }

  std::string topic_;
  std::vector<Interaction> received_;
  std::vector<SimTime> grants_;
  SimTime start_time_ = -1.0;
  SimTime stop_time_ = -1.0;
};

TEST(Federation, JoinAssignsIdsAndCallsOnJoin) {
  Federation federation;
  auto recorder = std::make_shared<Recorder>();
  const FederateId id = federation.join(recorder);
  EXPECT_TRUE(id.valid());
  EXPECT_TRUE(recorder->joined());
  EXPECT_EQ(&federation.federate(id), recorder.get());
  EXPECT_EQ(federation.federate_count(), 1u);
}

TEST(Federation, RejectsNullAndDoubleJoin) {
  Federation federation;
  EXPECT_THROW((void)federation.join(nullptr), std::invalid_argument);
  auto recorder = std::make_shared<Recorder>();
  federation.join(recorder);
  Federation other;
  EXPECT_THROW((void)other.join(recorder), std::logic_error);
}

TEST(Federation, RunValidation) {
  Federation federation;
  federation.join(std::make_shared<Recorder>());
  EXPECT_THROW(federation.run(0.0, 10.0, 0.0), std::invalid_argument);
  EXPECT_THROW(federation.run(10.0, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(federation.run(0.0, 10.5, 1.0), std::invalid_argument);
}

TEST(Federation, LifecycleCallbacksFire) {
  Federation federation;
  auto recorder = std::make_shared<Recorder>();
  federation.join(recorder);
  federation.run(0.0, 5.0, 1.0);
  EXPECT_EQ(recorder->start_time_, 0.0);
  EXPECT_EQ(recorder->stop_time_, 5.0);
  EXPECT_EQ(recorder->grants_,
            (std::vector<SimTime>{1.0, 2.0, 3.0, 4.0, 5.0}));
}

TEST(Federation, DeliversPublishedInteractionsNextCycle) {
  Federation federation;
  auto producer = std::make_shared<Producer>("p", 100);
  auto recorder = std::make_shared<Recorder>();
  federation.join(producer);
  federation.join(recorder);
  federation.run(0.0, 3.0, 1.0);
  // Sent at grants 1, 2, 3 with ts == grant; the grant-3 send is still in
  // flight when the run ends.
  ASSERT_EQ(recorder->received_.size(), 2u);
  EXPECT_EQ(recorder->received_[0].payload_as<IntPayload>()->value, 100);
  EXPECT_EQ(recorder->received_[0].timestamp, 1.0);
  EXPECT_EQ(recorder->received_[1].payload_as<IntPayload>()->value, 101);
}

TEST(Federation, NonSubscribersDoNotReceive) {
  Federation federation;
  auto producer = std::make_shared<Producer>("p", 0);
  auto recorder = std::make_shared<Recorder>("other_topic");
  federation.join(producer);
  federation.join(recorder);
  federation.run(0.0, 3.0, 1.0);
  EXPECT_TRUE(recorder->received_.empty());
}

TEST(Federation, LookaheadViolationThrows) {
  // A federate with lookahead 2 must not send at its current grant.
  class Violator final : public Federate {
   public:
    Violator() : Federate("violator", /*lookahead=*/2.0) {}
    void on_time_grant(SimTime t) override {
      send("x", t + 1.0, make_payload<IntPayload>(0));  // < t + lookahead
    }
  };
  Federation federation;
  federation.join(std::make_shared<Violator>());
  EXPECT_THROW(federation.run(0.0, 2.0, 1.0), std::logic_error);
}

TEST(Federation, LookaheadDelaysDelivery) {
  Federation federation;
  auto producer = std::make_shared<Producer>("p", 0, /*lookahead=*/2.0);
  auto recorder = std::make_shared<Recorder>();
  federation.join(producer);
  federation.join(recorder);
  federation.run(0.0, 4.0, 1.0);
  // Sent at grant 1 with ts 3 -> delivered at grant 3; grant 2 send (ts 4)
  // delivered at grant 4.
  ASSERT_EQ(recorder->received_.size(), 2u);
  EXPECT_EQ(recorder->received_[0].timestamp, 3.0);
  EXPECT_EQ(recorder->received_[1].timestamp, 4.0);
}

TEST(Federation, DeliveryOrderIsTimestampSenderSequence) {
  // Two producers with the same topic; the recorder must see interactions
  // sorted by (timestamp, sender, sequence).
  Federation federation;
  auto p1 = std::make_shared<Producer>("p1", 0);
  auto p2 = std::make_shared<Producer>("p2", 1000);
  auto recorder = std::make_shared<Recorder>();
  federation.join(p1);  // lower FederateId
  federation.join(p2);
  federation.join(recorder);
  federation.run(0.0, 3.0, 1.0);
  ASSERT_GE(recorder->received_.size(), 4u);
  for (std::size_t i = 1; i < recorder->received_.size(); ++i) {
    const Interaction& a = recorder->received_[i - 1];
    const Interaction& b = recorder->received_[i];
    const bool ordered =
        a.timestamp < b.timestamp ||
        (a.timestamp == b.timestamp &&
         (a.sender < b.sender ||
          (a.sender == b.sender && a.sequence < b.sequence)));
    EXPECT_TRUE(ordered) << "at index " << i;
  }
}

TEST(Federation, StatsCountTraffic) {
  Federation federation;
  federation.join(std::make_shared<Producer>("p", 0));
  auto recorder = std::make_shared<Recorder>();
  federation.join(recorder);
  federation.run(0.0, 5.0, 1.0);
  EXPECT_EQ(federation.stats().cycles, 5u);
  EXPECT_EQ(federation.stats().interactions_sent, 5u);
  EXPECT_EQ(federation.stats().interactions_delivered, 4u);
}

TEST(Federation, LbtsIsGrantPlusMinLookahead) {
  Federation federation;
  federation.join(std::make_shared<Producer>("a", 0, 3.0));
  federation.join(std::make_shared<Producer>("b", 0, 1.0));
  EXPECT_EQ(federation.lbts(), 1.0);  // before run: grant 0 + min lookahead
}

TEST(Federation, RunPropagatesFederateExceptions) {
  // A federate that throws mid-run surfaces the exception to the run()
  // caller; federates after it in join order are not ticked for that grant.
  class Bomb final : public Federate {
   public:
    Bomb() : Federate("bomb") {}
    void on_time_grant(SimTime t) override {
      if (t >= 3.0) throw std::runtime_error("boom");
    }
  };
  Federation federation;
  auto recorder = std::make_shared<Recorder>();
  federation.join(std::make_shared<Bomb>());
  federation.join(recorder);
  EXPECT_THROW(federation.run(0.0, 10.0, 1.0), std::runtime_error);
  EXPECT_EQ(recorder->grants_, (std::vector<SimTime>{1.0, 2.0}));
}

TEST(Federation, ZeroCycleRunOnlyStartsAndStops) {
  Federation federation;
  auto recorder = std::make_shared<Recorder>();
  federation.join(recorder);
  federation.run(5.0, 5.0, 1.0);
  EXPECT_EQ(recorder->start_time_, 5.0);
  EXPECT_EQ(recorder->stop_time_, 5.0);
  EXPECT_TRUE(recorder->grants_.empty());
}

TEST(Federate, SendWithoutJoiningThrows) {
  class Loner final : public Federate {
   public:
    Loner() : Federate("loner") {}
    void poke() { send("x", 0.0, make_payload<IntPayload>(1)); }
  };
  Loner loner;
  EXPECT_THROW(loner.poke(), std::logic_error);
}

TEST(Federate, RejectsNegativeLookahead) {
  class Bad final : public Federate {
   public:
    Bad() : Federate("bad", -1.0) {}
  };
  EXPECT_THROW(Bad{}, std::invalid_argument);
}

}  // namespace
}  // namespace mgrid::sim

#include <gtest/gtest.h>

#include "net/channel.h"
#include "net/message.h"
#include "net/traffic.h"
#include "util/rng.h"

namespace mgrid::net {
namespace {

TEST(Channel, Validation) {
  EXPECT_THROW(ChannelModel(ChannelParams{-0.1, 0.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(ChannelModel(ChannelParams{1.1, 0.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(ChannelModel(ChannelParams{0.0, -1.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(ChannelModel(ChannelParams{0.0, 0.0, -1.0}),
               std::invalid_argument);
}

TEST(Channel, PerfectByDefault) {
  const ChannelModel channel;
  EXPECT_TRUE(channel.perfect());
  util::RngStream rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(channel.deliver(rng));
    EXPECT_EQ(channel.latency(rng), 0.0);
  }
}

TEST(Channel, LossRateApproximatesParameter) {
  const ChannelModel channel(ChannelParams{0.25, 0.0, 0.0});
  EXPECT_FALSE(channel.perfect());
  util::RngStream rng(2);
  int delivered = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) delivered += channel.deliver(rng) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(delivered) / n, 0.75, 0.02);
}

TEST(Channel, LatencyWithinConfiguredBand) {
  const ChannelModel channel(ChannelParams{0.0, 0.05, 0.1});
  util::RngStream rng(3);
  for (int i = 0; i < 1000; ++i) {
    const Duration latency = channel.latency(rng);
    EXPECT_GE(latency, 0.05);
    EXPECT_LE(latency, 0.15);
  }
}

TEST(Messages, WireSizesIncludeHeader) {
  LocationUpdate lu(MnId{1}, {0, 0}, {1, 0}, 5.0);
  EXPECT_EQ(lu.kind(), MessageKind::kLocationUpdate);
  EXPECT_EQ(lu.payload_bytes(), 45u);
  EXPECT_EQ(lu.wire_bytes(), 45u + kHeaderBytes);
  EXPECT_EQ(lu.battery_fraction, 1.0);  // unreported default

  DthUpdate dth(MnId{2}, 3.5);
  EXPECT_EQ(dth.kind(), MessageKind::kDthUpdate);
  EXPECT_EQ(dth.wire_bytes(), 12u + kHeaderBytes);

  KeepAlive ka;
  EXPECT_EQ(ka.wire_bytes(), 12u + kHeaderBytes);
  JobAssign ja;
  EXPECT_EQ(ja.wire_bytes(), 32u + kHeaderBytes);
  JobResult jr;
  EXPECT_EQ(jr.wire_bytes(), 17u + kHeaderBytes);
}

TEST(Traffic, RecordsTotalsPerDirection) {
  TrafficAccountant accountant;
  LocationUpdate lu(MnId{1}, {0, 0}, {0, 0}, 0.0);
  accountant.record(0.5, GatewayId{0}, Direction::kUplink, lu);
  accountant.record(0.6, GatewayId{0}, Direction::kUplink, lu);
  JobAssign job;
  accountant.record(0.7, GatewayId{1}, Direction::kDownlink, job);

  EXPECT_EQ(accountant.total(Direction::kUplink).messages, 2u);
  EXPECT_EQ(accountant.total(Direction::kUplink).bytes, 2 * lu.wire_bytes());
  EXPECT_EQ(accountant.total(Direction::kDownlink).messages, 1u);
  EXPECT_EQ(accountant.gateway_total(GatewayId{0}, Direction::kUplink).messages,
            2u);
  EXPECT_EQ(
      accountant.gateway_total(GatewayId{1}, Direction::kUplink).messages, 0u);
  EXPECT_EQ(
      accountant.gateway_total(GatewayId{1}, Direction::kDownlink).messages,
      1u);
}

TEST(Traffic, UplinkSeriesBucketsPerSecond) {
  TrafficAccountant accountant(1.0);
  LocationUpdate lu(MnId{1}, {0, 0}, {0, 0}, 0.0);
  accountant.record(0.1, GatewayId{0}, Direction::kUplink, lu);
  accountant.record(0.2, GatewayId{0}, Direction::kUplink, lu);
  accountant.record(2.5, GatewayId{0}, Direction::kUplink, lu);
  const auto sums = accountant.uplink_series().sums();
  ASSERT_EQ(sums.size(), 3u);
  EXPECT_EQ(sums[0], 2.0);
  EXPECT_EQ(sums[1], 0.0);
  EXPECT_EQ(sums[2], 1.0);
}

TEST(Traffic, TransmissionRateAccountsSuppressed) {
  TrafficAccountant accountant;
  EXPECT_EQ(accountant.transmission_rate(), 1.0);  // nothing recorded
  LocationUpdate lu(MnId{1}, {0, 0}, {0, 0}, 0.0);
  accountant.record(0.0, GatewayId{0}, Direction::kUplink, lu);
  accountant.record_suppressed(0.5);
  accountant.record_suppressed(0.6);
  accountant.record_suppressed(0.7);
  EXPECT_EQ(accountant.suppressed(), 3u);
  EXPECT_NEAR(accountant.transmission_rate(), 0.25, 1e-12);
}

}  // namespace
}  // namespace mgrid::net

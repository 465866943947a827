// Message taxonomy of the mobile grid.
//
// Everything exchanged between mobile nodes, gateways, the ADF and the grid
// broker is a typed message with an on-air size, so the benches can report
// traffic in bytes as well as in location-update counts. Messages derive
// from sim::InteractionPayload and flow through the HLA-lite federation.
#pragma once

#include <cstddef>
#include <string_view>

#include "geo/vec2.h"
#include "sim/interaction.h"
#include "util/types.h"

namespace mgrid::net {

/// Federation topics (interaction class names in HLA terms).
inline constexpr std::string_view kTopicLocationUpdate = "mn.location_update";
inline constexpr std::string_view kTopicFilteredUpdate = "adf.location_update";
inline constexpr std::string_view kTopicJobAssign = "broker.job_assign";
inline constexpr std::string_view kTopicJobResult = "mn.job_result";
inline constexpr std::string_view kTopicDthUpdate = "adf.dth_update";

/// Fixed per-message envelope cost on the wireless link (MAC + IP + UDP, a
/// representative 802.11/cellular figure).
inline constexpr std::size_t kHeaderBytes = 40;

enum class MessageKind {
  kLocationUpdate,
  kKeepAlive,
  kJobAssign,
  kJobResult,
  kDthUpdate,
};

struct Message : sim::InteractionPayload {
  [[nodiscard]] virtual MessageKind kind() const noexcept = 0;
  /// Payload size excluding the envelope.
  [[nodiscard]] virtual std::size_t payload_bytes() const noexcept = 0;
  [[nodiscard]] std::size_t wire_bytes() const noexcept {
    return payload_bytes() + kHeaderBytes;
  }
};

/// A location update (LU): the MN's sampled position and velocity.
struct LocationUpdate final : Message {
  MnId mn;
  geo::Vec2 position;
  geo::Vec2 velocity;
  SimTime sampled_at = 0.0;
  /// Gateway that relayed the LU (set by the gateway layer).
  GatewayId via_gateway;
  /// Remaining battery fraction the device piggybacks on every LU
  /// (resource brokers schedule around drained devices).
  double battery_fraction = 1.0;

  LocationUpdate() = default;
  LocationUpdate(MnId mn_id, geo::Vec2 pos, geo::Vec2 vel, SimTime t)
      : mn(mn_id), position(pos), velocity(vel), sampled_at(t) {}

  [[nodiscard]] MessageKind kind() const noexcept override {
    return MessageKind::kLocationUpdate;
  }
  [[nodiscard]] std::size_t payload_bytes() const noexcept override {
    // id(4) + position(16) + velocity(16) + timestamp(8) + battery(1)
    return 45;
  }
};

/// Periodic liveness beacon (sent when a node has nothing to report; an
/// optional extension, off in the paper-reproduction experiments).
struct KeepAlive final : Message {
  MnId mn;
  SimTime sent_at = 0.0;

  [[nodiscard]] MessageKind kind() const noexcept override {
    return MessageKind::kKeepAlive;
  }
  [[nodiscard]] std::size_t payload_bytes() const noexcept override {
    return 12;  // id(4) + timestamp(8)
  }
};

/// Grid job dispatched by the broker to a selected MN.
struct JobAssign final : Message {
  JobId job;
  MnId assignee;
  /// Abstract work units (translated to compute seconds by the device).
  double work_units = 0.0;
  /// Where the job's data lives (locality metric: the broker picked this
  /// node because it believed it was near the site).
  geo::Vec2 site;

  [[nodiscard]] MessageKind kind() const noexcept override {
    return MessageKind::kJobAssign;
  }
  [[nodiscard]] std::size_t payload_bytes() const noexcept override {
    return 32;  // job(4) + assignee(4) + work(8) + site(16)
  }
};

/// ADF -> MN downlink: the node's new distance threshold (device-side
/// filtering extension).
struct DthUpdate final : Message {
  MnId mn;
  double dth = 0.0;

  DthUpdate() = default;
  DthUpdate(MnId mn_id, double threshold) : mn(mn_id), dth(threshold) {}

  [[nodiscard]] MessageKind kind() const noexcept override {
    return MessageKind::kDthUpdate;
  }
  [[nodiscard]] std::size_t payload_bytes() const noexcept override {
    return 12;  // id(4) + dth(8)
  }
};

/// Job completion report from an MN.
struct JobResult final : Message {
  JobId job;
  MnId worker;
  bool success = false;
  SimTime completed_at = 0.0;

  [[nodiscard]] MessageKind kind() const noexcept override {
    return MessageKind::kJobResult;
  }
  [[nodiscard]] std::size_t payload_bytes() const noexcept override {
    return 17;  // job(4) + worker(4) + success(1) + timestamp(8)
  }
};

}  // namespace mgrid::net

#include "cluster/lu_server.h"

#include <stdexcept>
#include <variant>

#include "obs/span.h"

namespace mgrid::cluster {

LuServer::LuServer(LuServerOptions options, LuServerHooks hooks)
    : options_(std::move(options)),
      hooks_(std::move(hooks)),
      connections_("LuServer", [this](int fd) { serve_connection(fd); }) {}

LuServer::~LuServer() { stop(); }

void LuServer::start() {
  if (hooks_.directory == nullptr || hooks_.pipeline == nullptr) {
    throw std::runtime_error("LuServer: directory and pipeline are required");
  }
  connections_.start(options_.bind_address, options_.port);
}

void LuServer::stop() {
  // A subscriber's thread waits on the hub, not on its socket: stopping the
  // hub is what ends it.
  if (hooks_.replication != nullptr && running()) hooks_.replication->stop();
  connections_.stop();
}

LuServerStats LuServer::stats() const {
  LuServerStats s;
  s.connections = connections_.accepted();
  s.rejected_busy = connections_.rejected_busy();
  s.lus = lus_.load(std::memory_order_relaxed);
  s.lus_rejected = lus_rejected_.load(std::memory_order_relaxed);
  s.ticks = ticks_.load(std::memory_order_relaxed);
  s.lookups = lookups_.load(std::memory_order_relaxed);
  s.region_queries = region_queries_.load(std::memory_order_relaxed);
  s.nearest_queries = nearest_queries_.load(std::memory_order_relaxed);
  s.neighbors_sent = neighbors_sent_.load(std::memory_order_relaxed);
  s.subscribes = subscribes_.load(std::memory_order_relaxed);
  s.bad_frames = bad_frames_.load(std::memory_order_relaxed);
  return s;
}

void LuServer::serve_connection(int fd) {
  // Blocks in recv() with no timeout: stop() shuts the socket down.
  FrameConn conn(fd, 0.0, /*owns_fd=*/false);
  wire::Message msg;
  while (conn.recv_message(msg)) {
    if (!dispatch(conn, msg)) return;
  }
  if (conn.last_error().rfind("bad frame", 0) == 0) {
    bad_frames_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool LuServer::dispatch(FrameConn& conn, const wire::Message& msg) {
  if (const auto* lu = std::get_if<wire::LuMsg>(&msg)) {
    lus_.fetch_add(1, std::memory_order_relaxed);
    if (!hooks_.pipeline->submit(*lu)) {
      lus_rejected_.fetch_add(1, std::memory_order_relaxed);
    }
    return true;
  }
  if (const auto* traced = std::get_if<wire::TracedLuMsg>(&msg)) {
    lus_.fetch_add(1, std::memory_order_relaxed);
    serve::IngestTraceContext trace;
    trace.trace_id = traced->trace.trace_id;
    trace.origin_us = traced->trace.origin_us;
    trace.send_us = traced->trace.send_us;
    // The network stage ends here: first point the shard owns the frame.
    trace.recv_us = obs::span_now_us();
    if (!hooks_.pipeline->submit_traced(traced->lu, trace)) {
      lus_rejected_.fetch_add(1, std::memory_order_relaxed);
    }
    return true;
  }
  if (const auto* tick = std::get_if<wire::TickMsg>(&msg)) {
    {
      // The single-process driver's barrier sequence, verbatim: flush (all
      // accepted LUs applied and WAL'd), tick record, estimate advance —
      // then replication, which snapshots/streams this exact state.
      const std::lock_guard<std::mutex> barrier(barrier_mutex_);
      hooks_.pipeline->flush();
      if (hooks_.wal != nullptr) hooks_.wal->append_tick(tick->t, tick->tick);
      hooks_.directory->advance_estimates(tick->t);
      if (hooks_.replication != nullptr) {
        hooks_.replication->on_tick(
            tick->t, tick->tick,
            hooks_.wal != nullptr ? hooks_.wal->records_appended() : 0);
      }
      if (hooks_.on_tick) hooks_.on_tick(tick->t, tick->tick);
    }
    ticks_.fetch_add(1, std::memory_order_relaxed);
    std::vector<std::uint8_t> reply;
    wire::encode(reply, wire::AckMsg{0, wire::AckStatus::kOk, tick->t});
    return conn.send(reply);
  }
  if (const auto* lookup = std::get_if<wire::LookupMsg>(&msg)) {
    lookups_.fetch_add(1, std::memory_order_relaxed);
    wire::LookupReplyMsg out;
    out.mn = lookup->mn;
    out.t = lookup->t;
    const auto entry = hooks_.directory->lookup(lookup->mn);
    if (entry.has_value()) {
      out.found = true;
      if (lookup->t > entry->t) {
        const auto belief =
            hooks_.directory->belief_at(lookup->mn, lookup->t);
        out.estimated = true;
        out.x = belief.has_value() ? belief->x : entry->position.x;
        out.y = belief.has_value() ? belief->y : entry->position.y;
      } else {
        out.estimated = entry->estimated;
        out.t = entry->t;
        out.x = entry->position.x;
        out.y = entry->position.y;
      }
    }
    std::vector<std::uint8_t> reply;
    wire::encode(reply, out);
    return conn.send(reply);
  }
  if (const auto* region = std::get_if<wire::RegionQueryMsg>(&msg)) {
    region_queries_.fetch_add(1, std::memory_order_relaxed);
    const std::vector<serve::Neighbor> hits = hooks_.directory->query_region(
        {region->x, region->y}, region->radius, region->max_results);
    std::vector<std::uint8_t> reply;
    for (const serve::Neighbor& hit : hits) {
      wire::encode(reply, wire::NeighborMsg{hit.mn, hit.distance,
                                            hit.position.x, hit.position.y});
    }
    wire::encode(reply, wire::QueryDoneMsg{
                            static_cast<std::uint32_t>(hits.size()), 0.0});
    neighbors_sent_.fetch_add(hits.size(), std::memory_order_relaxed);
    return conn.send(reply);
  }
  if (const auto* nearest = std::get_if<wire::NearestQueryMsg>(&msg)) {
    nearest_queries_.fetch_add(1, std::memory_order_relaxed);
    const std::vector<serve::Neighbor> hits =
        hooks_.directory->k_nearest({nearest->x, nearest->y}, nearest->k);
    std::vector<std::uint8_t> reply;
    for (const serve::Neighbor& hit : hits) {
      wire::encode(reply, wire::NeighborMsg{hit.mn, hit.distance,
                                            hit.position.x, hit.position.y});
    }
    wire::encode(reply, wire::QueryDoneMsg{
                            static_cast<std::uint32_t>(hits.size()), 0.0});
    neighbors_sent_.fetch_add(hits.size(), std::memory_order_relaxed);
    return conn.send(reply);
  }
  if (std::holds_alternative<wire::SubscribeMsg>(msg)) {
    if (hooks_.replication == nullptr) return false;  // not a primary
    subscribes_.fetch_add(1, std::memory_order_relaxed);
    // The follower must not pipeline past its subscribe: its stream owns
    // this socket from here until it leaves.
    hooks_.replication->stream(conn.fd());
    return false;
  }
  // Acks, replies and snapshot frames are server -> client only.
  bad_frames_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

}  // namespace mgrid::cluster

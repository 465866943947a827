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

namespace {

/// Appends `msg` to `run` when it is an LU frame; false for any other frame.
/// A traced LU's receive time is stamped once per run, on its first traced
/// LU: every frame of a run was already in the receive buffer then.
bool gather_lu(const wire::Message& msg, std::vector<serve::IngestLu>& run,
               std::uint64_t& recv_us) {
  if (const auto* lu = std::get_if<wire::LuMsg>(&msg)) {
    run.push_back({*lu, {}});
    return true;
  }
  if (const auto* traced = std::get_if<wire::TracedLuMsg>(&msg)) {
    // The network stage ends here: first point the shard owns the frame.
    if (recv_us == 0) recv_us = obs::span_now_us();
    serve::IngestLu& item = run.emplace_back();
    item.msg = traced->lu;
    item.trace.trace_id = traced->trace.trace_id;
    item.trace.origin_us = traced->trace.origin_us;
    item.trace.send_us = traced->trace.send_us;
    item.trace.recv_us = recv_us;
    return true;
  }
  return false;
}

}  // namespace

void LuServer::serve_connection(int fd) {
  // Blocks in recv() with no timeout: stop() shuts the socket down.
  FrameConn conn(fd, 0.0, /*owns_fd=*/false);
  std::vector<serve::IngestLu> run;
  wire::Message msg;
  while (conn.recv_message(msg)) {
    // `msg` is the first frame of a receive; the LU frames behind it that
    // are already buffered join its run.
    bool have_frame = true;
    std::uint64_t recv_us = 0;
    while (have_frame && gather_lu(msg, run, recv_us)) {
      have_frame = conn.poll_message(msg);
    }
    submit_run(run);
    if (have_frame && !dispatch(conn, msg)) return;
  }
  if (conn.last_error().rfind("bad frame", 0) == 0) {
    bad_frames_.fetch_add(1, std::memory_order_relaxed);
  }
}

void LuServer::submit_run(std::vector<serve::IngestLu>& run) {
  if (run.empty()) return;
  const std::size_t accepted = hooks_.pipeline->submit_batch(run);
  lus_.fetch_add(run.size(), std::memory_order_relaxed);
  if (accepted < run.size()) {
    lus_rejected_.fetch_add(run.size() - accepted, std::memory_order_relaxed);
  }
  run.clear();
}

bool LuServer::dispatch(FrameConn& conn, const wire::Message& msg) {
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

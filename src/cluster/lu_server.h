// TCP front door of one shard node: accepts mgrid-lu-v1 connections and
// feeds the serving stack.
//
// Built on the transport core like the obs/http admin server: each
// accepted connection gets its own thread (transport/tcp.h), so an idle
// peer never delays the router. Where an HTTP connection is one request, an
// LU connection is a long-lived stream: its thread blocks in recv() until
// the peer disconnects, decoding frames from a buffered reader and
// dispatching per type:
//
//   kLu /          gathered into a run: the LU frames already whole in the
//   kTracedLu      receive buffer, in arrival order, up to the first other
//                  frame or the buffer's end. The run goes to
//                  pipeline->submit_batch() as one unit before the
//                  connection reads the socket again or dispatches the
//                  frame that ended it. No per-LU ack; queue-full rejects
//                  are counted and visible in /statusz, matching the ADF
//                  paper's fire-and-forget update model. A kTracedLu keeps
//                  its propagated trace context, stamped with the run's
//                  receive time, which closes the network stage of the
//                  cluster span
//   kTick          the cluster's barrier: flush the pipeline, append the
//                  WAL tick record, advance_estimates(t), notify the
//                  replication hub — the exact sequence the single-process
//                  driver runs, which is what keeps a shard's state
//                  bit-identical to its slice of a single-process run —
//                  then reply kAck
//   kLookup        directory lookup -> kLookupReply
//   kRegionQuery / directory spatial query -> kNeighbor stream + kQueryDone
//   kNearestQuery
//   kSubscribe     register the follower with the ReplicationHub, reply
//                  kAck, then stream its queue on this connection's thread
//                  until the follower leaves
//
// A malformed frame closes the connection (counted), never the server.
// stop() is graceful: the listener unblocks, live connections are shut
// down, every thread joins.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/replication.h"
#include "serve/directory.h"
#include "serve/ingest.h"
#include "serve/wal.h"
#include "serve/wire.h"
#include "transport/tcp.h"

namespace mgrid::cluster {

struct LuServerOptions {
  /// Loopback by default, like the admin plane.
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral; read the bound port via port().
  std::uint16_t port = 0;
};

struct LuServerHooks {
  serve::ShardedDirectory* directory = nullptr;  ///< Required.
  serve::IngestPipeline* pipeline = nullptr;     ///< Required.
  serve::WalWriter* wal = nullptr;               ///< Optional.
  /// Optional. Its subscriber streams run on this server's connection
  /// threads, so stop() stops the hub too.
  ReplicationHub* replication = nullptr;
  /// Fired after each tick barrier completes (snapshotting drivers hook
  /// here). Runs on the connection's thread.
  std::function<void(double t, std::uint64_t tick)> on_tick;
};

/// Monotonic counters (snapshot copy).
struct LuServerStats {
  std::uint64_t connections = 0;       ///< Accepted.
  std::uint64_t rejected_busy = 0;     ///< Closed at the connection cap.
  std::uint64_t lus = 0;               ///< kLu/kTracedLu frames received.
  std::uint64_t lus_rejected = 0;      ///< submit() refused (queue full).
  std::uint64_t ticks = 0;             ///< Barriers completed.
  std::uint64_t lookups = 0;
  std::uint64_t region_queries = 0;
  std::uint64_t nearest_queries = 0;
  std::uint64_t neighbors_sent = 0;    ///< kNeighbor frames written.
  std::uint64_t subscribes = 0;        ///< Followers streamed to.
  std::uint64_t bad_frames = 0;        ///< Connections dropped on decode.
};

class LuServer {
 public:
  LuServer(LuServerOptions options, LuServerHooks hooks);
  ~LuServer();  ///< Implies stop().

  LuServer(const LuServer&) = delete;
  LuServer& operator=(const LuServer&) = delete;

  /// Binds, listens, starts the accept thread. Throws std::runtime_error
  /// on socket failure or missing required hooks.
  void start();
  /// Shutdown; idempotent. Stops the replication hub, then drops live
  /// connections and joins their threads.
  void stop();

  [[nodiscard]] bool running() const noexcept {
    return connections_.running();
  }
  /// Bound port (resolves port 0 after start()); 0 before start().
  [[nodiscard]] std::uint16_t port() const noexcept {
    return connections_.port();
  }
  [[nodiscard]] LuServerStats stats() const;

 private:
  void serve_connection(int fd);
  /// Submits a run of LUs gathered from one receive buffer and clears it.
  void submit_run(std::vector<serve::IngestLu>& run);
  /// Dispatches one frame other than an LU; false = stop serving this
  /// connection.
  bool dispatch(FrameConn& conn, const wire::Message& msg);

  LuServerOptions options_;
  LuServerHooks hooks_;

  /// Serializes tick barriers: only one connection may run the
  /// flush/advance sequence at a time (the router sends one tick at a time,
  /// but a misbehaving second client must not corrupt the barrier).
  std::mutex barrier_mutex_;

  std::atomic<std::uint64_t> lus_{0};
  std::atomic<std::uint64_t> lus_rejected_{0};
  std::atomic<std::uint64_t> ticks_{0};
  std::atomic<std::uint64_t> lookups_{0};
  std::atomic<std::uint64_t> region_queries_{0};
  std::atomic<std::uint64_t> nearest_queries_{0};
  std::atomic<std::uint64_t> neighbors_sent_{0};
  std::atomic<std::uint64_t> subscribes_{0};
  std::atomic<std::uint64_t> bad_frames_{0};

  /// Last: its threads use everything above.
  transport::ConnectionServer connections_;
};

}  // namespace mgrid::cluster

#include "cluster/replication.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>

#include "serve/snapshot.h"
#include "transport/tcp.h"

namespace mgrid::cluster {

namespace {

/// Bounds one write to a subscriber: a peer that stops reading is dropped
/// after this long instead of pinning its connection thread.
constexpr double kSendTimeoutSeconds = 5.0;
/// Largest slice of a queue written per send.
constexpr std::size_t kWriteSliceBytes = 256u << 10;

}  // namespace

ReplicationHub::ReplicationHub(const serve::ShardedDirectory& directory,
                               ReplicationOptions options)
    : directory_(directory), options_(options) {
  options_.chunk_bytes =
      std::clamp<std::size_t>(options_.chunk_bytes, 1, wire::kMaxChunkBytes);
  lag_gauge_ = obs::current_registry().gauge(
      "mgrid_replication_subscriber_lag_records", {},
      "Records enqueued to replication subscribers and not yet fully "
      "flushed to their sockets");
}

ReplicationHub::~ReplicationHub() { stop(); }

void ReplicationHub::on_lu(const wire::LuMsg& msg) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_ || subscribers_.empty()) return;
  wire::encode(live_, msg);
  ++live_lus_;
}

void ReplicationHub::on_lu(const wire::TracedLuMsg& msg) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_ || subscribers_.empty()) return;
  wire::encode(live_, msg);
  ++live_lus_;
}

void ReplicationHub::on_tick(double t, std::uint64_t tick,
                             std::uint64_t wal_records) {
  std::vector<std::uint8_t> tick_frame;
  wire::encode(tick_frame, wire::TickMsg{t, tick});

  bool notify = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;

    // Pending subscribers bootstrap from one snapshot taken at this
    // (quiescent) barrier. It already reflects this tick's
    // advance_estimates, so their stream starts with the *next* barrier's
    // traffic.
    std::vector<std::uint8_t> image;
    bool have_image = false;
    bool image_ok = false;
    for (auto& sub : subscribers_) {
      if (sub->dead) continue;
      if (sub->bootstrapped) {
        enqueue_locked(*sub, live_.data(), live_.size(), live_lus_);
        enqueue_locked(*sub, tick_frame.data(), tick_frame.size(), 1);
        lus_streamed_ += live_lus_;
        notify = true;
        continue;
      }
      if (!have_image) {
        image_ok = serve::encode_snapshot(directory_, wal_records, t, image);
        have_image = true;
      }
      if (!image_ok) {
        ++snapshot_failures_;
        sub->dead = true;
        notify = true;
        continue;
      }
      std::vector<std::uint8_t> frame;
      for (std::size_t pos = 0; pos < image.size();
           pos += options_.chunk_bytes) {
        wire::SnapshotChunkMsg chunk;
        const std::size_t len =
            std::min(options_.chunk_bytes, image.size() - pos);
        chunk.bytes.assign(image.begin() + static_cast<std::ptrdiff_t>(pos),
                           image.begin() +
                               static_cast<std::ptrdiff_t>(pos + len));
        frame.clear();
        wire::encode(frame, chunk);
        enqueue_locked(*sub, frame.data(), frame.size(), 1);
      }
      frame.clear();
      wire::encode(frame, wire::SnapshotDoneMsg{image.size(), wal_records});
      enqueue_locked(*sub, frame.data(), frame.size(), 1);
      sub->bootstrapped = true;
      ++attached_total_;
      notify = true;
    }
    live_.clear();
    live_lus_ = 0;
    refresh_lag_locked();
  }
  if (notify) work_cv_.notify_all();
}

void ReplicationHub::stream(int fd) {
  Subscriber* sub = nullptr;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    subscribers_.push_back(std::make_unique<Subscriber>());
    sub = subscribers_.back().get();
    sub->fd = fd;
  }
  transport::set_io_timeout(fd, kSendTimeoutSeconds);
  // Registered before the ack: once the follower reads it, the next
  // barrier bootstraps it.
  std::vector<std::uint8_t> out;
  wire::encode(out, wire::AckMsg{0, wire::AckStatus::kOk, 0.0});
  bool ok = transport::send_all(fd, out.data(), out.size());

  std::unique_lock<std::mutex> lock(mutex_);
  while (ok) {
    work_cv_.wait(lock, [&] {
      return stopping_ || sub->dead || !sub->outgoing.empty();
    });
    if (stopping_ || sub->dead) break;
    const std::size_t n =
        std::min<std::size_t>(sub->outgoing.size(), kWriteSliceBytes);
    out.assign(sub->outgoing.begin(),
               sub->outgoing.begin() + static_cast<std::ptrdiff_t>(n));
    sub->outgoing.erase(
        sub->outgoing.begin(),
        sub->outgoing.begin() + static_cast<std::ptrdiff_t>(n));
    sub->sending = true;
    lock.unlock();
    // Socket I/O happens outside the hub mutex so on_lu() (which runs under
    // an ingest source-queue lock) never waits on a slow follower.
    ok = transport::send_all(fd, out.data(), out.size());
    lock.lock();
    sub->sending = false;
    if (ok) bytes_streamed_.fetch_add(n, std::memory_order_relaxed);
    refresh_lag_locked();
    drained_cv_.notify_all();
  }
  ++detached_total_;
  subscribers_.erase(
      std::find_if(subscribers_.begin(), subscribers_.end(),
                   [sub](const auto& entry) { return entry.get() == sub; }));
  refresh_lag_locked();
  drained_cv_.notify_all();
}

bool ReplicationHub::drain(double timeout_seconds) {
  std::unique_lock<std::mutex> lock(mutex_);
  return drained_cv_.wait_for(
      lock, std::chrono::duration<double>(timeout_seconds), [this] {
        if (stopping_) return true;
        for (const auto& sub : subscribers_) {
          if (!sub->dead && (sub->sending || !sub->outgoing.empty())) {
            return false;
          }
        }
        return true;
      });
}

void ReplicationHub::stop() {
  std::unique_lock<std::mutex> lock(mutex_);
  stopping_ = true;
  // Wakes stream() calls blocked in send() as well as those waiting here.
  for (auto& sub : subscribers_) (void)::shutdown(sub->fd, SHUT_RDWR);
  work_cv_.notify_all();
  drained_cv_.wait(lock, [this] { return subscribers_.empty(); });
}

ReplicationHub::Stats ReplicationHub::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Stats s;
  for (const auto& sub : subscribers_) {
    if (sub->dead) continue;
    if (!sub->bootstrapped) {
      ++s.pending;
      continue;
    }
    ++s.subscribers;
    if (!sub->outgoing.empty()) {
      s.subscriber_lag_records += sub->buffered_records;
    }
  }
  s.attached_total = attached_total_;
  s.detached_total = detached_total_;
  s.dropped_slow = dropped_slow_;
  s.lus_streamed = lus_streamed_;
  s.bytes_streamed = bytes_streamed_.load(std::memory_order_relaxed);
  s.snapshot_failures = snapshot_failures_;
  return s;
}

void ReplicationHub::enqueue_locked(Subscriber& sub, const std::uint8_t* data,
                                    std::size_t size, std::uint64_t records) {
  if (sub.dead) return;
  sub.outgoing.insert(sub.outgoing.end(), data, data + size);
  sub.buffered_records += records;
  if (sub.outgoing.size() > options_.max_buffered_bytes) {
    // A consumer this far behind is dead or wedged; protect the primary's
    // memory instead of the replica's continuity.
    sub.dead = true;
    sub.outgoing.clear();
    sub.buffered_records = 0;
    ::shutdown(sub.fd, SHUT_RDWR);
    ++dropped_slow_;
    work_cv_.notify_all();
  }
}

void ReplicationHub::refresh_lag_locked() {
  std::uint64_t lag = 0;
  for (const auto& sub : subscribers_) {
    if (sub->dead) continue;
    // A fully drained queue settles to exactly 0; partial drains keep the
    // enqueued count (the gauge answers "how far behind", not "how many
    // bytes are in flight").
    if (sub->outgoing.empty()) sub->buffered_records = 0;
    lag += sub->buffered_records;
  }
  subscriber_lag_records_ = lag;
  if (obs::enabled()) lag_gauge_.set(static_cast<double>(lag));
}

Follower::Follower(serve::ShardedDirectory& directory, FollowerOptions options)
    : directory_(directory), options_(options) {
  if (options_.spans != nullptr) {
    options_.spans->register_sli("follower_apply", 0.0, 0.1, 100);
  }
}

Follower::~Follower() {
  if (fd_ >= 0) ::close(fd_);
}

bool Follower::connect(std::string* error) {
  const auto fail = [&](std::string reason) {
    error_ = std::move(reason);
    if (error != nullptr) *error = error_;
    return false;
  };
  std::string local_error;
  const int fd = transport::connect_tcp(options_.host, options_.port,
                                        options_.connect_timeout_seconds,
                                        local_error);
  if (fd < 0) return fail(local_error);
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
  conn_ = FrameConn(fd_, options_.connect_timeout_seconds, /*owns_fd=*/false);
  std::vector<std::uint8_t> frame;
  wire::encode(frame, wire::SubscribeMsg{0, 0});
  if (!conn_.send(frame)) {
    return fail("subscribe send failed: " + conn_.last_error());
  }
  wire::Message reply;
  if (!conn_.recv_message(reply)) {
    return fail("subscribe ack: " + conn_.last_error());
  }
  const auto* ack = std::get_if<wire::AckMsg>(&reply);
  if (ack == nullptr || ack->status != wire::AckStatus::kOk) {
    return fail("subscribe refused by the primary");
  }
  // The stream is idle between barriers: run() blocks until data, the
  // primary leaving, or stop().
  transport::set_io_timeout(fd_, 0.0);
  return true;
}

bool Follower::run() {
  std::vector<std::uint8_t> snapshot_bytes;
  for (;;) {
    if (stop_.load(std::memory_order_acquire)) return true;
    wire::Message msg;
    if (!conn_.recv_message(msg)) {
      error_ = conn_.last_error();
      return error_ == "peer closed";
    }
    if (const auto* chunk = std::get_if<wire::SnapshotChunkMsg>(&msg)) {
      snapshot_bytes.insert(snapshot_bytes.end(), chunk->bytes.begin(),
                            chunk->bytes.end());
      continue;
    }
    if (const auto* done = std::get_if<wire::SnapshotDoneMsg>(&msg)) {
      if (done->total_bytes != snapshot_bytes.size()) {
        error_ = "snapshot transfer size mismatch";
        return false;
      }
      serve::SnapshotData snapshot;
      if (!serve::decode_snapshot(snapshot_bytes.data(),
                                  snapshot_bytes.size(), snapshot)) {
        error_ = "snapshot image failed validation";
        return false;
      }
      const std::size_t restored = serve::apply_snapshot(directory_, snapshot);
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      stats_.snapshot_loaded = true;
      stats_.snapshot_bytes = snapshot_bytes.size();
      stats_.snapshot_wal_records = done->wal_records;
      stats_.tracks_restored = restored;
      snapshot_bytes.clear();
      snapshot_bytes.shrink_to_fit();
      continue;
    }
    if (const auto* lu = std::get_if<wire::LuMsg>(&msg)) {
      const bool applied = directory_.update(lu->mn, lu->t, {lu->x, lu->y},
                                             {lu->vx, lu->vy});
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      if (applied) {
        ++stats_.lus_applied;
      } else {
        ++stats_.lus_rejected;
      }
      continue;
    }
    if (const auto* traced = std::get_if<wire::TracedLuMsg>(&msg)) {
      // The final hop of the cluster trace: a one-stage span under the
      // propagated id covering the serial apply on this replica.
      const wire::LuMsg& lu = traced->lu;
      const std::uint64_t apply_start_us =
          options_.spans != nullptr ? obs::span_now_us() : 0;
      const bool applied = directory_.update(lu.mn, lu.t, {lu.x, lu.y},
                                             {lu.vx, lu.vy});
      if (options_.spans != nullptr) {
        obs::LuSpan span;
        span.trace_id = traced->trace.trace_id;
        span.mn = lu.mn;
        span.seq = lu.seq;
        span.wall_us = obs::span_now_us();
        span.stage_seconds[static_cast<std::size_t>(
            obs::LuStage::kFollowerApply)] =
            static_cast<double>(span.wall_us - apply_start_us) * 1e-6;
        span.total_seconds = span.stage_seconds[static_cast<std::size_t>(
            obs::LuStage::kFollowerApply)];
        options_.spans->record("follower_apply", span);
      }
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      if (applied) {
        ++stats_.lus_applied;
      } else {
        ++stats_.lus_rejected;
      }
      continue;
    }
    if (const auto* tick = std::get_if<wire::TickMsg>(&msg)) {
      directory_.advance_estimates(tick->t);
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.ticks_applied;
      stats_.last_tick_t = tick->t;
      stats_.last_tick = tick->tick;
      continue;
    }
    error_ = "unexpected frame on replication stream";
    return false;
  }
}

void Follower::stop() {
  stop_.store(true, std::memory_order_release);
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

Follower::Stats Follower::stats() const {
  const std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

}  // namespace mgrid::cluster

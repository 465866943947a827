#include "cluster/client.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "obs/span.h"
#include "transport/tcp.h"

namespace mgrid::cluster {

FrameConn::FrameConn(int fd, double io_timeout_seconds, bool owns_fd)
    : fd_(fd), owns_fd_(owns_fd) {
  if (fd_ >= 0) transport::set_io_timeout(fd_, io_timeout_seconds);
}

FrameConn::~FrameConn() { close(); }

FrameConn::FrameConn(FrameConn&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      owns_fd_(other.owns_fd_),
      buffer_(std::move(other.buffer_)),
      buffer_pos_(std::exchange(other.buffer_pos_, 0)),
      error_(std::move(other.error_)) {}

FrameConn& FrameConn::operator=(FrameConn&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    owns_fd_ = other.owns_fd_;
    buffer_ = std::move(other.buffer_);
    buffer_pos_ = std::exchange(other.buffer_pos_, 0);
    error_ = std::move(other.error_);
  }
  return *this;
}

void FrameConn::close() {
  if (fd_ >= 0 && owns_fd_) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
  buffer_pos_ = 0;
}

bool FrameConn::send(const std::uint8_t* data, std::size_t size) {
  if (fd_ < 0) {
    error_ = "not connected";
    return false;
  }
  if (!transport::send_all(fd_, data, size)) {
    error_ = std::string("send: ") + std::strerror(errno);
    close();
    return false;
  }
  return true;
}

wire::DecodeStatus FrameConn::take_buffered(wire::Message& out) {
  const std::span<const std::uint8_t> pending{buffer_.data() + buffer_pos_,
                                              buffer_.size() - buffer_pos_};
  wire::Decoded decoded = wire::decode_frame(pending);
  if (!decoded.ok()) return decoded.status;
  out = std::move(decoded.msg);
  buffer_pos_ += decoded.consumed;
  if (buffer_pos_ == buffer_.size()) {
    buffer_.clear();
    buffer_pos_ = 0;
  } else if (buffer_pos_ > (64 << 10)) {
    // Compact occasionally so a long-lived stream does not grow the buffer
    // by its consumed prefix forever.
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(buffer_pos_));
    buffer_pos_ = 0;
  }
  return wire::DecodeStatus::kOk;
}

bool FrameConn::poll_message(wire::Message& out) {
  return fd_ >= 0 && take_buffered(out) == wire::DecodeStatus::kOk;
}

bool FrameConn::recv_message(wire::Message& out) {
  if (fd_ < 0) {
    error_ = "not connected";
    return false;
  }
  for (;;) {
    const wire::DecodeStatus status = take_buffered(out);
    if (status == wire::DecodeStatus::kOk) return true;
    if (status != wire::DecodeStatus::kNeedMoreData) {
      error_ = std::string("bad frame: ") +
               std::string(wire::to_string(status));
      close();
      return false;
    }
    std::uint8_t chunk[16 * 1024];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      error_ = "recv: timed out";
      close();
      return false;
    }
    if (n < 0) {
      error_ = std::string("recv: ") + std::strerror(errno);
      close();
      return false;
    }
    if (n == 0) {
      error_ = "peer closed";
      close();
      return false;
    }
    buffer_.insert(buffer_.end(), chunk, chunk + n);
  }
}

ShardClient::ShardClient(ShardClientOptions options)
    : options_(std::move(options)) {}

bool ShardClient::connect(std::string* error) {
  if (conn_.connected()) return true;
  std::string local_error;
  const int fd = transport::connect_tcp(options_.host, options_.port,
                                        options_.connect_timeout_seconds,
                                        local_error);
  if (fd < 0) {
    if (error != nullptr) *error = local_error;
    return false;
  }
  conn_ = FrameConn(fd, options_.io_timeout_seconds);
  return true;
}

bool ShardClient::send_lus(const std::vector<BatchLu>& batch) {
  if (batch.empty()) return true;
  scratch_.clear();
  std::uint64_t send_us = 0;  // stamped lazily: untraced batches skip the clock
  for (const BatchLu& entry : batch) {
    if (entry.trace_id == 0) {
      wire::encode(scratch_, entry.lu);
      continue;
    }
    if (send_us == 0) send_us = obs::span_now_us();
    wire::TracedLuMsg traced;
    traced.lu = entry.lu;
    traced.trace.trace_id = entry.trace_id;
    traced.trace.origin_us = entry.origin_us;
    traced.trace.send_us = send_us;
    traced.trace.parent_stage =
        static_cast<std::uint32_t>(obs::LuStage::kNet);
    wire::encode(scratch_, traced);
  }
  return conn_.send(scratch_);
}

bool ShardClient::tick(double t, std::uint64_t tick) {
  scratch_.clear();
  wire::encode(scratch_, wire::TickMsg{t, tick});
  if (!conn_.send(scratch_)) return false;
  wire::Message reply;
  if (!conn_.recv_message(reply)) return false;
  return std::holds_alternative<wire::AckMsg>(reply) &&
         std::get<wire::AckMsg>(reply).status == wire::AckStatus::kOk;
}

std::optional<wire::LookupReplyMsg> ShardClient::lookup(std::uint32_t mn,
                                                        double t) {
  scratch_.clear();
  wire::encode(scratch_, wire::LookupMsg{mn, t});
  if (!conn_.send(scratch_)) return std::nullopt;
  wire::Message reply;
  if (!conn_.recv_message(reply)) return std::nullopt;
  if (!std::holds_alternative<wire::LookupReplyMsg>(reply)) {
    conn_.close();
    return std::nullopt;
  }
  return std::get<wire::LookupReplyMsg>(reply);
}

bool ShardClient::query_region(const wire::RegionQueryMsg& query,
                               std::vector<wire::NeighborMsg>& out) {
  scratch_.clear();
  wire::encode(scratch_, query);
  if (!conn_.send(scratch_)) return false;
  return read_neighbor_stream(out);
}

bool ShardClient::k_nearest(const wire::NearestQueryMsg& query,
                            std::vector<wire::NeighborMsg>& out) {
  scratch_.clear();
  wire::encode(scratch_, query);
  if (!conn_.send(scratch_)) return false;
  return read_neighbor_stream(out);
}

bool ShardClient::read_neighbor_stream(std::vector<wire::NeighborMsg>& out) {
  for (;;) {
    wire::Message msg;
    if (!conn_.recv_message(msg)) return false;
    if (std::holds_alternative<wire::NeighborMsg>(msg)) {
      out.push_back(std::get<wire::NeighborMsg>(msg));
      continue;
    }
    if (std::holds_alternative<wire::QueryDoneMsg>(msg)) return true;
    conn_.close();  // protocol violation mid-stream
    return false;
  }
}

}  // namespace mgrid::cluster

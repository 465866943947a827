#include "serve/wire.h"

#include <bit>
#include <cstring>

namespace mgrid::serve::wire {

namespace {

// Fixed-offset little-endian stores and loads of unsigned integers: one
// unaligned move on a little-endian host, a byte loop elsewhere.
template <typename T>
void store_le(std::uint8_t* out, T v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, &v, sizeof(v));
  } else {
    for (std::size_t i = 0; i < sizeof(v); ++i) {
      out[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
}

template <typename T>
T load_le(const std::uint8_t* in) {
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, in, sizeof(v));
  } else {
    for (std::size_t i = sizeof(v); i-- > 0;) {
      v = static_cast<T>((v << 8) | in[i]);
    }
  }
  return v;
}

void store_u32(std::uint8_t* out, std::uint32_t v) { store_le(out, v); }
void store_u64(std::uint8_t* out, std::uint64_t v) { store_le(out, v); }
void store_f64(std::uint8_t* out, double v) {
  store_le(out, std::bit_cast<std::uint64_t>(v));
}

std::uint16_t get_u16(std::span<const std::uint8_t> in, std::size_t at) {
  return load_le<std::uint16_t>(in.data() + at);
}

std::uint32_t get_u32(std::span<const std::uint8_t> in, std::size_t at) {
  return load_le<std::uint32_t>(in.data() + at);
}

std::uint64_t get_u64(std::span<const std::uint8_t> in, std::size_t at) {
  return load_le<std::uint64_t>(in.data() + at);
}

double get_f64(std::span<const std::uint8_t> in, std::size_t at) {
  return std::bit_cast<double>(get_u64(in, at));
}

/// Grows `out` by one whole frame in a single resize, writes its header and
/// returns the payload, zero-filled so pad bytes need no stores.
std::uint8_t* begin_frame(std::vector<std::uint8_t>& out, MsgType type,
                          std::size_t payload_len) {
  const std::size_t start = out.size();
  out.resize(start + kHeaderBytes + payload_len);
  std::uint8_t* frame = out.data() + start;
  store_le(frame, kMagic);
  frame[2] = type == MsgType::kTracedLu ? kTracedVersion : kVersion;
  frame[3] = static_cast<std::uint8_t>(type);
  store_u32(frame + 4, static_cast<std::uint32_t>(payload_len));
  return frame + kHeaderBytes;
}

/// begin_frame() for a fixed-size type.
std::uint8_t* begin_frame(std::vector<std::uint8_t>& out, MsgType type) {
  return begin_frame(out, type, payload_size(type));
}

/// Size of an encoded fixed-size frame of `type`.
std::size_t frame_size(MsgType type) {
  return kHeaderBytes + payload_size(type);
}

void put_lu_payload(std::uint8_t* out, const LuMsg& msg) {
  store_u32(out, msg.mn);
  store_u32(out + 4, msg.seq);
  store_f64(out + 8, msg.t);
  store_f64(out + 16, msg.x);
  store_f64(out + 24, msg.y);
  store_f64(out + 32, msg.vx);
  store_f64(out + 40, msg.vy);
  store_f64(out + 48, msg.battery);
}

LuMsg get_lu_payload(std::span<const std::uint8_t> in, std::size_t at) {
  LuMsg msg;
  msg.mn = get_u32(in, at);
  msg.seq = get_u32(in, at + 4);
  msg.t = get_f64(in, at + 8);
  msg.x = get_f64(in, at + 16);
  msg.y = get_f64(in, at + 24);
  msg.vx = get_f64(in, at + 32);
  msg.vy = get_f64(in, at + 40);
  msg.battery = get_f64(in, at + 48);
  return msg;
}

}  // namespace

std::string_view to_string(DecodeStatus status) noexcept {
  switch (status) {
    case DecodeStatus::kOk:
      return "ok";
    case DecodeStatus::kNeedMoreData:
      return "need_more_data";
    case DecodeStatus::kBadMagic:
      return "bad_magic";
    case DecodeStatus::kBadVersion:
      return "bad_version";
    case DecodeStatus::kBadType:
      return "bad_type";
    case DecodeStatus::kBadLength:
      return "bad_length";
  }
  return "unknown";
}

std::string_view to_string(MsgType type) noexcept {
  switch (type) {
    case MsgType::kLu:
      return "lu";
    case MsgType::kAck:
      return "ack";
    case MsgType::kLookup:
      return "lookup";
    case MsgType::kLookupReply:
      return "lookup_reply";
    case MsgType::kRegionQuery:
      return "region_query";
    case MsgType::kNearestQuery:
      return "nearest_query";
    case MsgType::kTick:
      return "tick";
    case MsgType::kNeighbor:
      return "neighbor";
    case MsgType::kQueryDone:
      return "query_done";
    case MsgType::kSubscribe:
      return "subscribe";
    case MsgType::kSnapshotChunk:
      return "snapshot_chunk";
    case MsgType::kSnapshotDone:
      return "snapshot_done";
    case MsgType::kTracedLu:
      return "traced_lu";
  }
  return "unknown";
}

std::size_t payload_size(MsgType type) noexcept {
  switch (type) {
    case MsgType::kLu:
      return 56;
    case MsgType::kAck:
      return 16;
    case MsgType::kLookup:
      return 16;
    case MsgType::kLookupReply:
      return 32;
    case MsgType::kRegionQuery:
      return 32;
    case MsgType::kNearestQuery:
      return 24;
    case MsgType::kTick:
      return 16;
    case MsgType::kNeighbor:
      return 32;
    case MsgType::kQueryDone:
      return 16;
    case MsgType::kSubscribe:
      return 16;
    case MsgType::kSnapshotChunk:
      return kVariablePayload;
    case MsgType::kSnapshotDone:
      return 16;
    case MsgType::kTracedLu:
      return 88;
  }
  return 0;
}

std::size_t encode(std::vector<std::uint8_t>& out, const LuMsg& msg) {
  put_lu_payload(begin_frame(out, MsgType::kLu), msg);
  return frame_size(MsgType::kLu);
}

std::size_t encode(std::vector<std::uint8_t>& out, const TracedLuMsg& msg) {
  std::uint8_t* p = begin_frame(out, MsgType::kTracedLu);
  put_lu_payload(p, msg.lu);
  store_u64(p + 56, msg.trace.trace_id);
  store_u64(p + 64, msg.trace.origin_us);
  store_u64(p + 72, msg.trace.send_us);
  store_u32(p + 80, msg.trace.parent_stage);
  return frame_size(MsgType::kTracedLu);
}

std::size_t encode(std::vector<std::uint8_t>& out, const AckMsg& msg) {
  std::uint8_t* p = begin_frame(out, MsgType::kAck);
  store_u32(p, msg.mn);
  p[4] = static_cast<std::uint8_t>(msg.status);
  store_f64(p + 8, msg.t);
  return frame_size(MsgType::kAck);
}

std::size_t encode(std::vector<std::uint8_t>& out, const LookupMsg& msg) {
  std::uint8_t* p = begin_frame(out, MsgType::kLookup);
  store_u32(p, msg.mn);
  store_f64(p + 8, msg.t);
  return frame_size(MsgType::kLookup);
}

std::size_t encode(std::vector<std::uint8_t>& out, const LookupReplyMsg& msg) {
  std::uint8_t* p = begin_frame(out, MsgType::kLookupReply);
  store_u32(p, msg.mn);
  p[4] = msg.found ? 1 : 0;
  p[5] = msg.estimated ? 1 : 0;
  store_f64(p + 8, msg.t);
  store_f64(p + 16, msg.x);
  store_f64(p + 24, msg.y);
  return frame_size(MsgType::kLookupReply);
}

std::size_t encode(std::vector<std::uint8_t>& out, const RegionQueryMsg& msg) {
  std::uint8_t* p = begin_frame(out, MsgType::kRegionQuery);
  store_f64(p, msg.x);
  store_f64(p + 8, msg.y);
  store_f64(p + 16, msg.radius);
  store_u32(p + 24, msg.max_results);
  return frame_size(MsgType::kRegionQuery);
}

std::size_t encode(std::vector<std::uint8_t>& out,
                   const NearestQueryMsg& msg) {
  std::uint8_t* p = begin_frame(out, MsgType::kNearestQuery);
  store_f64(p, msg.x);
  store_f64(p + 8, msg.y);
  store_u32(p + 16, msg.k);
  return frame_size(MsgType::kNearestQuery);
}

std::size_t encode(std::vector<std::uint8_t>& out, const TickMsg& msg) {
  std::uint8_t* p = begin_frame(out, MsgType::kTick);
  store_f64(p, msg.t);
  store_u64(p + 8, msg.tick);
  return frame_size(MsgType::kTick);
}

std::size_t encode(std::vector<std::uint8_t>& out, const NeighborMsg& msg) {
  std::uint8_t* p = begin_frame(out, MsgType::kNeighbor);
  store_u32(p, msg.mn);
  store_f64(p + 8, msg.distance);
  store_f64(p + 16, msg.x);
  store_f64(p + 24, msg.y);
  return frame_size(MsgType::kNeighbor);
}

std::size_t encode(std::vector<std::uint8_t>& out, const QueryDoneMsg& msg) {
  std::uint8_t* p = begin_frame(out, MsgType::kQueryDone);
  store_u32(p, msg.count);
  store_f64(p + 8, msg.t);
  return frame_size(MsgType::kQueryDone);
}

std::size_t encode(std::vector<std::uint8_t>& out, const SubscribeMsg& msg) {
  std::uint8_t* p = begin_frame(out, MsgType::kSubscribe);
  store_u64(p, msg.from_record);
  store_u64(p + 8, msg.flags);
  return frame_size(MsgType::kSubscribe);
}

std::size_t encode(std::vector<std::uint8_t>& out,
                   const SnapshotChunkMsg& msg) {
  if (msg.bytes.size() > kMaxChunkBytes) return 0;
  std::uint8_t* p =
      begin_frame(out, MsgType::kSnapshotChunk, msg.bytes.size());
  if (!msg.bytes.empty()) {
    std::memcpy(p, msg.bytes.data(), msg.bytes.size());
  }
  return kHeaderBytes + msg.bytes.size();
}

std::size_t encode(std::vector<std::uint8_t>& out,
                   const SnapshotDoneMsg& msg) {
  std::uint8_t* p = begin_frame(out, MsgType::kSnapshotDone);
  store_u64(p, msg.total_bytes);
  store_u64(p + 8, msg.wal_records);
  return frame_size(MsgType::kSnapshotDone);
}

Decoded decode_frame(std::span<const std::uint8_t> buffer) {
  Decoded result;
  if (buffer.size() < kHeaderBytes) {
    // Validate whatever prefix of the header we do have, so garbage is
    // rejected immediately instead of stalling a reader forever.
    if (!buffer.empty() && buffer[0] != (kMagic & 0xFF)) {
      result.status = DecodeStatus::kBadMagic;
      return result;
    }
    if (buffer.size() >= 2 && get_u16(buffer, 0) != kMagic) {
      result.status = DecodeStatus::kBadMagic;
      return result;
    }
    if (buffer.size() >= 3 && buffer[2] != kVersion &&
        buffer[2] != kTracedVersion) {
      result.status = DecodeStatus::kBadVersion;
      return result;
    }
    result.status = DecodeStatus::kNeedMoreData;
    return result;
  }
  if (get_u16(buffer, 0) != kMagic) {
    result.status = DecodeStatus::kBadMagic;
    return result;
  }
  const auto type = static_cast<MsgType>(buffer[3]);
  // Version gate: kTracedLu is the one v2 frame; everything else is v1. A
  // mismatched pairing (v2 header on a legacy type, or a traced type under
  // v1) is rejected as kBadVersion — exactly what a v1-only decoder
  // answers for any v2 frame, so skew fails identically in both directions.
  const std::uint8_t required =
      type == MsgType::kTracedLu ? kTracedVersion : kVersion;
  if (buffer[2] != required) {
    result.status = DecodeStatus::kBadVersion;
    return result;
  }
  std::size_t expected = payload_size(type);
  if (expected == 0) {
    result.status = DecodeStatus::kBadType;
    return result;
  }
  const std::uint32_t declared = get_u32(buffer, 4);
  if (expected == kVariablePayload) {
    // The one variable-length type: the header's length is authoritative,
    // bounded so a hostile header cannot demand an unbounded buffer.
    if (declared > kMaxChunkBytes) {
      result.status = DecodeStatus::kBadLength;
      return result;
    }
    expected = declared;
  } else if (declared != expected) {
    result.status = DecodeStatus::kBadLength;
    return result;
  }
  if (buffer.size() < kHeaderBytes + expected) {
    result.status = DecodeStatus::kNeedMoreData;
    return result;
  }
  const std::size_t p = kHeaderBytes;
  switch (type) {
    case MsgType::kLu: {
      result.msg = get_lu_payload(buffer, p);
      break;
    }
    case MsgType::kTracedLu: {
      TracedLuMsg msg;
      msg.lu = get_lu_payload(buffer, p);
      msg.trace.trace_id = get_u64(buffer, p + 56);
      msg.trace.origin_us = get_u64(buffer, p + 64);
      msg.trace.send_us = get_u64(buffer, p + 72);
      msg.trace.parent_stage = get_u32(buffer, p + 80);
      result.msg = msg;
      break;
    }
    case MsgType::kAck: {
      AckMsg msg;
      msg.mn = get_u32(buffer, p);
      msg.status = static_cast<AckStatus>(buffer[p + 4]);
      msg.t = get_f64(buffer, p + 8);
      result.msg = msg;
      break;
    }
    case MsgType::kLookup: {
      LookupMsg msg;
      msg.mn = get_u32(buffer, p);
      msg.t = get_f64(buffer, p + 8);
      result.msg = msg;
      break;
    }
    case MsgType::kLookupReply: {
      LookupReplyMsg msg;
      msg.mn = get_u32(buffer, p);
      msg.found = buffer[p + 4] != 0;
      msg.estimated = buffer[p + 5] != 0;
      msg.t = get_f64(buffer, p + 8);
      msg.x = get_f64(buffer, p + 16);
      msg.y = get_f64(buffer, p + 24);
      result.msg = msg;
      break;
    }
    case MsgType::kRegionQuery: {
      RegionQueryMsg msg;
      msg.x = get_f64(buffer, p);
      msg.y = get_f64(buffer, p + 8);
      msg.radius = get_f64(buffer, p + 16);
      msg.max_results = get_u32(buffer, p + 24);
      result.msg = msg;
      break;
    }
    case MsgType::kNearestQuery: {
      NearestQueryMsg msg;
      msg.x = get_f64(buffer, p);
      msg.y = get_f64(buffer, p + 8);
      msg.k = get_u32(buffer, p + 16);
      result.msg = msg;
      break;
    }
    case MsgType::kTick: {
      TickMsg msg;
      msg.t = get_f64(buffer, p);
      msg.tick = get_u64(buffer, p + 8);
      result.msg = msg;
      break;
    }
    case MsgType::kNeighbor: {
      NeighborMsg msg;
      msg.mn = get_u32(buffer, p);
      msg.distance = get_f64(buffer, p + 8);
      msg.x = get_f64(buffer, p + 16);
      msg.y = get_f64(buffer, p + 24);
      result.msg = msg;
      break;
    }
    case MsgType::kQueryDone: {
      QueryDoneMsg msg;
      msg.count = get_u32(buffer, p);
      msg.t = get_f64(buffer, p + 8);
      result.msg = msg;
      break;
    }
    case MsgType::kSubscribe: {
      SubscribeMsg msg;
      msg.from_record = get_u64(buffer, p);
      msg.flags = get_u64(buffer, p + 8);
      result.msg = msg;
      break;
    }
    case MsgType::kSnapshotChunk: {
      SnapshotChunkMsg msg;
      msg.bytes.assign(buffer.begin() + static_cast<std::ptrdiff_t>(p),
                       buffer.begin() + static_cast<std::ptrdiff_t>(p + expected));
      result.msg = std::move(msg);
      break;
    }
    case MsgType::kSnapshotDone: {
      SnapshotDoneMsg msg;
      msg.total_bytes = get_u64(buffer, p);
      msg.wal_records = get_u64(buffer, p + 8);
      result.msg = msg;
      break;
    }
  }
  result.status = DecodeStatus::kOk;
  result.consumed = kHeaderBytes + expected;
  return result;
}

}  // namespace mgrid::serve::wire

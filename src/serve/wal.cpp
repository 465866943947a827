#include "serve/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <nmmintrin.h>
#endif

#include <array>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "obs/metrics.h"

namespace mgrid::serve {

namespace {

struct WalMetrics {
  obs::Counter records;
  obs::Counter bytes;
  obs::Counter syncs;

  explicit WalMetrics(obs::MetricsRegistry& registry) {
    records = registry.counter("mgrid_wal_records_total", {},
                               "Records appended to the write-ahead log");
    bytes = registry.counter("mgrid_wal_bytes_total", {},
                             "Bytes appended to the write-ahead log");
    syncs = registry.counter("mgrid_wal_syncs_total", {},
                             "fsync(2) calls issued by the WAL writer");
  }
};

WalMetrics& wal_metrics() { return obs::instruments<WalMetrics>(); }

// CRC-32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
// same checksum used by iSCSI/ext4. Table generated once at startup; it is
// the fallback for CPUs without the SSE4.2 crc32 instruction.
std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

const std::array<std::uint32_t, 256>& crc32c_lookup() {
  static const std::array<std::uint32_t, 256> table = make_crc32c_table();
  return table;
}

#if defined(__x86_64__) || defined(__i386__)
#define MGRID_CRC32C_SSE42 1
// The crc32 instruction computes the same reflected CRC-32C as the table,
// eight bytes per step on x86-64 (bytes enter in little-endian order, which
// is what a memcpy'd word holds on x86).
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42_unchecked(
    const std::uint8_t* data, std::size_t len) {
  std::uint32_t crc = 0xFFFFFFFFu;
#if defined(__x86_64__)
  std::uint64_t crc64 = crc;
  for (; len >= 8; data += 8, len -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, data, sizeof(word));
    crc64 = _mm_crc32_u64(crc64, word);
  }
  crc = static_cast<std::uint32_t>(crc64);
#endif
  for (; len >= 4; data += 4, len -= 4) {
    std::uint32_t word = 0;
    std::memcpy(&word, data, sizeof(word));
    crc = _mm_crc32_u32(crc, word);
  }
  for (; len > 0; ++data, --len) crc = _mm_crc32_u8(crc, *data);
  return crc ^ 0xFFFFFFFFu;
}
#endif

bool crc32c_sse42_supported() noexcept {
#ifdef MGRID_CRC32C_SSE42
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
#else
  return false;
#endif
}

void put_u32_le(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
  out[2] = static_cast<std::uint8_t>(v >> 16);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t get_u32_le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

bool write_all(int fd, const std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

std::uint32_t crc32c_table(const std::uint8_t* data, std::size_t len) {
  const auto& table = crc32c_lookup();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ data[i]) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

std::uint32_t crc32c_sse42(const std::uint8_t* data, std::size_t len) {
#ifdef MGRID_CRC32C_SSE42
  if (crc32c_sse42_supported()) return crc32c_sse42_unchecked(data, len);
#endif
  return crc32c_table(data, len);
}

std::uint32_t crc32c(const std::uint8_t* data, std::size_t len) {
#ifdef MGRID_CRC32C_SSE42
  static const bool sse42 = crc32c_sse42_supported();
  if (sse42) return crc32c_sse42_unchecked(data, len);
#endif
  return crc32c_table(data, len);
}

const char* to_string(FsyncPolicy policy) noexcept {
  switch (policy) {
    case FsyncPolicy::kNever:
      return "never";
    case FsyncPolicy::kEveryTick:
      return "every_tick";
    case FsyncPolicy::kEveryRecord:
      return "every_record";
  }
  return "unknown";
}

const char* to_string(WalReadStatus status) noexcept {
  switch (status) {
    case WalReadStatus::kEnd:
      return "end";
    case WalReadStatus::kTruncated:
      return "truncated";
    case WalReadStatus::kBadCrc:
      return "bad_crc";
    case WalReadStatus::kBadFrame:
      return "bad_frame";
  }
  return "unknown";
}

WalWriter::WalWriter(const std::string& path, FsyncPolicy policy)
    : path_(path), policy_(policy) {
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) {
    throw std::runtime_error("WalWriter: cannot open " + path + ": " +
                             std::strerror(errno));
  }
  struct stat st{};
  if (::fstat(fd_, &st) != 0) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("WalWriter: fstat failed for " + path);
  }
  if (st.st_size == 0) {
    if (!write_all(fd_, kWalHeader, sizeof(kWalHeader))) {
      ::close(fd_);
      fd_ = -1;
      throw std::runtime_error("WalWriter: cannot write header to " + path);
    }
  } else {
    // Appending to an existing file: verify it really is an mgrid-wal-v1
    // file so we never corrupt some unrelated file handed to us by mistake.
    std::ifstream in(path, std::ios::binary);
    std::array<char, sizeof(kWalHeader)> header{};
    in.read(header.data(), header.size());
    if (!in ||
        std::memcmp(header.data(), kWalHeader, 4) != 0 ||
        static_cast<std::uint8_t>(header[4]) != kWalHeader[4]) {
      ::close(fd_);
      fd_ = -1;
      throw std::runtime_error("WalWriter: " + path +
                               " is not an mgrid-wal-v1 file");
    }
  }
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) {
    sync();
    ::close(fd_);
  }
}

template <typename Msg>
std::size_t WalWriter::buffer_records(std::span<const Msg> msgs) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (failed_) return 0;
  // Encode straight into the pending buffer, each frame behind a 4-byte CRC
  // slot: no allocation once the buffer has grown to its working size.
  std::size_t added = 0;
  for (const Msg& msg : msgs) {
    const std::size_t start = pending_.size();
    pending_.resize(start + 4);
    const std::size_t frame_bytes = wire::encode(pending_, msg);
    put_u32_le(pending_.data() + start,
               crc32c(pending_.data() + start + 4, frame_bytes));
    added += 4 + frame_bytes;
  }
  records_ += msgs.size();
  bytes_ += added;
  if (obs::enabled()) {
    WalMetrics& metrics = wal_metrics();
    metrics.records.inc(msgs.size());
    metrics.bytes.inc(added);
  }
  return pending_.size();
}

bool WalWriter::commit(bool fsync) {
  const std::lock_guard<std::mutex> io(io_mutex_);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (failed_) return false;
    writing_.swap(pending_);
  }
  bool ok = writing_.empty() ||
            write_all(fd_, writing_.data(), writing_.size());
  writing_.clear();
  if (ok && fsync) {
    ok = ::fsync(fd_) == 0;
    if (ok && obs::enabled()) wal_metrics().syncs.inc();
  }
  if (!ok) {
    const std::lock_guard<std::mutex> lock(mutex_);
    failed_ = true;
  }
  return ok;
}

bool WalWriter::append(std::span<const wire::LuMsg> msgs) {
  if (msgs.empty()) return !failed();
  if (policy_ == FsyncPolicy::kEveryRecord) {
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      if (buffer_records(msgs.subspan(i, 1)) == 0 || !commit(true)) {
        return false;
      }
    }
    return true;
  }
  const std::size_t pending = buffer_records(msgs);
  if (pending == 0) return false;
  if (pending >= kWalMaxPendingBytes) return write_pending();
  return true;
}

bool WalWriter::append_tick(double t, std::uint64_t tick) {
  const wire::TickMsg record{t, tick};
  if (buffer_records(std::span<const wire::TickMsg>(&record, 1)) == 0) {
    return false;
  }
  return commit(policy_ != FsyncPolicy::kNever);
}

bool WalWriter::write_pending() { return commit(false); }

bool WalWriter::sync() { return commit(true); }

std::uint64_t WalWriter::records_appended() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

std::uint64_t WalWriter::bytes_appended() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

bool WalWriter::failed() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return failed_;
}

WalReadResult read_wal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("read_wal: cannot open " + path);
  }
  std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
  if (bytes.size() < sizeof(kWalHeader)) {
    throw std::runtime_error("read_wal: " + path +
                             " is too short to be a WAL file");
  }
  if (std::memcmp(bytes.data(), kWalHeader, 4) != 0) {
    throw std::runtime_error("read_wal: " + path + " has a foreign header");
  }
  if (bytes[4] != kWalHeader[4]) {
    throw std::runtime_error("read_wal: " + path +
                             " has unsupported WAL version " +
                             std::to_string(bytes[4]));
  }

  WalReadResult result;
  std::size_t pos = sizeof(kWalHeader);
  result.consistent_bytes = pos;
  while (pos < bytes.size()) {
    // [u32 crc][frame]: we need at least the CRC plus a frame header to
    // know the record length.
    if (bytes.size() - pos < 4 + wire::kHeaderBytes) {
      result.status = WalReadStatus::kTruncated;
      return result;
    }
    const std::uint32_t stored_crc = get_u32_le(bytes.data() + pos);
    const std::uint8_t* frame = bytes.data() + pos + 4;
    const std::size_t avail = bytes.size() - pos - 4;
    const wire::Decoded decoded =
        wire::decode_frame(std::span<const std::uint8_t>(frame, avail));
    if (decoded.status == wire::DecodeStatus::kNeedMoreData) {
      result.status = WalReadStatus::kTruncated;
      return result;
    }
    if (!decoded.ok()) {
      result.status = WalReadStatus::kBadFrame;
      return result;
    }
    if (crc32c(frame, decoded.consumed) != stored_crc) {
      result.status = WalReadStatus::kBadCrc;
      return result;
    }
    result.records.push_back(decoded.msg);
    pos += 4 + decoded.consumed;
    result.consistent_bytes = pos;
    result.record_ends.push_back(pos);
  }
  result.status = WalReadStatus::kEnd;
  return result;
}

bool truncate_wal(const std::string& path, std::uint64_t bytes) {
  return ::truncate(path.c_str(), static_cast<off_t>(bytes)) == 0;
}

}  // namespace mgrid::serve

// Write-ahead log for the serving plane (mgrid-wal-v1).
//
// Durability contract: every LU admitted by the ingest pipeline is appended
// to the WAL *before* it becomes visible in the directory, and every tick
// barrier (flush + advance_estimates) is recorded as a kTick frame. Because
// directory state is a pure function of the per-MN LU substreams plus the
// tick schedule (see serve/replay.h), serially replaying the WAL reproduces
// the directory bit-identically — for any worker count the live process
// used.
//
// File layout:
//   [8-byte header: "MGWL" magic, version u8 = 1, 3 pad bytes]
//   repeated records: [u32 crc32c of frame][mgrid-lu-v1 wire frame]
// where the frame is a kLu or kTick message exactly as it would travel on
// the wire (wire.h). The CRC covers the whole frame including its header.
//
// Group commit: append() only encodes its records into an in-memory
// pending buffer, a whole run of LUs under one lock. The buffer reaches
// the file in one write(2) when
//   * write_pending() is called — the ingest workers call it once per
//     drained batch, before the batch becomes visible in the directory;
//   * append_tick() writes a barrier (before its fsync);
//   * sync() runs or the writer is destroyed;
//   * the buffer passes kWalMaxPendingBytes, so a writer that never ticks
//     holds a bounded amount of memory;
//   * the policy is kEveryRecord, which still writes and fsyncs per record.
// Records reach the file in append order, so the bytes on disk are the same
// as a record-at-a-time writer's. A crash loses at most the buffered tail
// of the unfinished tick, which recovery cuts off anyway.
//
// Torn tails are expected after a crash: the reader stops deterministically
// at the first truncated, CRC-damaged or undecodable record and reports how
// many clean bytes precede it, so a recovering process can truncate the
// file to the consistent prefix before appending again.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "serve/wire.h"

namespace mgrid::serve {

/// CRC-32C (Castagnoli). Uses the SSE4.2 crc32 instruction when the CPU
/// has it and the table implementation otherwise.
[[nodiscard]] std::uint32_t crc32c(const std::uint8_t* data, std::size_t len);
/// The byte-at-a-time table implementation. Public for tests.
[[nodiscard]] std::uint32_t crc32c_table(const std::uint8_t* data,
                                         std::size_t len);
/// The SSE4.2 implementation; falls back to the table when the CPU lacks
/// SSE4.2. Public for tests.
[[nodiscard]] std::uint32_t crc32c_sse42(const std::uint8_t* data,
                                         std::size_t len);

/// Pending bytes past which append() writes the buffer itself.
inline constexpr std::size_t kWalMaxPendingBytes = 64 * 1024;

/// When the writer calls fsync(2).
enum class FsyncPolicy : std::uint8_t {
  kNever = 0,      ///< rely on the page cache (benchmarks, tests)
  kEveryTick = 1,  ///< once per tick barrier — the production default
  kEveryRecord = 2 ///< paranoid; throughput drops by orders of magnitude
};

[[nodiscard]] const char* to_string(FsyncPolicy policy) noexcept;

/// Appends CRC-framed wire records to a WAL file. Thread-safe: append() may
/// be called concurrently from ingest submit paths (each append is atomic
/// under an internal mutex). Lock ordering: callers holding a source-queue
/// lock may call append(); the WAL never calls back out. The write(2) and
/// fsync(2) calls run under a second, I/O mutex, so appends do not wait for
/// the disk.
class WalWriter {
 public:
  /// Opens (or creates) `path` for appending. When the file is empty a
  /// fresh header is written; when it already has content the caller is
  /// expected to have truncated it to a consistent prefix (recovery does
  /// this). Throws std::runtime_error on I/O errors or a foreign header.
  explicit WalWriter(const std::string& path,
                     FsyncPolicy policy = FsyncPolicy::kEveryTick);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Buffers one LU record per message, in order, under one lock (with
  /// kEveryRecord each record is still written and fsynced on its own).
  /// Returns false once the WAL has failed (the WAL is then considered
  /// broken; subsequent appends also fail).
  bool append(std::span<const wire::LuMsg> msgs);
  /// append() of one LU record.
  bool append(const wire::LuMsg& msg) { return append({&msg, 1}); }
  /// Appends one tick-barrier record and writes the buffer; fsyncs unless
  /// the policy is kNever.
  bool append_tick(double t, std::uint64_t tick);

  /// Writes every buffered record in one write(2). On return, every record
  /// appended before the call is in the file. Returns false on failure.
  bool write_pending();

  /// Writes the buffer, then fsyncs regardless of policy. Returns false on
  /// failure.
  bool sync();

  /// Records appended by *this writer*, buffered ones included (excludes
  /// pre-existing content).
  [[nodiscard]] std::uint64_t records_appended() const noexcept;
  /// Bytes appended by this writer, buffered ones included.
  [[nodiscard]] std::uint64_t bytes_appended() const noexcept;
  /// True once any append or sync has failed.
  [[nodiscard]] bool failed() const noexcept;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] FsyncPolicy policy() const noexcept { return policy_; }

 private:
  /// Encodes each of `msgs` into pending_ behind its CRC; returns the
  /// pending size afterwards (0 when the WAL has failed).
  template <typename Msg>
  std::size_t buffer_records(std::span<const Msg> msgs);
  /// Writes the pending buffer, then fsyncs when `fsync`; under io_mutex_.
  bool commit(bool fsync);

  std::string path_;
  FsyncPolicy policy_;
  int fd_ = -1;
  /// Serialises write(2)/fsync(2) so buffers reach the file in append order.
  /// Lock order: io_mutex_ before mutex_.
  std::mutex io_mutex_;
  /// Guards pending_, the counters and failed_.
  mutable std::mutex mutex_;
  std::vector<std::uint8_t> pending_;
  /// The buffer being written (guarded by io_mutex_); swapped with pending_
  /// so appends continue while write(2) runs.
  std::vector<std::uint8_t> writing_;
  std::uint64_t records_ = 0;
  std::uint64_t bytes_ = 0;
  bool failed_ = false;
};

/// Why a WAL read pass stopped.
enum class WalReadStatus : std::uint8_t {
  kEnd = 0,        ///< clean end of file
  kTruncated = 1,  ///< partial record at the tail
  kBadCrc = 2,     ///< CRC mismatch (torn or bit-rotted record)
  kBadFrame = 3,   ///< CRC fine but the frame does not decode
};

[[nodiscard]] const char* to_string(WalReadStatus status) noexcept;

/// Result of reading a WAL file.
struct WalReadResult {
  /// Decoded records in file order (each a wire::LuMsg or wire::TickMsg).
  std::vector<wire::Message> records;
  /// Why reading stopped.
  WalReadStatus status = WalReadStatus::kEnd;
  /// Byte offset of the end of the last clean record (== the consistent
  /// prefix length, including the 8-byte file header). A recovering writer
  /// truncates the file to this offset.
  std::uint64_t consistent_bytes = 0;
  /// Byte offset just past record i (record_ends[i]); recovery uses this to
  /// truncate to a *tick-boundary* cut rather than merely the last clean
  /// record.
  std::vector<std::uint64_t> record_ends;
};

/// Reads a WAL file front to back, stopping deterministically at the first
/// damaged record. Never throws on damaged *content*; throws
/// std::runtime_error only when the file cannot be opened or its 8-byte
/// header is missing/foreign (wrong magic or unsupported version).
[[nodiscard]] WalReadResult read_wal(const std::string& path);

/// Truncates `path` to `bytes` (used after recovery to drop a torn tail).
/// Returns false on failure.
bool truncate_wal(const std::string& path, std::uint64_t bytes);

/// The 8-byte mgrid-wal-v1 file header. Public for tests.
inline constexpr std::uint8_t kWalHeader[8] = {'M', 'G', 'W', 'L',
                                               1,   0,   0,   0};

}  // namespace mgrid::serve

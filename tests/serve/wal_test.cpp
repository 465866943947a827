#include "serve/wal.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <variant>
#include <vector>

#include "serve/wire.h"

namespace mgrid::serve {
namespace {

namespace fs = std::filesystem;

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("mgrid_wal_test_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::create_directories(dir_);
    path_ = (dir_ / "wal.log").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::vector<std::uint8_t> file_bytes() const {
    std::ifstream in(path_, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  void write_bytes(const std::vector<std::uint8_t>& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  fs::path dir_;
  std::string path_;
};

wire::LuMsg lu(std::uint32_t mn, double t, double x, double y) {
  wire::LuMsg msg;
  msg.mn = mn;
  msg.seq = static_cast<std::uint32_t>(t);
  msg.t = t;
  msg.x = x;
  msg.y = y;
  msg.vx = 1.0;
  msg.vy = -1.0;
  return msg;
}

TEST_F(WalTest, RoundTripsLusAndTicks) {
  {
    WalWriter writer(path_, FsyncPolicy::kNever);
    EXPECT_TRUE(writer.append(lu(7, 1.0, 10.0, 20.0)));
    EXPECT_TRUE(writer.append(lu(8, 1.0, -3.5, 4.25)));
    EXPECT_TRUE(writer.append_tick(1.0, 1));
    EXPECT_TRUE(writer.append(lu(7, 2.0, 11.0, 21.0)));
    EXPECT_TRUE(writer.append_tick(2.0, 2));
    EXPECT_EQ(writer.records_appended(), 5u);
    EXPECT_FALSE(writer.failed());
  }
  const WalReadResult result = read_wal(path_);
  EXPECT_EQ(result.status, WalReadStatus::kEnd);
  ASSERT_EQ(result.records.size(), 5u);
  ASSERT_EQ(result.record_ends.size(), 5u);
  EXPECT_EQ(result.consistent_bytes, result.record_ends.back());

  const auto* first = std::get_if<wire::LuMsg>(&result.records[0]);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->mn, 7u);
  EXPECT_EQ(first->t, 1.0);
  EXPECT_EQ(first->x, 10.0);
  EXPECT_EQ(first->y, 20.0);
  EXPECT_EQ(first->vx, 1.0);
  EXPECT_EQ(first->vy, -1.0);

  const auto* barrier = std::get_if<wire::TickMsg>(&result.records[2]);
  ASSERT_NE(barrier, nullptr);
  EXPECT_EQ(barrier->t, 1.0);
  EXPECT_EQ(barrier->tick, 1u);

  const auto* last = std::get_if<wire::TickMsg>(&result.records[4]);
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->tick, 2u);
}

TEST_F(WalTest, ReopeningAppendsAfterExistingRecords) {
  {
    WalWriter writer(path_, FsyncPolicy::kNever);
    ASSERT_TRUE(writer.append(lu(1, 1.0, 0.0, 0.0)));
  }
  {
    WalWriter writer(path_, FsyncPolicy::kNever);
    ASSERT_TRUE(writer.append(lu(1, 2.0, 1.0, 1.0)));
    // records_appended counts only this writer's appends.
    EXPECT_EQ(writer.records_appended(), 1u);
  }
  const WalReadResult result = read_wal(path_);
  EXPECT_EQ(result.status, WalReadStatus::kEnd);
  EXPECT_EQ(result.records.size(), 2u);
}

TEST_F(WalTest, TruncatedFrameStopsAtLastCleanRecord) {
  {
    WalWriter writer(path_, FsyncPolicy::kNever);
    ASSERT_TRUE(writer.append(lu(1, 1.0, 5.0, 5.0)));
    ASSERT_TRUE(writer.append(lu(2, 1.0, 6.0, 6.0)));
  }
  std::vector<std::uint8_t> bytes = file_bytes();
  const WalReadResult clean = read_wal(path_);
  ASSERT_EQ(clean.records.size(), 2u);
  // Chop the last record mid-frame: a torn tail after a crash.
  bytes.resize(bytes.size() - 7);
  write_bytes(bytes);

  const WalReadResult result = read_wal(path_);
  EXPECT_EQ(result.status, WalReadStatus::kTruncated);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.consistent_bytes, clean.record_ends[0]);
  const auto* first = std::get_if<wire::LuMsg>(&result.records[0]);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->mn, 1u);
}

TEST_F(WalTest, BadCrcStopsDeterministically) {
  {
    WalWriter writer(path_, FsyncPolicy::kNever);
    ASSERT_TRUE(writer.append(lu(1, 1.0, 5.0, 5.0)));
    ASSERT_TRUE(writer.append(lu(2, 1.0, 6.0, 6.0)));
    ASSERT_TRUE(writer.append(lu(3, 1.0, 7.0, 7.0)));
  }
  std::vector<std::uint8_t> bytes = file_bytes();
  const WalReadResult clean = read_wal(path_);
  ASSERT_EQ(clean.records.size(), 3u);
  // Flip one payload bit inside the second record.
  bytes[clean.record_ends[0] + 12] ^= 0x01;
  write_bytes(bytes);

  const WalReadResult result = read_wal(path_);
  EXPECT_EQ(result.status, WalReadStatus::kBadCrc);
  EXPECT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.consistent_bytes, clean.record_ends[0]);
  // Reading again gives the identical answer — the stop is deterministic.
  const WalReadResult again = read_wal(path_);
  EXPECT_EQ(again.status, WalReadStatus::kBadCrc);
  EXPECT_EQ(again.consistent_bytes, result.consistent_bytes);
}

TEST_F(WalTest, GarbageHeaderThrows) {
  write_bytes({'G', 'A', 'R', 'B', 'A', 'G', 'E', '!', 0, 1, 2, 3});
  EXPECT_THROW((void)read_wal(path_), std::runtime_error);
  // The writer must also refuse: appending to a foreign file would corrupt
  // someone else's data.
  EXPECT_THROW(WalWriter(path_, FsyncPolicy::kNever), std::runtime_error);
}

TEST_F(WalTest, VersionSkewThrows) {
  std::vector<std::uint8_t> header(kWalHeader, kWalHeader + 8);
  header[4] = 99;  // future version byte
  write_bytes(header);
  EXPECT_THROW((void)read_wal(path_), std::runtime_error);
  EXPECT_THROW(WalWriter(path_, FsyncPolicy::kNever), std::runtime_error);
}

TEST_F(WalTest, ZeroLengthFileThrowsOnReadButWriterAdopts) {
  write_bytes({});
  // A zero-length file has no header: the reader treats it as foreign...
  EXPECT_THROW((void)read_wal(path_), std::runtime_error);
  // ...but the writer adopts it (fresh header), like a new file.
  {
    WalWriter writer(path_, FsyncPolicy::kNever);
    ASSERT_TRUE(writer.append(lu(1, 1.0, 0.0, 0.0)));
  }
  EXPECT_EQ(read_wal(path_).records.size(), 1u);
}

TEST_F(WalTest, HeaderOnlyFileReadsAsEmpty) {
  { WalWriter writer(path_, FsyncPolicy::kNever); }
  const WalReadResult result = read_wal(path_);
  EXPECT_EQ(result.status, WalReadStatus::kEnd);
  EXPECT_TRUE(result.records.empty());
  EXPECT_EQ(result.consistent_bytes, sizeof(kWalHeader));
}

TEST_F(WalTest, MissingFileThrows) {
  EXPECT_THROW((void)read_wal((dir_ / "nope.log").string()),
               std::runtime_error);
}

TEST_F(WalTest, GarbageBetweenRecordsIsBadCrcNotACrash) {
  {
    WalWriter writer(path_, FsyncPolicy::kNever);
    ASSERT_TRUE(writer.append(lu(1, 1.0, 5.0, 5.0)));
  }
  std::vector<std::uint8_t> bytes = file_bytes();
  // Append 64 random-ish bytes: enough for a crc + header, none valid.
  for (int i = 0; i < 64; ++i) {
    bytes.push_back(static_cast<std::uint8_t>(37 * i + 11));
  }
  write_bytes(bytes);
  const WalReadResult result = read_wal(path_);
  EXPECT_NE(result.status, WalReadStatus::kEnd);
  EXPECT_EQ(result.records.size(), 1u);
}

TEST_F(WalTest, TruncateWalDropsTornTail) {
  {
    WalWriter writer(path_, FsyncPolicy::kNever);
    ASSERT_TRUE(writer.append(lu(1, 1.0, 5.0, 5.0)));
    ASSERT_TRUE(writer.append(lu(2, 1.0, 6.0, 6.0)));
  }
  std::vector<std::uint8_t> bytes = file_bytes();
  bytes.resize(bytes.size() - 3);
  write_bytes(bytes);
  const WalReadResult torn = read_wal(path_);
  ASSERT_EQ(torn.status, WalReadStatus::kTruncated);

  ASSERT_TRUE(truncate_wal(path_, torn.consistent_bytes));
  const WalReadResult result = read_wal(path_);
  EXPECT_EQ(result.status, WalReadStatus::kEnd);
  EXPECT_EQ(result.records.size(), 1u);
  // A writer reopened on the truncated file appends cleanly.
  {
    WalWriter writer(path_, FsyncPolicy::kNever);
    ASSERT_TRUE(writer.append(lu(2, 2.0, 7.0, 7.0)));
  }
  EXPECT_EQ(read_wal(path_).records.size(), 2u);
}

TEST_F(WalTest, EveryRecordPolicySurvivesRoundTrip) {
  {
    WalWriter writer(path_, FsyncPolicy::kEveryRecord);
    ASSERT_TRUE(writer.append(lu(1, 1.0, 5.0, 5.0)));
    ASSERT_TRUE(writer.append_tick(1.0, 1));
    ASSERT_TRUE(writer.sync());
  }
  EXPECT_EQ(read_wal(path_).records.size(), 2u);
}

TEST_F(WalTest, AppendsWithoutATickStayBoundedAndReadBack) {
  constexpr std::uint32_t kLus = 100000;
  WalWriter writer(path_, FsyncPolicy::kNever);
  for (std::uint32_t i = 0; i < kLus; ++i) {
    ASSERT_TRUE(writer.append(lu(i % 97, 1.0 + i / 97, 1.0, 2.0)));
  }
  // The buffer passed its bound many times over: all but the last
  // kWalMaxPendingBytes already sit in the file.
  const std::uint64_t on_disk = fs::file_size(path_);
  EXPECT_GE(on_disk + kWalMaxPendingBytes,
            sizeof(kWalHeader) + writer.bytes_appended());
  ASSERT_TRUE(writer.write_pending());
  EXPECT_EQ(fs::file_size(path_),
            sizeof(kWalHeader) + writer.bytes_appended());
  const WalReadResult result = read_wal(path_);
  EXPECT_EQ(result.status, WalReadStatus::kEnd);
  ASSERT_EQ(result.records.size(), kLus);
  const auto* last = std::get_if<wire::LuMsg>(&result.records.back());
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->mn, (kLus - 1) % 97);
}

TEST_F(WalTest, TickWritesTheBufferedRecords) {
  WalWriter writer(path_, FsyncPolicy::kNever);
  ASSERT_TRUE(writer.append(lu(1, 1.0, 0.0, 0.0)));
  ASSERT_TRUE(writer.append(lu(2, 1.0, 0.0, 0.0)));
  // Buffered only: the file still holds just its header.
  EXPECT_EQ(fs::file_size(path_), sizeof(kWalHeader));
  ASSERT_TRUE(writer.append_tick(1.0, 1));
  EXPECT_EQ(read_wal(path_).records.size(), 3u);
}

TEST(WalCrc, MatchesKnownCrc32cVectors) {
  using Crc = std::uint32_t (*)(const std::uint8_t*, std::size_t);
  const Crc impls[] = {crc32c, crc32c_table, crc32c_sse42};
  for (const Crc crc : impls) {
    // RFC 3720 appendix B.4 test vectors: 32 zero bytes, 32 0xFF bytes.
    const std::vector<std::uint8_t> zeros(32, 0);
    EXPECT_EQ(crc(zeros.data(), zeros.size()), 0x8A9136AAu);
    const std::vector<std::uint8_t> ones(32, 0xFF);
    EXPECT_EQ(crc(ones.data(), ones.size()), 0x62A8AB43u);
    // "123456789" is the classic check value for CRC-32C: 0xE3069283.
    const std::uint8_t digits[] = {'1', '2', '3', '4', '5', '6',
                                   '7', '8', '9'};
    EXPECT_EQ(crc(digits, sizeof(digits)), 0xE3069283u);
    EXPECT_EQ(crc(digits, 0), 0u);
  }
}

TEST(WalCrc, HardwareAndTablePathsAgreeOnRandomBuffers) {
  std::mt19937 rng(20070612);
  std::vector<std::uint8_t> buffer(257 + 8);
  for (std::uint8_t& byte : buffer) {
    byte = static_cast<std::uint8_t>(rng());
  }
  // Every length 0..257 at several misalignments, so the 8-, 4- and
  // 1-byte steps of the hardware path all meet the table path.
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 257; ++len) {
      const std::uint8_t* data = buffer.data() + offset;
      const std::uint32_t expected = crc32c_table(data, len);
      EXPECT_EQ(crc32c_sse42(data, len), expected) << offset << "+" << len;
      EXPECT_EQ(crc32c(data, len), expected) << offset << "+" << len;
    }
  }
}

}  // namespace
}  // namespace mgrid::serve

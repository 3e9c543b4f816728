// SlabLog: CRC-framed append/read round-trips, torn-tail recovery (the
// SIGKILL-mid-append case), corrupt-record rejection, and the
// meta..commit group scan the checkpoint layer builds on. Also pins the
// on-disk bytes and CRC-32's values, reads back records from the append
// staging buffer and across its flushes, and refuses crafted lengths.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "comm/wire.h"
#include "fl/digest.h"
#include "state/checkpoint.h"
#include "state/slab_log.h"
#include "util/file_io.h"

namespace fedadmm {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::vector<float> Ramp(int n, float base) {
  std::vector<float> v(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) v[static_cast<size_t>(i)] = base + i;
  return v;
}

TEST(SlabLogTest, AppendReadRoundTrip) {
  const std::string path = TempPath("slab_roundtrip.log");
  auto log = SlabLog::Open(path, /*truncate=*/true).ValueOrDie();

  const std::vector<float> slab = Ramp(7, 0.5f);
  const int64_t offset =
      log->AppendFloats(SlabLog::RecordType::kSlab, 3, 1, slab)
          .ValueOrDie();

  SlabLog::Record record;
  ASSERT_TRUE(log->ReadAt(offset, &record).ok());
  EXPECT_EQ(record.type, SlabLog::RecordType::kSlab);
  EXPECT_EQ(record.client, 3);
  EXPECT_EQ(record.slot, 1);
  EXPECT_EQ(record.payload.size(), slab.size() * sizeof(float));

  std::vector<float> decoded(slab.size());
  ASSERT_TRUE(log->ReadFloatsAt(offset, decoded).ok());
  EXPECT_EQ(decoded, slab);
}

TEST(SlabLogTest, ScanVisitsRecordsInFileOrder) {
  const std::string path = TempPath("slab_scan.log");
  auto log = SlabLog::Open(path, /*truncate=*/true).ValueOrDie();
  ASSERT_TRUE(
      log->Append(SlabLog::RecordType::kMeta, 0, 0, 42, {}).ok());
  ASSERT_TRUE(
      log->AppendFloats(SlabLog::RecordType::kSlab, 1, 0, Ramp(3, 1.0f))
          .ok());
  ASSERT_TRUE(
      log->Append(SlabLog::RecordType::kCommit, 0, 0, 42, {}).ok());

  std::vector<SlabLog::RecordType> types;
  std::vector<int64_t> values;
  const int64_t end = log->Scan([&](const SlabLog::Record& r) {
                           types.push_back(r.type);
                           values.push_back(r.value);
                         })
                          .ValueOrDie();
  EXPECT_EQ(end, log->end_offset());
  ASSERT_EQ(types.size(), 3u);
  EXPECT_EQ(types[0], SlabLog::RecordType::kMeta);
  EXPECT_EQ(types[1], SlabLog::RecordType::kSlab);
  EXPECT_EQ(types[2], SlabLog::RecordType::kCommit);
  EXPECT_EQ(values[0], 42);
  EXPECT_EQ(values[2], 42);
}

TEST(SlabLogTest, TornTailIsCutOnReopen) {
  const std::string path = TempPath("slab_torn.log");
  int64_t intact_end = 0;
  {
    auto log = SlabLog::Open(path, /*truncate=*/true).ValueOrDie();
    ASSERT_TRUE(
        log->AppendFloats(SlabLog::RecordType::kSlab, 0, 0, Ramp(5, 2.0f))
            .ok());
    intact_end = log->end_offset();
    ASSERT_TRUE(log->Sync().ok());
  }
  // Simulate a SIGKILL mid-append: garbage half-record past the tail.
  {
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char garbage[] = "SLBG\x01torn-half-record";
    std::fwrite(garbage, 1, sizeof(garbage), f);
    std::fclose(f);
  }
  auto reopened = SlabLog::Open(path, /*truncate=*/false).ValueOrDie();
  // The valid prefix survives; the torn tail is gone and appends resume.
  EXPECT_EQ(reopened->end_offset(), intact_end);
  int visited = 0;
  ASSERT_TRUE(reopened->Scan([&](const SlabLog::Record&) { ++visited; }).ok());
  EXPECT_EQ(visited, 1);
  ASSERT_TRUE(
      reopened->AppendFloats(SlabLog::RecordType::kSlab, 1, 0, Ramp(5, 3.0f))
          .ok());
  EXPECT_GT(reopened->end_offset(), intact_end);
}

TEST(SlabLogTest, CorruptPayloadStopsScanAndFailsReadAt) {
  const std::string path = TempPath("slab_corrupt.log");
  int64_t first_end = 0;
  int64_t second_offset = 0;
  {
    auto log = SlabLog::Open(path, /*truncate=*/true).ValueOrDie();
    ASSERT_TRUE(
        log->AppendFloats(SlabLog::RecordType::kSlab, 0, 0, Ramp(4, 1.0f))
            .ok());
    first_end = log->end_offset();
    second_offset =
        log->AppendFloats(SlabLog::RecordType::kSlab, 1, 0, Ramp(4, 9.0f))
            .ValueOrDie();
    ASSERT_TRUE(log->Sync().ok());
  }
  // Flip one payload byte of the second record (its last byte on disk).
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, -1, SEEK_END), 0);
    const int c = std::fgetc(f);
    ASSERT_EQ(std::fseek(f, -1, SEEK_END), 0);
    std::fputc(c ^ 0xFF, f);
    std::fclose(f);
  }
  auto log = SlabLog::Open(path, /*truncate=*/false).ValueOrDie();
  // Scan keeps the valid prefix only — the corrupt record is dropped, so
  // the reopened log resumes right after record one.
  EXPECT_EQ(log->end_offset(), first_end);
  std::vector<float> decoded(4);
  EXPECT_FALSE(log->ReadFloatsAt(second_offset, decoded).ok());
}

TEST(SlabLogTest, CorruptHeaderRejectsRecord) {
  const std::string path = TempPath("slab_header.log");
  int64_t offset = 0;
  {
    auto log = SlabLog::Open(path, /*truncate=*/true).ValueOrDie();
    offset =
        log->AppendFloats(SlabLog::RecordType::kSlab, 2, 0, Ramp(4, 1.0f))
            .ValueOrDie();
    ASSERT_TRUE(log->Sync().ok());
  }
  // Flip a client-id byte inside the header: the header CRC must catch it.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset) + 5, SEEK_SET), 0);
    const int c = std::fgetc(f);
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset) + 5, SEEK_SET), 0);
    std::fputc(c ^ 0x01, f);
    std::fclose(f);
  }
  auto log = SlabLog::Open(path, /*truncate=*/false).ValueOrDie();
  EXPECT_EQ(log->end_offset(), 0);
  SlabLog::Record record;
  EXPECT_FALSE(log->ReadAt(offset, &record).ok());
}

// The on-disk format is a contract: logs written by earlier builds must
// restore. This fixed sequence of groups (payloads of 0, 1, 7, 8, 1,024 and
// 4,096 bytes, ~1.3 MB in all, so any staging of appends flushes several
// times) must hash to the digest of the original byte-at-a-time writer.
TEST(SlabLogTest, OnDiskBytesArePinned) {
  const std::string path = TempPath("slab_pinned.log");
  auto log = SlabLog::Open(path, /*truncate=*/true).ValueOrDie();
  const size_t sizes[] = {0, 1, 7, 8, 1024, 4096};
  std::vector<uint8_t> bytes(4096);
  int records = 0;
  for (int group = 0; group < 200; ++group) {
    for (size_t i = 0; i < bytes.size(); ++i) {
      bytes[i] = static_cast<uint8_t>(i * 31 + static_cast<size_t>(group));
    }
    const std::span<const uint8_t> all(bytes);
    ASSERT_TRUE(log->Append(SlabLog::RecordType::kMeta, 0, 0, group,
                            all.first(sizes[group % 6]))
                    .ok());
    for (int k = 0; k < 6; ++k) {
      ASSERT_TRUE(log->Append(SlabLog::RecordType::kSlab, group * 7 + k,
                              k % 2, 0, all.first(sizes[k]))
                      .ok());
    }
    ASSERT_TRUE(
        log->Append(SlabLog::RecordType::kCommit, 0, 0, group, {}).ok());
    records += 8;
  }
  ASSERT_TRUE(log->Sync().ok());
  EXPECT_EQ(records, 1600);

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  Fnv1a hash;
  int64_t size = 0;
  char chunk[8192];
  size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    hash.Bytes(chunk, n);
    size += static_cast<int64_t>(n);
  }
  std::fclose(f);
  EXPECT_EQ(size, log->end_offset());
  EXPECT_EQ(Hex(hash.value()), "0x9a715eff1266ce54") << size;
}

// A crafted header whose CRC is valid but whose payload length would wrap
// `offset + header + length` negative: not a record, never an allocation.
TEST(SlabLogTest, OversizePayloadLengthIsNotARecord) {
  const std::string path = TempPath("slab_oversize.log");
  RemoveFileIfExists(path);
  std::vector<uint8_t> bytes;
  wire::Writer header(&bytes);
  header.PutU32(0x47424C53u);  // 'SLBG'
  header.PutU8(static_cast<uint8_t>(SlabLog::RecordType::kMeta));
  header.PutU32(0);
  header.PutU32(0);
  header.PutU64(1);
  header.PutU64((uint64_t{1} << 63) + 100);
  header.PutU32(0);
  header.PutU32(Crc32(bytes.data(), bytes.size()));
  const std::string_view payload = "payload";
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
  }
  auto loaded = LoadLatestSimulationCheckpoint(path);
  EXPECT_TRUE(loaded.status().IsNotFound()) << loaded.status().ToString();
  auto log = SlabLog::Open(path, /*truncate=*/false).ValueOrDie();
  EXPECT_EQ(log->end_offset(), 0);
  RemoveFileIfExists(path);
}

// Appends are staged in memory; every read must see staged bytes, bytes
// already written out, and records split between the two.
TEST(SlabLogTest, ReadsSeeStagedAndStraddlingRecords) {
  const std::string path = TempPath("slab_staged.log");
  constexpr int64_t kStage =
      static_cast<int64_t>(RandomAccessFile::kStagingBytes);
  auto log = SlabLog::Open(path, /*truncate=*/true).ValueOrDie();
  ASSERT_TRUE(log->Append(SlabLog::RecordType::kCommit, 0, 0, 0, {}).ok());
  const int64_t header_size = log->end_offset();

  struct Written {
    int64_t offset;
    std::vector<uint8_t> payload;
  };
  std::vector<Written> written;
  auto append = [&](int client, size_t len) {
    std::vector<uint8_t> payload(len);
    for (size_t i = 0; i < len; ++i) {
      payload[i] = static_cast<uint8_t>(i * 7 + static_cast<size_t>(client));
    }
    const int64_t offset =
        log->Append(SlabLog::RecordType::kSlab, client, 0, 0, payload)
            .ValueOrDie();
    written.push_back({offset, std::move(payload)});
  };
  // The second record's header straddles the first flush; then 4,000-byte
  // slabs run past the second and third.
  append(1, static_cast<size_t>(kStage - 2 * header_size - 10));
  append(2, 4096);
  for (int client = 3; log->end_offset() < 3 * kStage + 5000; ++client) {
    append(client, 4000);
  }
  int header_straddles = 0;
  int payload_straddles = 0;
  for (const Written& w : written) {
    const int64_t boundary = (w.offset / kStage + 1) * kStage;
    const int64_t end =
        w.offset + header_size + static_cast<int64_t>(w.payload.size());
    if (boundary < w.offset + header_size) ++header_straddles;
    else if (boundary < end) ++payload_straddles;
  }
  EXPECT_GE(header_straddles, 1);
  EXPECT_GE(payload_straddles, 1);
  // The tail is still staged: the file holds less than the log.
  struct stat st {};
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  EXPECT_LT(static_cast<int64_t>(st.st_size), log->end_offset());
  EXPECT_GT(written.back().offset, static_cast<int64_t>(st.st_size));

  auto check_all = [&](const SlabLog& l) {
    for (size_t i = 0; i < written.size(); ++i) {
      const Written& w = written[i];
      SlabLog::Record record;
      ASSERT_TRUE(l.ReadAt(w.offset, &record).ok()) << i;
      EXPECT_EQ(record.client, static_cast<int>(i) + 1) << i;
      ASSERT_EQ(record.payload.size(), w.payload.size()) << i;
      EXPECT_EQ(std::memcmp(record.payload.data(), w.payload.data(),
                            w.payload.size()),
                0)
          << i;
      if (w.payload.size() % sizeof(float) == 0) {
        std::vector<float> floats(w.payload.size() / sizeof(float));
        ASSERT_TRUE(l.ReadFloatsAt(w.offset, floats).ok()) << i;
        EXPECT_EQ(std::memcmp(floats.data(), w.payload.data(),
                              w.payload.size()),
                  0)
            << i;
      }
    }
  };
  check_all(*log);
  int scanned = 0;
  EXPECT_EQ(log->Scan([&](const SlabLog::Record&) { ++scanned; })
                .ValueOrDie(),
            log->end_offset());
  EXPECT_EQ(scanned, static_cast<int>(written.size()) + 1);
  const int64_t end = log->end_offset();
  log.reset();  // close writes the staged tail out

  auto reopened = SlabLog::Open(path, /*truncate=*/false).ValueOrDie();
  EXPECT_EQ(reopened->end_offset(), end);
  check_all(*reopened);
  RemoveFileIfExists(path);
}

// A SIGKILL loses only what was appended after the last Sync: the synced
// group restores whole, and the valid prefix reaches the synced end.
TEST(SlabLogTest, KillAfterSyncKeepsSyncedGroup) {
  const std::string path = TempPath("slab_kill.log");
  RemoveFileIfExists(path);
  constexpr int kSlabs = 600;  // ~640 KB: the group spans several flushes
  const std::vector<float> slab = Ramp(256, 0.25f);
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: one synced group, then the start of another that stays in the
    // staging buffer, then wait to be killed.
    close(fds[0]);
    auto log = SlabLog::Open(path, /*truncate=*/true).ValueOrDie();
    const std::string blob = "engine";
    const std::span<const uint8_t> meta(
        reinterpret_cast<const uint8_t*>(blob.data()), blob.size());
    bool ok = log->Append(SlabLog::RecordType::kMeta, 0, 0, 1, meta).ok();
    for (int client = 0; ok && client < kSlabs; ++client) {
      ok = log->AppendFloats(SlabLog::RecordType::kSlab, client, 0, slab)
               .ok();
    }
    ok = ok && log->Append(SlabLog::RecordType::kCommit, 0, 0, 1, {}).ok() &&
         log->Sync().ok();
    const int64_t synced_end = ok ? log->end_offset() : -1;
    (void)log->Append(SlabLog::RecordType::kMeta, 0, 0, 2, meta);
    (void)log->AppendFloats(SlabLog::RecordType::kSlab, 0, 0, slab);
    (void)!write(fds[1], &synced_end, sizeof(synced_end));
    while (true) pause();
  }
  close(fds[1]);
  int64_t synced_end = 0;
  ASSERT_EQ(read(fds[0], &synced_end, sizeof(synced_end)),
            static_cast<ssize_t>(sizeof(synced_end)));
  kill(child, SIGKILL);
  int status = 0;
  waitpid(child, &status, 0);
  close(fds[0]);
  ASSERT_GT(synced_end, 0);

  const auto loaded = LoadLatestSimulationCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const SimulationCheckpoint& checkpoint = loaded.ValueOrDie();
  EXPECT_EQ(checkpoint.round, 1);
  EXPECT_EQ(checkpoint.engine_blob, "engine");
  ASSERT_EQ(checkpoint.slabs.size(), static_cast<size_t>(kSlabs));
  auto log = SlabLog::Open(path, /*truncate=*/false).ValueOrDie();
  EXPECT_GE(log->end_offset(), synced_end);
  std::vector<float> value(slab.size());
  for (int client = 0; client < kSlabs; ++client) {
    const SimulationCheckpoint::Slab& restored =
        checkpoint.slabs[static_cast<size_t>(client)];
    EXPECT_EQ(restored.client, client);
    ASSERT_TRUE(log->ReadFloatsAt(restored.offset, value).ok()) << client;
    EXPECT_EQ(value, slab);
  }
  RemoveFileIfExists(path);
}

// Reference CRC-32: one bit at a time, no table.
uint32_t BitwiseCrc32Step(uint32_t state, uint8_t byte) {
  state ^= byte;
  for (int k = 0; k < 8; ++k) {
    state = (state >> 1) ^ (0xEDB88320u & (0u - (state & 1u)));
  }
  return state;
}

TEST(Crc32Test, KnownAnswers) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  EXPECT_EQ(Crc32("a", 1), 0xE8B7BE43u);
}

TEST(Crc32Test, SeedChainsIncrementalComputations) {
  std::vector<uint8_t> data(1000);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  const uint32_t whole = Crc32(data.data(), data.size());
  for (size_t split : {0, 1, 3, 8, 9, 500, 999, 1000}) {
    const uint32_t head = Crc32(data.data(), split);
    EXPECT_EQ(Crc32(data.data() + split, data.size() - split, head), whole)
        << split;
  }
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  std::vector<uint8_t> data(2100 + 16);
  uint32_t x = 12345;
  for (uint8_t& b : data) {
    x = x * 1103515245u + 12345u;
    b = static_cast<uint8_t>(x >> 24);
  }
  for (size_t offset = 0; offset < 16; ++offset) {
    uint32_t state = 0xFFFFFFFFu;
    for (size_t len = 0; len <= 2100; ++len) {
      ASSERT_EQ(Crc32(data.data() + offset, len), state ^ 0xFFFFFFFFu)
          << "offset " << offset << " length " << len;
      state = BitwiseCrc32Step(state, data[offset + len]);
    }
  }
}

}  // namespace
}  // namespace fedadmm

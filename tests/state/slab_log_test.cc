// SlabLog: CRC-framed append/read round-trips, torn-tail recovery (the
// SIGKILL-mid-append case), corrupt-record rejection, and the
// meta..commit group scan the checkpoint layer builds on.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

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

TEST(ByteCodecTest, WriterReaderRoundTrip) {
  ByteWriter writer;
  writer.U8(7);
  writer.U32(123456u);
  writer.I64(-42);
  writer.F64(3.5);
  writer.String("fedadmm");
  writer.Floats(std::vector<float>{1.0f, -2.0f, 0.25f});
  writer.Floats(std::vector<float>{});
  const std::string blob = writer.Take();

  ByteReader reader(blob);
  EXPECT_EQ(reader.U8().ValueOrDie(), 7);
  EXPECT_EQ(reader.U32().ValueOrDie(), 123456u);
  EXPECT_EQ(reader.I64().ValueOrDie(), -42);
  EXPECT_EQ(reader.F64().ValueOrDie(), 3.5);
  EXPECT_EQ(reader.String().ValueOrDie(), "fedadmm");
  EXPECT_EQ(reader.Floats().ValueOrDie(),
            (std::vector<float>{1.0f, -2.0f, 0.25f}));
  EXPECT_EQ(reader.Floats().ValueOrDie(), std::vector<float>{});
  EXPECT_TRUE(reader.empty());
  // Exhausted buffer: further reads are IoError, not garbage.
  EXPECT_FALSE(reader.U8().ok());
}

}  // namespace
}  // namespace fedadmm

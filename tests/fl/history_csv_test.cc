// The shared per-round CSV schema (fl/history_csv.h): canonical columns,
// bitwise round-trip through History::WriteCsv / ReadHistoryCsv, and the
// context-column writer the benches use.

#include "fl/history_csv.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

namespace fedadmm {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + name;
}

RoundRecord SampleRecord(int round) {
  RoundRecord r;
  r.round = round;
  r.num_selected = 9;
  r.train_loss = 0.12345678901234567;
  r.test_accuracy = round % 2 == 0
                        ? 0.875
                        : std::numeric_limits<double>::quiet_NaN();
  r.test_loss = 1.5e-3;
  r.upload_bytes = 123456789012345LL;
  r.download_bytes = 987654321;
  r.upload_bytes_raw = 223456789012345LL;
  r.download_bytes_raw = 1987654321;
  r.sim_seconds = 7234.5678901234567;
  r.num_dropped = 3;
  r.num_admitted_partial = 1;
  r.staleness_mean = 2.6666666666666665;
  r.staleness_max = 7;
  r.state_bytes_resident = 3456789012345LL;
  return r;
}

// NaN-aware bitwise equality.
bool Same(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) || a == b;
}

void ExpectRecordsEqual(const RoundRecord& a, const RoundRecord& b) {
  EXPECT_EQ(a.round, b.round);
  EXPECT_EQ(a.num_selected, b.num_selected);
  EXPECT_TRUE(Same(a.train_loss, b.train_loss));
  EXPECT_TRUE(Same(a.test_accuracy, b.test_accuracy));
  EXPECT_TRUE(Same(a.test_loss, b.test_loss));
  EXPECT_EQ(a.upload_bytes, b.upload_bytes);
  EXPECT_EQ(a.download_bytes, b.download_bytes);
  EXPECT_EQ(a.upload_bytes_raw, b.upload_bytes_raw);
  EXPECT_EQ(a.download_bytes_raw, b.download_bytes_raw);
  EXPECT_TRUE(Same(a.sim_seconds, b.sim_seconds));
  EXPECT_EQ(a.num_dropped, b.num_dropped);
  EXPECT_EQ(a.num_admitted_partial, b.num_admitted_partial);
  EXPECT_TRUE(Same(a.staleness_mean, b.staleness_mean));
  EXPECT_EQ(a.staleness_max, b.staleness_max);
  EXPECT_EQ(a.state_bytes_resident, b.state_bytes_resident);
}

TEST(HistoryCsvTest, RowFormatterRoundTripsBitwise) {
  const RoundRecord record = SampleRecord(3);
  const auto parsed = RoundFromCsvRow(RoundCsvRow(record));
  ASSERT_TRUE(parsed.ok());
  ExpectRecordsEqual(record, parsed.ValueOrDie());
}

TEST(HistoryCsvTest, RowHasOneFieldPerColumn) {
  EXPECT_EQ(RoundCsvRow(SampleRecord(0)).size(), RoundCsvColumns().size());
}

TEST(HistoryCsvTest, HistoryWriteReadRoundTrip) {
  History history;
  for (int round = 0; round < 5; ++round) history.Add(SampleRecord(round));
  const std::string path = TempPath("history_roundtrip.csv");
  ASSERT_TRUE(history.WriteCsv(path).ok());

  const auto loaded = ReadHistoryCsv(path);
  ASSERT_TRUE(loaded.ok());
  const History& back = loaded.ValueOrDie();
  ASSERT_EQ(back.size(), history.size());
  for (int i = 0; i < history.size(); ++i) {
    ExpectRecordsEqual(history.records()[static_cast<size_t>(i)],
                       back.records()[static_cast<size_t>(i)]);
  }
  std::remove(path.c_str());
}

TEST(HistoryCsvTest, ContextColumnsPrefixEveryRow) {
  const std::string path = TempPath("history_context.csv");
  HistoryCsvWriter writer;
  ASSERT_TRUE(writer.Open(path, {"preset", "algorithm"}).ok());
  ASSERT_TRUE(writer.Append({"cellular", "FedADMM"}, SampleRecord(0)).ok());
  ASSERT_TRUE(writer.Append({"cellular", "FedAvg"}, SampleRecord(1)).ok());
  // Wrong context arity is rejected, not silently misaligned.
  EXPECT_FALSE(writer.Append({"cellular"}, SampleRecord(2)).ok());
  ASSERT_TRUE(writer.Close().ok());

  const auto rows = ReadCsvFile(path);
  ASSERT_TRUE(rows.ok());
  const auto& parsed = rows.ValueOrDie();
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed[0][0], "preset");
  EXPECT_EQ(parsed[0][1], "algorithm");
  EXPECT_EQ(parsed[0].size(), 2 + RoundCsvColumns().size());
  EXPECT_EQ(parsed[1][0], "cellular");
  EXPECT_EQ(parsed[2][1], "FedAvg");
  std::remove(path.c_str());
}

TEST(HistoryCsvTest, RejectsMalformedRows) {
  EXPECT_FALSE(RoundFromCsvRow({"1", "2"}).ok());
  std::vector<std::string> fields = RoundCsvRow(SampleRecord(0));
  fields[2] = "not-a-number";
  EXPECT_FALSE(RoundFromCsvRow(fields).ok());
}

TEST(HistoryCsvTest, ReadRejectsForeignHeader) {
  const std::string path = TempPath("history_bad_header.csv");
  {
    CsvWriter writer;
    ASSERT_TRUE(writer.Open(path).ok());
    ASSERT_TRUE(writer.WriteRow({"round", "something_else"}).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  EXPECT_FALSE(ReadHistoryCsv(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fedadmm

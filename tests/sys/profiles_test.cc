#include "sys/profiles.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace fedadmm {
namespace {

TEST(FleetModelTest, UnknownPresetIsRejected) {
  EXPECT_FALSE(FleetModel::FromPreset("warp-drive", 10, 1).ok());
  EXPECT_FALSE(FleetModel::FromPreset("uniform", 0, 1).ok());
}

TEST(FleetModelTest, AllPresetNamesBuild) {
  for (const std::string& preset : FleetPresetNames()) {
    const auto fleet = FleetModel::FromPreset(preset, 16, 7);
    ASSERT_TRUE(fleet.ok()) << preset;
    EXPECT_EQ(fleet.ValueOrDie().num_clients(), 16);
    EXPECT_EQ(fleet.ValueOrDie().name(), preset);
  }
}

TEST(FleetModelTest, PresetSamplingIsDeterministic) {
  for (const std::string& preset : FleetPresetNames()) {
    const FleetModel a = FleetModel::FromPreset(preset, 32, 5).ValueOrDie();
    const FleetModel b = FleetModel::FromPreset(preset, 32, 5).ValueOrDie();
    for (int c = 0; c < 32; ++c) {
      EXPECT_EQ(a.profile(c).device.steps_per_second,
                b.profile(c).device.steps_per_second)
          << preset << " client " << c;
      EXPECT_EQ(a.profile(c).network.upload_bytes_per_second,
                b.profile(c).network.upload_bytes_per_second);
    }
  }
}

TEST(FleetModelTest, DifferentSeedsDiverge) {
  const FleetModel a =
      FleetModel::FromPreset("lognormal-speed", 32, 5).ValueOrDie();
  const FleetModel b =
      FleetModel::FromPreset("lognormal-speed", 32, 6).ValueOrDie();
  bool any_diff = false;
  for (int c = 0; c < 32; ++c) {
    any_diff |= a.profile(c).device.steps_per_second !=
                b.profile(c).device.steps_per_second;
  }
  EXPECT_TRUE(any_diff);
}

TEST(FleetModelTest, ProfilesStayInSaneRanges) {
  for (const std::string& preset : FleetPresetNames()) {
    const FleetModel fleet = FleetModel::FromPreset(preset, 64, 3).ValueOrDie();
    for (int c = 0; c < fleet.num_clients(); ++c) {
      const ClientSystemProfile& p = fleet.profile(c);
      EXPECT_GT(p.device.steps_per_second, 0.0);
      EXPECT_GT(p.device.availability, 0.0);
      EXPECT_LE(p.device.availability, 1.0);
      EXPECT_GT(p.network.upload_bytes_per_second, 0.0);
      EXPECT_GT(p.network.download_bytes_per_second, 0.0);
      EXPECT_GE(p.network.latency_seconds, 0.0);
    }
  }
}

TEST(FleetModelTest, ChurnPresetHasLowAvailability) {
  const FleetModel fleet =
      FleetModel::FromPreset("cross-device-churn", 64, 3).ValueOrDie();
  for (int c = 0; c < fleet.num_clients(); ++c) {
    EXPECT_LE(fleet.profile(c).device.availability, 0.6);
  }
}

TEST(FleetModelTest, AvailabilityIsDeterministicPerStream) {
  const FleetModel fleet =
      FleetModel::FromPreset("cross-device-churn", 16, 9).ValueOrDie();
  const Rng stream(42);
  for (int c = 0; c < 16; ++c) {
    EXPECT_EQ(fleet.IsAvailable(c, 3, stream), fleet.IsAvailable(c, 3, stream));
  }
}

TEST(FleetModelTest, TraceOverridesProbability) {
  ClientSystemProfile p;
  p.device.availability = 1.0;
  p.device.availability_trace = {1, 0, 0};  // period-3 trace
  FleetModel fleet({p});
  const Rng stream(1);
  EXPECT_TRUE(fleet.IsAvailable(0, 0, stream));
  EXPECT_FALSE(fleet.IsAvailable(0, 1, stream));
  EXPECT_FALSE(fleet.IsAvailable(0, 2, stream));
  EXPECT_TRUE(fleet.IsAvailable(0, 3, stream));  // wraps around
}

TEST(FleetModelTest, CsvRoundTrip) {
  FleetModel fleet = FleetModel::FromPreset("cellular", 8, 11).ValueOrDie();
  const std::string path = ::testing::TempDir() + "/fleet_roundtrip.csv";
  ASSERT_TRUE(fleet.WriteCsv(path).ok());
  const auto loaded = FleetModel::FromTraceCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.ValueOrDie().num_clients(), 8);
  for (int c = 0; c < 8; ++c) {
    const ClientSystemProfile& a = fleet.profile(c);
    const ClientSystemProfile& b = loaded.ValueOrDie().profile(c);
    EXPECT_DOUBLE_EQ(a.device.steps_per_second, b.device.steps_per_second);
    EXPECT_DOUBLE_EQ(a.network.upload_bytes_per_second,
                     b.network.upload_bytes_per_second);
    EXPECT_DOUBLE_EQ(a.network.download_bytes_per_second,
                     b.network.download_bytes_per_second);
    EXPECT_DOUBLE_EQ(a.network.latency_seconds, b.network.latency_seconds);
    EXPECT_DOUBLE_EQ(a.device.availability, b.device.availability);
  }
  std::remove(path.c_str());
}

TEST(FleetModelTest, CsvTraceColumnRoundTrips) {
  ClientSystemProfile p;
  p.device.availability_trace = {1, 1, 0, 1};
  FleetModel fleet({p});
  const std::string path = ::testing::TempDir() + "/fleet_trace.csv";
  ASSERT_TRUE(fleet.WriteCsv(path).ok());
  const FleetModel loaded = FleetModel::FromTraceCsv(path).ValueOrDie();
  EXPECT_EQ(loaded.profile(0).device.availability_trace,
            (std::vector<uint8_t>{1, 1, 0, 1}));
  std::remove(path.c_str());
}

TEST(FleetModelTest, CrlfTerminatedTraceCsvParsesExactly) {
  // Fleet traces exported on Windows (or shuttled through tools that
  // normalize to \r\n) must load with every numeric field exact — the old
  // parser swallowed unquoted CRs silently, which at least left numbers
  // intact, but a strict-suffix numeric validator would reject "1\r";
  // either way CRLF handling belongs in the parser, not each caller.
  const std::string path = ::testing::TempDir() + "/fleet_crlf.csv";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs(
      "client,steps_per_second,upload_bytes_per_second,"
      "download_bytes_per_second,latency_seconds,availability,trace\r\n"
      "0,123.5,1048576,2097152,0.025,0.75,101\r\n"
      "1,16777217,1e6,1e6,0.01,1,\r\n",
      f);
  std::fclose(f);
  const auto loaded = FleetModel::FromTraceCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const FleetModel& fleet = loaded.ValueOrDie();
  ASSERT_EQ(fleet.num_clients(), 2);
  EXPECT_DOUBLE_EQ(fleet.profile(0).device.steps_per_second, 123.5);
  EXPECT_DOUBLE_EQ(fleet.profile(0).network.upload_bytes_per_second,
                   1048576.0);
  EXPECT_DOUBLE_EQ(fleet.profile(0).network.download_bytes_per_second,
                   2097152.0);
  EXPECT_DOUBLE_EQ(fleet.profile(0).network.latency_seconds, 0.025);
  EXPECT_DOUBLE_EQ(fleet.profile(0).device.availability, 0.75);
  EXPECT_EQ(fleet.profile(0).device.availability_trace,
            (std::vector<uint8_t>{1, 0, 1}));
  // The last field of a CRLF row must not carry the '\r' (it is the trace
  // column here; an empty trace must stay empty, not become "\r").
  EXPECT_TRUE(fleet.profile(1).device.availability_trace.empty());
  // > 2^24: digit-exact through parse (pairs with the writer guarantee).
  EXPECT_DOUBLE_EQ(fleet.profile(1).device.steps_per_second, 16777217.0);
  std::remove(path.c_str());
}

TEST(FleetModelTest, MalformedCsvIsRejected) {
  const std::string path = ::testing::TempDir() + "/fleet_bad.csv";
  auto write = [&](const char* body) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(body, f);
    std::fclose(f);
  };
  const char* header =
      "client,steps_per_second,upload_bytes_per_second,"
      "download_bytes_per_second,latency_seconds,availability,trace\n";
  // Negative throughput.
  write((std::string(header) + "0,-5,1e6,1e6,0.01,1,\n").c_str());
  EXPECT_FALSE(FleetModel::FromTraceCsv(path).ok());
  // Availability above 1.
  write((std::string(header) + "0,10,1e6,1e6,0.01,1.5,\n").c_str());
  EXPECT_FALSE(FleetModel::FromTraceCsv(path).ok());
  // Duplicate client id.
  write((std::string(header) + "0,10,1e6,1e6,0.01,1,\n0,10,1e6,1e6,0.01,1,\n")
            .c_str());
  EXPECT_FALSE(FleetModel::FromTraceCsv(path).ok());
  // Client id out of range.
  write((std::string(header) + "7,10,1e6,1e6,0.01,1,\n").c_str());
  EXPECT_FALSE(FleetModel::FromTraceCsv(path).ok());
  // Garbage trace characters.
  write((std::string(header) + "0,10,1e6,1e6,0.01,1,10x1\n").c_str());
  EXPECT_FALSE(FleetModel::FromTraceCsv(path).ok());
  // Non-numeric client id must not silently parse as 0.
  write((std::string(header) + "c0,10,1e6,1e6,0.01,1,\n").c_str());
  EXPECT_FALSE(FleetModel::FromTraceCsv(path).ok());
  // Ids past INT_MAX must not wrap: 2^31 into a negative index, 2^32 into
  // client 0.
  for (const char* id : {"2147483648", "4294967296"}) {
    write((std::string(header) + id + ",10,1e6,1e6,0.01,1,\n").c_str());
    const auto fleet = FleetModel::FromTraceCsv(path);
    ASSERT_FALSE(fleet.ok()) << id;
    EXPECT_NE(fleet.status().message().find("bad client id"), std::string::npos)
        << fleet.status().message();
  }
  // Non-numeric latency must not silently parse as 0.
  write((std::string(header) + "0,10,1e6,1e6,abc,1,\n").c_str());
  EXPECT_FALSE(FleetModel::FromTraceCsv(path).ok());
  // Trailing junk after a numeric field is rejected too.
  write((std::string(header) + "0,10abc,1e6,1e6,0.01,1,\n").c_str());
  EXPECT_FALSE(FleetModel::FromTraceCsv(path).ok());
  // Reordered columns must be rejected, not silently mis-assigned.
  write(
      "client,availability,steps_per_second,upload_bytes_per_second,"
      "download_bytes_per_second,latency_seconds,trace\n"
      "0,0.5,10,1e6,1e6,0.01,\n");
  EXPECT_FALSE(FleetModel::FromTraceCsv(path).ok());
  // Missing file.
  EXPECT_FALSE(FleetModel::FromTraceCsv(path + ".nope").ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fedadmm

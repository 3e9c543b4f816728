#include "sys/profiles.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <system_error>

#include "util/csv.h"

namespace fedadmm {
namespace {

// Stream tag for availability draws (see Rng::Fork).
constexpr uint64_t kAvailabilityTag = 0xA7A11AB1E;

double Clamp(double v, double lo, double hi) {
  return std::min(std::max(v, lo), hi);
}

// Log-normal compute throughput with median `median` steps/sec and
// log-stddev `sigma`, clamped to a sane device range.
double LogNormalSpeed(double median, double sigma, Rng* rng) {
  return Clamp(median * std::exp(rng->Normal(0.0, sigma)), 2.0, 1.0e4);
}

Result<double> ParseDouble(const std::string& field, const char* what) {
  char* end = nullptr;
  const double v = std::strtod(field.c_str(), &end);
  if (end == field.c_str() || *end != '\0' || !std::isfinite(v)) {
    return Status::InvalidArgument(std::string("FleetModel: bad ") + what +
                                   " value '" + field + "'");
  }
  return v;
}

Result<double> ParsePositive(const std::string& field, const char* what) {
  double v = 0.0;
  FEDADMM_ASSIGN_OR_RETURN(v, ParseDouble(field, what));
  if (v <= 0.0) {
    return Status::InvalidArgument(std::string("FleetModel: ") + what +
                                   " must be > 0, got '" + field + "'");
  }
  return v;
}

// A bare non-negative decimal that fits an int: an id past INT_MAX is
// refused instead of wrapping into a negative or aliased index.
Result<int> ParseClientId(const std::string& field) {
  int v = 0;
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, v);
  if (ec != std::errc() || ptr != end || v < 0) {
    return Status::InvalidArgument("FleetModel: bad client id '" + field +
                                   "'");
  }
  return v;
}

}  // namespace

FleetModel::FleetModel(std::vector<ClientSystemProfile> profiles,
                       std::string name)
    : profiles_(std::move(profiles)), name_(std::move(name)) {
  FEDADMM_CHECK_MSG(!profiles_.empty(), "FleetModel needs >= 1 client");
  for (const ClientSystemProfile& p : profiles_) {
    FEDADMM_CHECK_MSG(p.device.steps_per_second > 0.0 &&
                          p.network.upload_bytes_per_second > 0.0 &&
                          p.network.download_bytes_per_second > 0.0 &&
                          p.network.latency_seconds >= 0.0,
                      "FleetModel: rates must be positive");
    FEDADMM_CHECK_MSG(
        p.device.availability > 0.0 && p.device.availability <= 1.0,
        "FleetModel: availability must be in (0, 1]");
  }
}

Result<FleetModel> FleetModel::FromPreset(const std::string& preset,
                                          int num_clients, uint64_t seed) {
  if (num_clients < 1) {
    return Status::InvalidArgument("FleetModel: num_clients must be >= 1");
  }
  Rng rng = Rng(seed).Fork(0xF1EE7, static_cast<uint64_t>(num_clients));
  std::vector<ClientSystemProfile> profiles(
      static_cast<size_t>(num_clients));
  if (preset == "uniform") {
    // Defaults already describe an identical mid-range fleet.
  } else if (preset == "lognormal-speed") {
    for (ClientSystemProfile& p : profiles) {
      p.device.steps_per_second = LogNormalSpeed(100.0, 0.8, &rng);
    }
  } else if (preset == "cellular") {
    for (ClientSystemProfile& p : profiles) {
      p.device.steps_per_second = LogNormalSpeed(100.0, 0.5, &rng);
      p.device.availability = 0.8;
      if (rng.Bernoulli(0.4)) {  // metered cellular link
        p.network.upload_bytes_per_second = 2.5e5;
        p.network.download_bytes_per_second = 1.0e6;
        p.network.latency_seconds = 0.1;
      } else {  // wifi
        p.network.upload_bytes_per_second = 2.0e6;
        p.network.download_bytes_per_second = 1.0e7;
        p.network.latency_seconds = 0.02;
      }
    }
  } else if (preset == "cross-device-churn") {
    for (ClientSystemProfile& p : profiles) {
      p.device.steps_per_second = LogNormalSpeed(80.0, 1.0, &rng);
      p.device.availability = rng.Uniform(0.1, 0.6);
      p.network.upload_bytes_per_second = 5.0e5 * std::exp(
          rng.Normal(0.0, 0.5));
      p.network.download_bytes_per_second =
          4.0 * p.network.upload_bytes_per_second;
      p.network.latency_seconds = rng.Uniform(0.02, 0.15);
    }
  } else {
    return Status::InvalidArgument("FleetModel: unknown preset '" + preset +
                                   "'");
  }
  return FleetModel(std::move(profiles), preset);
}

Result<FleetModel> FleetModel::FromTraceCsv(const std::string& path) {
  std::vector<std::vector<std::string>> rows;
  FEDADMM_ASSIGN_OR_RETURN(rows, ReadCsvFile(path));
  if (rows.size() < 2) {
    return Status::InvalidArgument("FleetModel: trace CSV needs a header and "
                                   "at least one client row: " +
                                   path);
  }
  // Validate the header: hand-written files with reordered columns would
  // otherwise parse silently into the wrong profile fields.
  const std::vector<std::string> expected = {
      "client",           "steps_per_second", "upload_bytes_per_second",
      "download_bytes_per_second", "latency_seconds", "availability"};
  const std::vector<std::string>& header = rows[0];
  if (header.size() < expected.size() || header.size() > expected.size() + 1 ||
      (header.size() == expected.size() + 1 && header.back() != "trace")) {
    return Status::InvalidArgument(
        "FleetModel: unexpected trace CSV header in " + path);
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (header[i] != expected[i]) {
      return Status::InvalidArgument("FleetModel: trace CSV column " +
                                     std::to_string(i) + " must be '" +
                                     expected[i] + "', got '" + header[i] +
                                     "'");
    }
  }
  std::vector<ClientSystemProfile> profiles(rows.size() - 1);
  std::vector<bool> seen(rows.size() - 1, false);
  for (size_t i = 1; i < rows.size(); ++i) {
    const std::vector<std::string>& row = rows[i];
    if (row.size() < 6 || row.size() > 7) {
      return Status::InvalidArgument(
          "FleetModel: trace CSV rows need 6-7 fields, got " +
          std::to_string(row.size()));
    }
    int client = -1;
    FEDADMM_ASSIGN_OR_RETURN(client, ParseClientId(row[0]));
    if (client >= static_cast<int>(profiles.size())) {
      return Status::InvalidArgument("FleetModel: client id '" + row[0] +
                                     "' out of range");
    }
    if (seen[static_cast<size_t>(client)]) {
      return Status::InvalidArgument("FleetModel: duplicate client id " +
                                     row[0]);
    }
    seen[static_cast<size_t>(client)] = true;
    ClientSystemProfile& p = profiles[static_cast<size_t>(client)];
    FEDADMM_ASSIGN_OR_RETURN(p.device.steps_per_second,
                             ParsePositive(row[1], "steps_per_second"));
    FEDADMM_ASSIGN_OR_RETURN(p.network.upload_bytes_per_second,
                             ParsePositive(row[2], "upload_bytes_per_second"));
    FEDADMM_ASSIGN_OR_RETURN(
        p.network.download_bytes_per_second,
        ParsePositive(row[3], "download_bytes_per_second"));
    FEDADMM_ASSIGN_OR_RETURN(p.network.latency_seconds,
                             ParseDouble(row[4], "latency_seconds"));
    if (p.network.latency_seconds < 0.0) {
      return Status::InvalidArgument("FleetModel: negative latency for " +
                                     row[0]);
    }
    FEDADMM_ASSIGN_OR_RETURN(p.device.availability,
                             ParsePositive(row[5], "availability"));
    if (p.device.availability > 1.0) {
      return Status::InvalidArgument("FleetModel: availability > 1 for " +
                                     row[0]);
    }
    if (row.size() == 7) {
      for (char c : row[6]) {
        if (c != '0' && c != '1') {
          return Status::InvalidArgument(
              "FleetModel: trace must be a string of 0/1, got '" + row[6] +
              "'");
        }
        p.device.availability_trace.push_back(c == '1' ? 1 : 0);
      }
    }
  }
  return FleetModel(std::move(profiles), "trace:" + path);
}

Status FleetModel::WriteCsv(const std::string& path) const {
  CsvWriter writer;
  FEDADMM_RETURN_IF_ERROR(writer.Open(path));
  FEDADMM_RETURN_IF_ERROR(writer.WriteRow(
      {"client", "steps_per_second", "upload_bytes_per_second",
       "download_bytes_per_second", "latency_seconds", "availability",
       "trace"}));
  char buf[64];
  for (int i = 0; i < num_clients(); ++i) {
    const ClientSystemProfile& p = profiles_[static_cast<size_t>(i)];
    std::vector<std::string> row;
    row.push_back(std::to_string(i));
    const double values[] = {
        p.device.steps_per_second, p.network.upload_bytes_per_second,
        p.network.download_bytes_per_second, p.network.latency_seconds,
        p.device.availability};
    for (double v : values) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      row.emplace_back(buf);
    }
    std::string trace;
    for (uint8_t b : p.device.availability_trace) trace += (b ? '1' : '0');
    row.push_back(trace);
    FEDADMM_RETURN_IF_ERROR(writer.WriteRow(row));
  }
  return writer.Close();
}

const ClientSystemProfile& FleetModel::profile(int client) const {
  FEDADMM_CHECK_MSG(client >= 0 && client < num_clients(),
                    "FleetModel: client id out of range");
  return profiles_[static_cast<size_t>(client)];
}

bool FleetModel::IsAvailable(int client, int round, const Rng& stream) const {
  const DeviceProfile& device = profile(client).device;
  if (!device.availability_trace.empty()) {
    const size_t n = device.availability_trace.size();
    return device.availability_trace[static_cast<size_t>(round) % n] != 0;
  }
  Rng draw = stream.Fork(kAvailabilityTag, static_cast<uint64_t>(client));
  return draw.Bernoulli(device.availability);
}

const std::vector<std::string>& FleetPresetNames() {
  static const std::vector<std::string> kNames = {
      "uniform", "lognormal-speed", "cellular", "cross-device-churn"};
  return kNames;
}

}  // namespace fedadmm

#include "fl/history_csv.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace fedadmm {
namespace {

std::string FormatInt(int64_t v) { return std::to_string(v); }

// max_digits10 for double: the shortest form that always round-trips.
std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

Result<int64_t> ParseInt(const std::string& field) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(field.c_str(), &end, 10);
  if (field.empty() || end == nullptr || *end != '\0' || errno == ERANGE) {
    return Status::InvalidArgument("history csv: bad integer field '" +
                                   field + "'");
  }
  return static_cast<int64_t>(v);
}

Result<double> ParseDouble(const std::string& field) {
  char* end = nullptr;
  const double v = std::strtod(field.c_str(), &end);
  if (field.empty() || end == nullptr || *end != '\0') {
    return Status::InvalidArgument("history csv: bad numeric field '" +
                                   field + "'");
  }
  return v;
}

}  // namespace

const std::vector<std::string>& RoundCsvColumns() {
  static const std::vector<std::string>* const kColumns =
      new std::vector<std::string>(
          {"round", "num_selected", "train_loss", "test_accuracy",
           "test_loss", "upload_bytes", "download_bytes", "upload_bytes_raw",
           "download_bytes_raw", "sim_seconds", "num_dropped",
           "num_admitted_partial", "staleness_mean", "staleness_max",
           "state_bytes_resident"});
  return *kColumns;
}

std::vector<std::string> RoundCsvRow(const RoundRecord& r) {
  return {FormatInt(r.round),
          FormatInt(r.num_selected),
          FormatDouble(r.train_loss),
          FormatDouble(r.test_accuracy),
          FormatDouble(r.test_loss),
          FormatInt(r.upload_bytes),
          FormatInt(r.download_bytes),
          FormatInt(r.upload_bytes_raw),
          FormatInt(r.download_bytes_raw),
          FormatDouble(r.sim_seconds),
          FormatInt(r.num_dropped),
          FormatInt(r.num_admitted_partial),
          FormatDouble(r.staleness_mean),
          FormatInt(r.staleness_max),
          FormatInt(r.state_bytes_resident)};
}

Result<RoundRecord> RoundFromCsvRow(const std::vector<std::string>& fields) {
  if (fields.size() != RoundCsvColumns().size()) {
    return Status::InvalidArgument(
        "history csv: expected " +
        std::to_string(RoundCsvColumns().size()) + " fields, got " +
        std::to_string(fields.size()));
  }
  RoundRecord r;
  size_t i = 0;
  FEDADMM_ASSIGN_OR_RETURN(const int64_t round, ParseInt(fields[i++]));
  r.round = static_cast<int>(round);
  FEDADMM_ASSIGN_OR_RETURN(const int64_t selected, ParseInt(fields[i++]));
  r.num_selected = static_cast<int>(selected);
  FEDADMM_ASSIGN_OR_RETURN(r.train_loss, ParseDouble(fields[i++]));
  FEDADMM_ASSIGN_OR_RETURN(r.test_accuracy, ParseDouble(fields[i++]));
  FEDADMM_ASSIGN_OR_RETURN(r.test_loss, ParseDouble(fields[i++]));
  FEDADMM_ASSIGN_OR_RETURN(r.upload_bytes, ParseInt(fields[i++]));
  FEDADMM_ASSIGN_OR_RETURN(r.download_bytes, ParseInt(fields[i++]));
  FEDADMM_ASSIGN_OR_RETURN(r.upload_bytes_raw, ParseInt(fields[i++]));
  FEDADMM_ASSIGN_OR_RETURN(r.download_bytes_raw, ParseInt(fields[i++]));
  FEDADMM_ASSIGN_OR_RETURN(r.sim_seconds, ParseDouble(fields[i++]));
  FEDADMM_ASSIGN_OR_RETURN(const int64_t dropped, ParseInt(fields[i++]));
  r.num_dropped = static_cast<int>(dropped);
  FEDADMM_ASSIGN_OR_RETURN(const int64_t partial, ParseInt(fields[i++]));
  r.num_admitted_partial = static_cast<int>(partial);
  FEDADMM_ASSIGN_OR_RETURN(r.staleness_mean, ParseDouble(fields[i++]));
  FEDADMM_ASSIGN_OR_RETURN(const int64_t stale_max, ParseInt(fields[i++]));
  r.staleness_max = static_cast<int>(stale_max);
  FEDADMM_ASSIGN_OR_RETURN(r.state_bytes_resident, ParseInt(fields[i++]));
  return r;
}

Status HistoryCsvWriter::Open(const std::string& path,
                              std::vector<std::string> context_columns) {
  num_context_columns_ = context_columns.size();
  FEDADMM_RETURN_IF_ERROR(writer_.Open(path));
  std::vector<std::string> header = std::move(context_columns);
  const std::vector<std::string>& round_columns = RoundCsvColumns();
  header.insert(header.end(), round_columns.begin(), round_columns.end());
  return writer_.WriteRow(header);
}

Status HistoryCsvWriter::Append(const std::vector<std::string>& context,
                                const RoundRecord& record) {
  if (context.size() != num_context_columns_) {
    return Status::InvalidArgument(
        "HistoryCsvWriter: context field count mismatch");
  }
  std::vector<std::string> row = context;
  std::vector<std::string> fields = RoundCsvRow(record);
  row.insert(row.end(), std::make_move_iterator(fields.begin()),
             std::make_move_iterator(fields.end()));
  return writer_.WriteRow(row);
}

Status HistoryCsvWriter::AppendHistory(
    const std::vector<std::string>& context, const History& history) {
  for (const RoundRecord& record : history.records()) {
    FEDADMM_RETURN_IF_ERROR(Append(context, record));
  }
  return Status::OK();
}

Status HistoryCsvWriter::Close() { return writer_.Close(); }

Result<History> ReadHistoryCsv(const std::string& path) {
  FEDADMM_ASSIGN_OR_RETURN(const auto rows, ReadCsvFile(path));
  if (rows.empty()) {
    return Status::InvalidArgument("history csv: empty file " + path);
  }
  if (rows[0] != RoundCsvColumns()) {
    return Status::InvalidArgument("history csv: unexpected header in " +
                                   path);
  }
  History history;
  for (size_t i = 1; i < rows.size(); ++i) {
    FEDADMM_ASSIGN_OR_RETURN(const RoundRecord record,
                             RoundFromCsvRow(rows[i]));
    history.Add(record);
  }
  return history;
}

}  // namespace fedadmm

/// \file history_csv.h
/// \brief The canonical per-round CSV schema, shared by History::WriteCsv,
/// the benches and the examples.
///
/// Every consumer used to hand-roll its own header/row writing; by the
/// time the schema grew past a dozen columns the copies had started to
/// drift.
/// This file owns the one column list and the one formatter:
///
///   * `RoundCsvColumns()` / `RoundCsvRow()` — the canonical RoundRecord
///     serialization (doubles at max_digits10, so files round-trip
///     bitwise);
///   * `HistoryCsvWriter` — streams rows prefixed by fixed *context*
///     columns (preset, policy, codec, ... — whatever axes a bench sweeps);
///   * `ReadHistoryCsv` — parses a file written with no context columns
///     back into a `History` (the round-trip used by tests and by offline
///     analysis scripts).

#ifndef FEDADMM_FL_HISTORY_CSV_H_
#define FEDADMM_FL_HISTORY_CSV_H_

#include <string>
#include <vector>

#include "fl/types.h"
#include "util/csv.h"
#include "util/status.h"

namespace fedadmm {

/// \brief The canonical per-round column names, in serialization order.
const std::vector<std::string>& RoundCsvColumns();

/// \brief Formats one record as fields parallel to `RoundCsvColumns()`.
/// Integers print exactly; doubles print at max_digits10 (bitwise
/// round-trippable, NaN prints as "nan").
std::vector<std::string> RoundCsvRow(const RoundRecord& record);

/// \brief Parses fields produced by `RoundCsvRow` back into a record.
/// Returns InvalidArgument on a field-count mismatch or unparsable number.
Result<RoundRecord> RoundFromCsvRow(const std::vector<std::string>& fields);

/// \brief Streams per-round rows, each prefixed by fixed context columns.
class HistoryCsvWriter {
 public:
  /// Opens `path` and writes the header: `context_columns` followed by
  /// `RoundCsvColumns()`. An empty context list yields the plain
  /// History::WriteCsv schema. Every column is a function of the seed and
  /// the inputs, so identical runs write byte-identical files — the
  /// benches' double-run diff depends on it.
  Status Open(const std::string& path,
              std::vector<std::string> context_columns = {});

  /// Writes one row. `context` must match the opened context column count.
  Status Append(const std::vector<std::string>& context,
                const RoundRecord& record);

  /// `Append` for every record of `history`.
  Status AppendHistory(const std::vector<std::string>& context,
                       const History& history);

  /// Flushes and closes the file.
  Status Close();

  /// True between a successful `Open` and `Close`.
  bool is_open() const { return writer_.is_open(); }

 private:
  CsvWriter writer_;
  size_t num_context_columns_ = 0;
};

/// \brief Reads a CSV written with no context columns (History::WriteCsv)
/// back into a History. The header must match `RoundCsvColumns()` exactly.
Result<History> ReadHistoryCsv(const std::string& path);

}  // namespace fedadmm

#endif  // FEDADMM_FL_HISTORY_CSV_H_

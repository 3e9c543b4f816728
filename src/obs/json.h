/// \file json.h
/// \brief Minimal JSON writing and parsing for the observability rail.
///
/// The obs subsystem persists two JSON artifact families — `BENCH_*.json`
/// perf baselines and chrome://tracing event files — and
/// `tools/bench_diff` reads the first back. The environment is offline
/// and dependency-free, so this file owns the one JSON dialect both
/// share:
///
///   * `JsonWriter` — streaming writer with automatic comma/nesting
///     management. Doubles print at max_digits10 (bitwise
///     round-trippable); NaN/Inf — which JSON cannot represent — print as
///     `null`, mirroring how the CSV rail prints "nan".
///   * `JsonValue` / `ParseJson` — a recursive-descent parser for the
///     subset the writer emits (objects, arrays, strings, numbers, bools,
///     null). Object key order is preserved so diffs stay readable.
///
/// Neither side aims at full RFC 8259 (no \u surrogate pairs, no
/// scientific-notation edge policing beyond strtod) — both ends of every
/// artifact are this library.

#ifndef FEDADMM_OBS_JSON_H_
#define FEDADMM_OBS_JSON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace fedadmm::obs {

/// \brief Escapes `text` for inclusion inside a JSON string literal
/// (quotes, backslashes, control characters).
std::string EscapeJson(std::string_view text);

/// \brief Streaming JSON writer with automatic comma insertion.
///
/// Usage:
///   JsonWriter w;
///   w.BeginObject().Key("name").String("x").Key("v").Int(3).EndObject();
///   file << w.str();
///
/// Calls are CHECKed for gross misuse (value with no pending key inside an
/// object, unbalanced End*).
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  /// Writes an object key; the next call must produce its value.
  JsonWriter& Key(std::string_view key);

  JsonWriter& String(std::string_view value);
  JsonWriter& Int(int64_t value);
  /// max_digits10 round-trippable; NaN/Inf emit `null`.
  JsonWriter& Double(double value);
  JsonWriter& Bool(bool value);
  JsonWriter& Null();

  /// The document so far.
  const std::string& str() const { return out_; }
  /// True once every Begin* has been balanced by its End*.
  bool complete() const { return frames_.empty() && wrote_value_; }

 private:
  enum class Frame { kObject, kArray };
  void BeforeValue();

  std::string out_;
  std::vector<Frame> frames_;
  /// Whether the current frame already holds at least one element.
  std::vector<bool> has_elements_;
  bool pending_key_ = false;
  bool wrote_value_ = false;
};

/// \brief A parsed JSON document node.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number = 0.0;
  std::string string;
  /// Object members in source order.
  std::vector<std::pair<std::string, JsonValue>> members;
  /// Array elements in source order.
  std::vector<JsonValue> elements;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_null() const { return kind == Kind::kNull; }

  /// First member named `key`, or nullptr (objects only).
  const JsonValue* Find(std::string_view key) const;
};

/// \brief Parses one JSON document. Trailing non-whitespace is an error.
Result<JsonValue> ParseJson(std::string_view text);

}  // namespace fedadmm::obs

#endif  // FEDADMM_OBS_JSON_H_

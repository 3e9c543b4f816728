#include "state/client_state_store.h"

#include <charconv>
#include <cstdint>
#include <limits>
#include <system_error>

#include "state/lazy_store.h"
#include "state/tiered_store.h"

namespace fedadmm {
namespace {

constexpr char kTieredPrefix[] = "tiered:";

// The one grammar string every factory error quotes, so a bad spec always
// tells the caller both what it said and what would have parsed.
constexpr char kSpecGrammar[] = "lazy | tiered:<capacity_mb|<n>f>:<path>";

// Largest MiB count whose byte size still fits int64.
constexpr int64_t kMaxCapacityMiB = std::numeric_limits<int64_t>::max() >> 20;

Status SpecError(const std::string& spec, const std::string& why) {
  return Status::InvalidArgument("MakeClientStateStore: " + why +
                                 " in spec '" + spec +
                                 "' (accepted: " + kSpecGrammar + ")");
}

// Parses all of `token` as a decimal integer in [1, max]. Out-of-range
// values fail instead of wrapping.
bool ParseCount(const std::string& token, int64_t max, int64_t* out) {
  int64_t n = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, n);
  if (ec != std::errc() || ptr != end || n < 1 || n > max) return false;
  *out = n;
  return true;
}

// Parses the tiered capacity token: "<n>" = n MiB of pool, "<n>f" = exactly
// n frames (the test hook — MiB granularity is useless at toy dims).
bool ParseCapacityToken(const std::string& token, TieredStoreOptions* out) {
  if (!token.empty() && token.back() == 'f') {
    if (!ParseCount(token.substr(0, token.size() - 1),
                    std::numeric_limits<int64_t>::max(),
                    &out->capacity_frames)) {
      return false;
    }
  } else {
    int64_t mib = 0;
    if (!ParseCount(token, kMaxCapacityMiB, &mib)) return false;
    out->capacity_bytes = mib << 20;
  }
  out->capacity_token = token;
  return true;
}

Result<std::unique_ptr<ClientStateStore>> MakeTieredStore(
    const std::string& spec) {
  const std::string arg = spec.substr(sizeof(kTieredPrefix) - 1);
  const size_t colon = arg.find(':');
  if (colon == std::string::npos) {
    return SpecError(spec, "tiered needs a capacity and a path");
  }
  TieredStoreOptions options;
  if (!ParseCapacityToken(arg.substr(0, colon), &options)) {
    return SpecError(spec, "bad tiered capacity '" + arg.substr(0, colon) +
                               "' (want MiB in 1.." +
                               std::to_string(kMaxCapacityMiB) +
                               ", or '<n>f' frames)");
  }
  const std::string rest = arg.substr(colon + 1);
  // Slabs are raw fp32 so they round-trip bitwise through the log; the
  // store takes no inner spec. A trailing spec word would otherwise become
  // part of the file name, so refuse it.
  const size_t tail_colon = rest.rfind(':');
  const std::string tail =
      tail_colon == std::string::npos ? "" : rest.substr(tail_colon + 1);
  if (tail == "dense" || tail == "lazy" ||
      rest.find(":quantized:") != std::string::npos ||
      rest.find(":tiered:") != std::string::npos ||
      rest.find(":sharded:") != std::string::npos) {
    return SpecError(spec,
                     "tiered takes no inner spec (slabs are raw fp32 so "
                     "they replay bitwise)");
  }
  if (rest.empty()) {
    return SpecError(spec, "tiered needs a non-empty slab-log path");
  }
  options.path = rest;
  return {std::make_unique<TieredStateStore>(std::move(options))};
}

}  // namespace

Result<std::unique_ptr<ClientStateStore>> MakeClientStateStore(
    const std::string& spec) {
  if (spec == "lazy") return {std::make_unique<LazyStateStore>()};
  if (spec.rfind(kTieredPrefix, 0) == 0) return MakeTieredStore(spec);
  return SpecError(spec, "unknown spec");
}

}  // namespace fedadmm

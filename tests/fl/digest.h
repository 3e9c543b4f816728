/// \file digest.h
/// \brief FNV-1a hashing for pinning trajectories (θ bits plus record
/// fields) to committed 64-bit digests across versions.

#ifndef FEDADMM_TESTS_FL_DIGEST_H_
#define FEDADMM_TESTS_FL_DIGEST_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

namespace fedadmm {

// FNV-1a over raw bytes.
class Fnv1a {
 public:
  void Bytes(const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void Int(int64_t v) { Bytes(&v, sizeof(v)); }
  // NaN sentinels hash as one canonical pattern.
  void Double(double v) {
    if (std::isnan(v)) v = std::numeric_limits<double>::quiet_NaN();
    Bytes(&v, sizeof(v));
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// A digest as 0x-prefixed hex, so a mismatch prints a pasteable constant.
inline std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace fedadmm

#endif  // FEDADMM_TESTS_FL_DIGEST_H_

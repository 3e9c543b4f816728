// Config-string robustness. Every parser a run configuration feeds —
// codec, client-state store, staleness weight, execution mode and the
// straggler deadline — must answer any mutation of a valid spec with a
// Result: InvalidArgument or a working object, never a CHECK abort and
// never a silent wrap-around to some other valid spec. The mutations are
// seeded, so a failing case replays exactly; the failure message quotes it.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "comm/codec.h"
#include "fl/simulation.h"
#include "fl/staleness.h"
#include "state/client_state_store.h"
#include "sys/system_model.h"
#include "util/rng.h"

namespace fedadmm {
namespace {

constexpr int kCasesPerParser = 1000;

// One mutation of `spec` at a random position: an inserted run of 1..20
// digits (enough to overflow int64), a sign, a space, or a truncation.
std::string Mutate(const std::string& spec, Rng* rng) {
  std::string out = spec;
  const size_t pos = static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(out.size())));
  switch (rng->UniformInt(0, 3)) {
    case 0: {
      const int64_t n = rng->UniformInt(1, 20);
      std::string digits;
      for (int64_t i = 0; i < n; ++i) {
        digits.push_back(static_cast<char>('0' + rng->UniformInt(0, 9)));
      }
      out.insert(pos, digits);
      break;
    }
    case 1:
      out.insert(pos, 1, rng->Bernoulli(0.5) ? '+' : '-');
      break;
    case 2:
      out.insert(pos, 1, ' ');
      break;
    default:
      out.resize(pos);
      break;
  }
  return out;
}

// One or two stacked mutations of a random entry of `specs`.
std::string MutatedSpec(const std::vector<std::string>& specs, Rng* rng) {
  std::string spec = specs[static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(specs.size()) - 1))];
  spec = Mutate(spec, rng);
  if (rng->Bernoulli(0.5)) spec = Mutate(spec, rng);
  return spec;
}

// The spelling an accepted codec spec must name itself back as: the fp16
// alias resolved and leading zeros dropped from the numeric suffix.
// Anything else (a sign, a space, a suffix that wrapped) is a parse bug.
std::string CanonicalCodecSpec(const std::string& spec) {
  if (spec.rfind("ef:", 0) == 0) {
    return "ef:" + CanonicalCodecSpec(spec.substr(3));
  }
  if (spec == "fp16") return "q16";
  const size_t digits = spec.find_first_of("0123456789");
  if (digits == std::string::npos) return spec;
  const size_t first = spec.find_first_not_of('0', digits);
  return spec.substr(0, digits) +
         (first == std::string::npos ? "0" : spec.substr(first));
}

// A refusal must be an InvalidArgument that says what went wrong.
void ExpectRefusal(const Status& status, const std::string& spec) {
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << "'" << spec << "'";
  EXPECT_FALSE(status.message().empty()) << "'" << spec << "'";
}

TEST(SpecFuzzTest, CodecSpecsReturnAResultAndRoundTripTheirNames) {
  std::vector<std::string> specs = UpdateCodecExampleSpecs();
  for (const char* extra : {"q1", "q16", "sq16", "topk1", "topk100", "ef:q8"}) {
    specs.push_back(extra);
  }
  Rng rng(0x5BEC0DEC);
  int accepted = 0;
  for (int i = 0; i < kCasesPerParser; ++i) {
    const std::string spec = MutatedSpec(specs, &rng);
    auto codec = MakeUpdateCodec(spec);
    if (!codec.ok()) {
      ExpectRefusal(codec.status(), spec);
      continue;
    }
    ++accepted;
    // An accepted spec builds the codec it spells, and that codec's name
    // parses back to itself — so "q4294967304" cannot hide behind "q8".
    const std::string name = (*codec)->name();
    EXPECT_EQ(name, CanonicalCodecSpec(spec)) << "'" << spec << "'";
    auto again = MakeUpdateCodec(name);
    ASSERT_TRUE(again.ok()) << "'" << spec << "' -> '" << name << "'";
    EXPECT_EQ((*again)->name(), name) << "'" << spec << "'";
  }
  // The mutations reach both outcomes, or the test proves nothing.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kCasesPerParser);
}

TEST(SpecFuzzTest, StoreSpecsReturnAResult) {
  // A tiered store unlinks its log path when destroyed, so the path stays
  // out of the mutation: mutants can only prefix it, which points into a
  // directory that does not exist.
  const std::string path = ::testing::TempDir() + "/fedadmm_spec_fuzz.slab";
  const std::vector<std::string> heads = {"lazy", "tiered:3f:", "tiered:64:"};
  Rng rng(0x57A7E5EC);
  int accepted = 0;
  for (int i = 0; i < kCasesPerParser; ++i) {
    std::string spec = MutatedSpec(heads, &rng);
    if (spec.rfind("tiered", 0) == 0) spec += path;
    auto store = MakeClientStateStore(spec);
    if (!store.ok()) {
      ExpectRefusal(store.status(), spec);
      continue;
    }
    ++accepted;
    EXPECT_EQ((*store)->name(), spec);
  }
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kCasesPerParser);
}

TEST(SpecFuzzTest, StalenessAndModeSpecsReturnAResult) {
  const std::vector<std::string> staleness = {"constant", "poly:0.5", "poly:2"};
  const std::vector<std::string> modes = {"sync", "buffered", "async"};
  Rng rng(0x57A1E);
  for (int i = 0; i < kCasesPerParser; ++i) {
    const std::string spec = MutatedSpec(staleness, &rng);
    auto weight = MakeStalenessWeight(spec);
    if (!weight.ok()) {
      ExpectRefusal(weight.status(), spec);
      continue;
    }
    // An accepted weight is a discount in [0, 1] at any staleness.
    for (int s : {0, 1, 1000}) {
      const double w = (*weight)(s);
      EXPECT_TRUE(std::isfinite(w) && w >= 0.0 && w <= 1.0)
          << "'" << spec << "' s=" << s << " w=" << w;
    }
  }
  for (int i = 0; i < kCasesPerParser; ++i) {
    const std::string spec = MutatedSpec(modes, &rng);
    auto mode = ParseExecutionMode(spec);
    if (!mode.ok()) {
      ExpectRefusal(mode.status(), spec);
      continue;
    }
    EXPECT_EQ(ExecutionModeName(*mode), spec);
  }
}

TEST(SpecFuzzTest, StragglerDeadlinesReturnAResult) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const char* policy :
       {"wait-for-all", "deadline-drop", "deadline-admit-partial"}) {
    const bool needs_deadline = std::string(policy) != "wait-for-all";
    for (double deadline : {nan, inf, -inf, 0.0, -1.0, 2.5}) {
      auto made = MakeStragglerPolicy(policy, deadline);
      const bool valid = !needs_deadline || deadline > 0.0;
      EXPECT_EQ(made.ok(), valid) << policy << " deadline=" << deadline;
      if (!made.ok()) ExpectRefusal(made.status(), policy);
    }
  }
}

}  // namespace
}  // namespace fedadmm

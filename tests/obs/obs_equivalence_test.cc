// The zero-perturbation contract: the obs rail only *reads* clocks and
// bumps counters, so enabling metrics, the trace recorder, and the
// round-trace writer must leave the training trajectory bitwise identical
// to a run with everything off. Mirrors the idiom of
// tests/fl/deterministic_replay_test.cc.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/fedadmm.h"
#include "fl/quadratic_problem.h"
#include "fl/selection.h"
#include "fl/simulation.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fedadmm {
namespace {

QuadraticSpec Spec() {
  QuadraticSpec spec;
  spec.num_clients = 12;
  spec.dim = 7;
  spec.heterogeneity = 1.2;
  spec.seed = 91;
  return spec;
}

FedAdmmOptions Options() {
  FedAdmmOptions options;
  options.local.learning_rate = 0.05f;
  options.local.batch_size = 4;
  options.local.max_epochs = 3;
  options.local.variable_epochs = true;
  options.rho = StepSchedule(0.1);
  return options;
}

// One training run; `config` carries the obs knobs under test.
std::vector<float> RunTheta(uint64_t seed, int threads, int rounds,
                            SimulationConfig config = {}) {
  QuadraticProblem problem(Spec());
  FedAdmm algo(Options());
  UniformFractionSelector selector(12, 0.5);
  config.max_rounds = rounds;
  config.seed = seed;
  config.num_threads = threads;
  Simulation sim(&problem, &algo, &selector, config);
  EXPECT_TRUE(sim.Run().ok());
  return sim.theta();
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// RAII guard: flips the global metrics flag on and restores off, so a
// failing assertion cannot leak an enabled registry into other tests.
class MetricsOn {
 public:
  MetricsOn() { obs::MetricsRegistry::Global().set_enabled(true); }
  ~MetricsOn() { obs::MetricsRegistry::Global().set_enabled(false); }
};

TEST(ObsEquivalenceTest, MetricsEnabledIsBitwiseInvisible) {
  ASSERT_FALSE(obs::MetricsRegistry::Global().enabled());
  const std::vector<float> baseline = RunTheta(7, 3, 8);
  std::vector<float> observed;
  {
    MetricsOn on;
    obs::MetricsRegistry::Global().ResetValues();
    observed = RunTheta(7, 3, 8);
  }
  EXPECT_EQ(baseline, observed);
  // The run actually hit the instrumented paths: phase histograms filled.
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().Snapshot();
  const obs::HistogramStats aggregate =
      snapshot.AggregateHistograms("server/phase/aggregate_seconds");
  EXPECT_EQ(aggregate.count, 8);
  const obs::HistogramStats events =
      snapshot.AggregateHistograms("client/event_seconds");
  EXPECT_GT(events.count, 0);
}

TEST(ObsEquivalenceTest, TraceRecorderIsBitwiseInvisible) {
  const std::vector<float> baseline = RunTheta(7, 3, 8);
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  recorder.Start();
  const std::vector<float> traced = RunTheta(7, 3, 8);
  recorder.Stop();
  EXPECT_EQ(baseline, traced);
  EXPECT_GT(recorder.size(), 0u);

  // The capture loads as a chrome://tracing document.
  const std::string path = testing::TempDir() + "/obs_equiv_chrome.json";
  ASSERT_TRUE(recorder.WriteChromeTrace(path).ok());
  auto doc = obs::ParseJson(ReadAll(path));
  ASSERT_TRUE(doc.ok()) << doc.status().message();
  const obs::JsonValue* events = doc.ValueOrDie().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->elements.size(), recorder.size());
  bool saw_finalize = false;
  for (const obs::JsonValue& event : events->elements) {
    if (event.Find("name")->string == "finalize") saw_finalize = true;
  }
  EXPECT_TRUE(saw_finalize) << "server round phases missing from the trace";
  std::remove(path.c_str());
  recorder.Start();
  recorder.Stop();  // leave the global recorder empty for other tests
}

TEST(ObsEquivalenceTest, RoundTraceIsBitwiseInvisibleAndParses) {
  const std::vector<float> baseline = RunTheta(7, 3, 8);

  const std::string path = testing::TempDir() + "/obs_equiv_rounds.jsonl";
  SimulationConfig config;
  config.round_trace_path = path;
  const std::vector<float> traced = RunTheta(7, 3, 8, config);
  EXPECT_EQ(baseline, traced);

  std::ifstream in(path);
  std::string line;
  int rounds = 0;
  while (std::getline(in, line)) {
    auto doc = obs::ParseJson(line);
    ASSERT_TRUE(doc.ok()) << line;
    const obs::JsonValue& record = doc.ValueOrDie();
    EXPECT_EQ(record.Find("round")->number, rounds);
    ASSERT_NE(record.Find("num_selected"), nullptr);
    ASSERT_NE(record.Find("upload_bytes"), nullptr);
    ASSERT_NE(record.Find("wall_seconds"), nullptr);
    ++rounds;
  }
  EXPECT_EQ(rounds, 8);
  std::remove(path.c_str());
}

TEST(ObsEquivalenceTest, DeterministicOnlyTraceIsByteIdenticalAcrossRuns) {
  const std::string path_a = testing::TempDir() + "/obs_equiv_det_a.jsonl";
  const std::string path_b = testing::TempDir() + "/obs_equiv_det_b.jsonl";
  SimulationConfig config;
  config.round_trace_deterministic_only = true;

  config.round_trace_path = path_a;
  const std::vector<float> run_a = RunTheta(7, 3, 8, config);
  config.round_trace_path = path_b;
  const std::vector<float> run_b = RunTheta(7, 3, 8, config);
  EXPECT_EQ(run_a, run_b);

  const std::string trace_a = ReadAll(path_a);
  ASSERT_FALSE(trace_a.empty());
  EXPECT_EQ(trace_a, ReadAll(path_b))
      << "deterministic_only traces must be byte-identical for one seed";

  // Wall fields are zeroed, deterministic fields are not.
  std::istringstream lines(trace_a);
  std::string line;
  while (std::getline(lines, line)) {
    auto doc = obs::ParseJson(line);
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(doc.ValueOrDie().Find("wall_seconds")->number, 0.0);
  }
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

}  // namespace
}  // namespace fedadmm

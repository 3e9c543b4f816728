// The zero-perturbation contract: the obs rail only *reads* clocks, so
// enabling the trace recorder and the round trace must leave the training
// trajectory bitwise identical to a run with everything off.
// Mirrors the idiom of tests/fl/deterministic_replay_test.cc.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/fedadmm.h"
#include "fl/history_csv.h"
#include "fl/quadratic_problem.h"
#include "fl/selection.h"
#include "fl/simulation.h"
#include "obs/json.h"
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

  const std::string path = testing::TempDir() + "/obs_equiv_rounds.csv";
  SimulationConfig config;
  config.round_trace_path = path;
  const std::vector<float> traced = RunTheta(7, 3, 8, config);
  EXPECT_EQ(baseline, traced);

  // The trace is the history CSV, one row per record.
  auto trace = ReadHistoryCsv(path);
  ASSERT_TRUE(trace.ok()) << trace.status().message();
  ASSERT_EQ(trace.ValueOrDie().size(), 8);
  int round = 0;
  for (const RoundRecord& record : trace.ValueOrDie().records()) {
    EXPECT_EQ(record.round, round++);
    EXPECT_EQ(record.num_selected, 6);
    EXPECT_GT(record.upload_bytes, 0);
  }
  std::remove(path.c_str());
}

TEST(ObsEquivalenceTest, RoundTraceIsByteIdenticalAcrossRuns) {
  // No record column reads a host clock, so one seed writes one file.
  const std::string path_a = testing::TempDir() + "/obs_equiv_det_a.csv";
  const std::string path_b = testing::TempDir() + "/obs_equiv_det_b.csv";
  SimulationConfig config;
  config.round_trace_path = path_a;
  const std::vector<float> run_a = RunTheta(7, 3, 8, config);
  config.round_trace_path = path_b;
  const std::vector<float> run_b = RunTheta(7, 3, 8, config);
  EXPECT_EQ(run_a, run_b);

  const std::string trace_a = ReadAll(path_a);
  ASSERT_FALSE(trace_a.empty());
  EXPECT_EQ(trace_a, ReadAll(path_b))
      << "round traces must be byte-identical for one seed";

  auto trace = ReadHistoryCsv(path_a);
  ASSERT_TRUE(trace.ok()) << trace.status().message();
  ASSERT_EQ(trace.ValueOrDie().size(), 8);
  int round = 0;
  for (const RoundRecord& record : trace.ValueOrDie().records()) {
    EXPECT_EQ(record.round, round++);
    EXPECT_GT(record.upload_bytes, 0);
  }
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(ObsEquivalenceTest, UnwritableRoundTracePathFailsBeforeRoundZero) {
  QuadraticProblem problem(Spec());
  FedAdmm algo(Options());
  UniformFractionSelector selector(12, 0.5);
  SimulationConfig config;
  config.max_rounds = 3;
  config.round_trace_path =
      testing::TempDir() + "/obs_equiv_missing_dir/rounds.csv";
  Simulation sim(&problem, &algo, &selector, config);
  int rounds = 0;
  sim.set_observer([&rounds](const RoundRecord&) { ++rounds; });
  const Result<History> result = sim.Run();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIoError()) << result.status().ToString();
  EXPECT_EQ(rounds, 0);
}

}  // namespace
}  // namespace fedadmm

/// \file workloads.h
/// \brief The benchmark's three workloads and what one episode returns.
///
/// A run of one workload is: the load generator's input generation (once),
/// several setup-only repetitions (for the `setup_s` median), and one or
/// more *episodes*. An episode is the program's full set-up followed by a
/// seed-fixed number of rounds through `Simulation::Run`. Untraced episodes
/// give the end-to-end metrics; a traced episode wraps every layer with the
/// decorators of decorators.h and gives the per-layer metrics.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "span_log.h"

namespace perfbench {

/// Timings of one set-up, split by component (seconds).
struct SetupSample {
  double total = 0.0;
  double nn_build = 0.0;
  double fleet_build = 0.0;
  double algo_setup = 0.0;
};

/// One named correctness check.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Everything one episode produced.
struct Episode {
  /// Program-side set-up timed outside `Run` plus the engine's own set-up
  /// (Run start to the first selection).
  SetupSample setup;
  /// Seed the episode ran with.
  uint64_t seed = 0;
  /// Wall seconds of every round (aggregation), from the observer.
  std::vector<double> round_walls;
  /// First selection to `Run` return: the timed part of the episode.
  double timed_seconds = 0.0;
  /// Client updates whose fate was decided (aggregated, partial, dropped
  /// or rejected).
  int64_t decided = 0;
  /// Updates that failed: dropped, rejected or errored.
  int64_t failed = 0;
  double test_loss = 0.0;
  uint64_t theta_hash = 0;
  /// Deterministic counters (same seed → same values).
  std::map<std::string, double> counters;
  std::vector<Check> checks;
  /// Per-layer values only a workload knows (pool counters, ledger, ...).
  std::map<std::string, double> layer_values;
  /// Spans of a traced episode.
  std::vector<Span> spans;
  int32_t loop_thread = 0;
};

/// A benchmark workload (see file comment).
class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;
  /// Threads that can be runnable at once, counting every pool.
  virtual int busy_threads() const = 0;
  /// Threads of the pool that runs ClientUpdate (for the idle share).
  virtual int executor_threads() const = 0;
  /// Rounds (aggregations) per episode and episode count for a run that
  /// should measure about `seconds` on the reference host.
  virtual int RoundsPerEpisode(double seconds) const = 0;
  virtual int Episodes(double seconds) const = 0;
  /// Rounds of each of the two episodes (one untraced, one traced) of a
  /// traced run.
  virtual int TracedRounds() const = 0;
  /// True when each episode of a run draws fresh inputs from its own
  /// sub-seed (averaging seed-to-seed variation inside the run); false
  /// when every episode replays the run seed.
  virtual bool FreshSeedPerEpisode() const = 0;

  /// Builds the inputs from `seed` (the load generator's job, excluded
  /// from set-up) and makes it the seed of the following set-ups and
  /// episodes. Returns seconds spent.
  virtual double GenerateInputs(uint64_t seed) = 0;
  /// One set-up-only repetition: the program-side objects and the
  /// algorithm's Setup, then teardown (untimed).
  virtual SetupSample SetupOnce(int index) = 0;
  /// One episode of `rounds` rounds.
  virtual Episode RunEpisode(int rounds, bool traced, int index) = 0;
};

/// Builds `name` ("cnn1-sync", "fleet-buffered", "serve-ingest"); null for
/// an unknown name. `scratch_dir` is a fresh directory the workload may
/// write to (removed by the caller). Call `GenerateInputs` first.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const std::string& scratch_dir);

/// Seed of episode `index` of a run seeded `seed` (episode 0 uses the run
/// seed itself).
uint64_t EpisodeSeed(uint64_t seed, int index);

/// FNV-1a over the bit patterns of `theta`.
uint64_t HashTheta(const std::vector<float>& theta);

/// Median per-layer forward/backward seconds of CNN 1 at B = 10, one entry
/// per layer in network order: {"conv1", fwd, bwd}, ...
struct LayerTiming {
  std::string name;
  double forward_s = 0.0;
  double backward_s = 0.0;
};
std::vector<LayerTiming> ProbeCnn1Layers(uint64_t seed, int repetitions);

/// Layer names `ProbeCnn1Layers` reports, without running it.
std::vector<std::string> Cnn1LayerNames();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

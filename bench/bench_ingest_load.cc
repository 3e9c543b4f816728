/// \file bench_ingest_load.cc
/// \brief Serving-frontend ingest load: tens of thousands of concurrent
/// wire sessions against the zero-copy admission pipeline.
///
/// Phase A (load): a fleet of FEDADMM_BENCH_SESSIONS clients (default
/// 12000) at 100% participation replays rounds as real sessions over the
/// in-memory loopback transport — connect + HELLO once, then per round
/// PULL the shared MODEL frame, run the true local computation, encode q8
/// and UPLOAD, poll the ACK, resending on THROTTLED. Every session stays
/// connected for the whole run, so peak concurrency equals the fleet
/// size. The cellular fleet + deadline-drop straggler policy exercises
/// the admission predicate (REJECTED acks are mirrored verdicts), and the
/// bounded per-worker ingest queues exercise real backpressure (THROTTLED
/// retries are expected and counted). The phase runs TWICE and hard-fails
/// unless θ and every deterministic ledger field (hellos, acks by status,
/// ingested/model payload bytes, error counts) are identical — the
/// double-run determinism contract of tests/serve at bench scale.
///
/// Phase B (equivalence): a smaller fleet runs the same trace in-process
/// and served, and hard-fails unless θ is bitwise identical and every
/// round record (selection, losses, byte ledgers, simulated time, drops)
/// matches — the serving frontend must be invisible to the training run.
///
/// Output: a summary table on stdout and the persisted perf rail
/// (FEDADMM_BENCH_JSON, required — no default): deterministic
/// `*_count`/`*_bytes` metrics gate exactly in tools/bench_diff; ingest
/// latency percentiles (`Frontend::ingest_latency()`: admission → wave-slot
/// resolution, merged over the ingest workers) and updates/sec ride the
/// wall-clock tolerance; throttle/retry tallies are informational (they
/// depend on how producers race the ingest workers).
///
/// Knobs: FEDADMM_BENCH_SESSIONS (default 12000), FEDADMM_BENCH_STATE_DIM
/// (default 64), FEDADMM_BENCH_ROUNDS (default 3), FEDADMM_BENCH_THREADS
/// (default 4), FEDADMM_BENCH_INGEST_SHARDS (default 2: the frontend's
/// ingest workers; the engine itself is unsharded),
/// FEDADMM_BENCH_QUEUE (default 512), FEDADMM_BENCH_DRIVERS (default 8),
/// FEDADMM_BENCH_EQ_CLIENTS (default 256), FEDADMM_BENCH_DEADLINE_MS
/// (default 230: cuts into the metered-cellular cohort so REJECTED acks
/// exercise the admission predicate), FEDADMM_BENCH_SCALE,
/// FEDADMM_BENCH_JSON.

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "bench/mean_field_problem.h"
#include "comm/codec.h"
#include "core/fedadmm.h"
#include "fl/selection.h"
#include "fl/simulation.h"
#include "obs/bench_recorder.h"
#include "obs/metrics.h"
#include "serve/frontend.h"
#include "serve/loadgen.h"
#include "serve/loopback.h"
#include "sys/system_model.h"

namespace fedadmm::bench {
namespace {

using serve::Frontend;
using serve::FrontendLedger;
using serve::FrontendOptions;
using serve::LoadGenerator;
using serve::LoadGenOptions;
using serve::LoadGenStats;
using serve::LoopbackTransport;
using serve::Transport;

/// One gradient step per round: client compute stays negligible next to
/// the ingest pipeline under test.
LocalTrainSpec LoadLocalSpec() {
  LocalTrainSpec local;
  local.learning_rate = 0.3f;
  local.batch_size = 0;
  local.max_epochs = 1;
  return local;
}

struct ServedRun {
  std::vector<float> theta;
  History history;
  FrontendLedger ledger;
  LoadGenStats stats;
  double wall_seconds = 0.0;
  obs::HistogramStats ingest;
};

/// Runs `clients` sessions over `transport` for `rounds` rounds with q8
/// both ways and the deadline-drop admission predicate mirrored into
/// ACKs. Each run builds its own Frontend, so the ingest latency covers
/// this run only.
ServedRun RunServed(int clients, int64_t dim, int rounds, int threads,
                    int shards, int queue_capacity, int drivers,
                    uint64_t seed, double deadline_seconds) {
  using Clock = std::chrono::steady_clock;

  MeanFieldProblem problem(clients, dim, /*seed=*/17);
  FedAvg algo(LoadLocalSpec());
  UniformFractionSelector selector(clients, 1.0);
  FleetModel fleet =
      FleetModel::FromPreset("cellular", clients, /*seed=*/5).ValueOrDie();
  SystemModel model(
      std::move(fleet),
      MakeStragglerPolicy("deadline-drop", deadline_seconds).ValueOrDie());

  SimulationConfig config;
  config.max_rounds = rounds;
  config.seed = seed;
  config.num_threads = threads;
  Simulation sim(&problem, &algo, &selector, config);
  sim.set_system_model(&model);

  // Server-side codec instances plus the sessions' client-side twins.
  auto uplink = MakeUpdateCodec("q8").ValueOrDie();
  auto uplink_twin = MakeUpdateCodec("q8").ValueOrDie();
  auto downlink = MakeUpdateCodec("q8").ValueOrDie();
  auto downlink_twin = MakeUpdateCodec("q8").ValueOrDie();
  sim.set_uplink_codec(uplink.get());
  sim.set_downlink_codec(downlink.get());

  FrontendOptions options;
  options.num_shards = shards;
  options.queue_capacity = queue_capacity;
  options.collect_timeout_seconds = 300.0;
  options.uplink_codec = uplink.get();
  options.system_model = &model;
  Frontend frontend(options);
  sim.set_ingest(&frontend);

  LoopbackTransport transport;
  FEDADMM_CHECK(transport.Start(&frontend).ok());

  LoadGenOptions lg;
  lg.driver_threads = drivers;
  lg.uplink_codec = uplink_twin.get();
  lg.downlink_codec = downlink_twin.get();
  lg.poll_timeout_seconds = 300.0;
  LoadGenerator loadgen(&problem, &algo, seed, threads, /*num_shards=*/1,
                        &frontend, &transport, lg);

  const auto start = Clock::now();
  Status loadgen_status = Status::OK();
  std::thread driver([&] { loadgen_status = loadgen.Run(); });
  auto history = sim.Run();
  frontend.FinishServing();
  driver.join();
  ServedRun run;
  run.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  FEDADMM_CHECK_MSG(loadgen_status.ok(), "load generator failed");
  run.history = std::move(history).ValueOrDie();
  run.theta = sim.theta();
  run.ledger = frontend.ledger();
  run.stats = loadgen.stats();
  run.ingest = frontend.ingest_latency();
  transport.Stop();
  return run;
}

/// Counts deterministic-ledger fields that differ between two runs of the
/// same trace (must be 0; gated exactly in the rail).
int64_t LedgerMismatches(const FrontendLedger& a, const FrontendLedger& b) {
  int64_t mismatches = 0;
  mismatches += a.hello_count != b.hello_count;
  mismatches += a.model_frames != b.model_frames;
  mismatches += a.model_payload_bytes != b.model_payload_bytes;
  mismatches += a.acks_accepted != b.acks_accepted;
  mismatches += a.acks_partial != b.acks_partial;
  mismatches += a.acks_rejected != b.acks_rejected;
  mismatches += a.ingested_payload_bytes != b.ingested_payload_bytes;
  mismatches += a.malformed_frames != b.malformed_frames;
  mismatches += a.protocol_errors != b.protocol_errors;
  mismatches += a.decode_errors != b.decode_errors;
  return mismatches;
}

/// Counts round records that differ in any deterministic field.
int64_t RecordMismatches(const History& a, const History& b) {
  if (a.size() != b.size()) return a.size() + b.size();
  int64_t mismatches = 0;
  for (int i = 0; i < a.size(); ++i) {
    const RoundRecord& ra = a.records()[static_cast<size_t>(i)];
    const RoundRecord& rb = b.records()[static_cast<size_t>(i)];
    const bool same =
        ra.num_selected == rb.num_selected &&
        ra.num_dropped == rb.num_dropped &&
        ra.upload_bytes == rb.upload_bytes &&
        ra.download_bytes == rb.download_bytes &&
        ra.sim_seconds == rb.sim_seconds &&
        (ra.train_loss == rb.train_loss ||
         (ra.train_loss != ra.train_loss && rb.train_loss != rb.train_loss)) &&
        (ra.test_accuracy == rb.test_accuracy ||
         (ra.test_accuracy != ra.test_accuracy &&
          rb.test_accuracy != rb.test_accuracy));
    mismatches += !same;
  }
  return mismatches;
}

/// In-process twin of RunServed's Phase B trace (no frontend).
History RunInProcess(int clients, int64_t dim, int rounds, int threads,
                     uint64_t seed, double deadline_seconds,
                     std::vector<float>* theta) {
  MeanFieldProblem problem(clients, dim, /*seed=*/17);
  FedAvg algo(LoadLocalSpec());
  UniformFractionSelector selector(clients, 1.0);
  FleetModel fleet =
      FleetModel::FromPreset("cellular", clients, /*seed=*/5).ValueOrDie();
  SystemModel model(
      std::move(fleet),
      MakeStragglerPolicy("deadline-drop", deadline_seconds).ValueOrDie());
  SimulationConfig config;
  config.max_rounds = rounds;
  config.seed = seed;
  config.num_threads = threads;
  Simulation sim(&problem, &algo, &selector, config);
  sim.set_system_model(&model);
  auto uplink = MakeUpdateCodec("q8").ValueOrDie();
  auto downlink = MakeUpdateCodec("q8").ValueOrDie();
  sim.set_uplink_codec(uplink.get());
  sim.set_downlink_codec(downlink.get());
  History history = std::move(sim.Run()).ValueOrDie();
  *theta = sim.theta();
  return history;
}

}  // namespace
}  // namespace fedadmm::bench

int main() {
  using namespace fedadmm;
  using namespace fedadmm::bench;

  const std::string json_path = RequiredBenchJsonPath();
  const int sessions =
      static_cast<int>(GetEnvInt("FEDADMM_BENCH_SESSIONS", 12000));
  const int64_t dim = GetEnvInt("FEDADMM_BENCH_STATE_DIM", 64);
  const int rounds = RoundBudget(3, 6);
  const int threads = static_cast<int>(GetEnvInt("FEDADMM_BENCH_THREADS", 4));
  const int shards =
      static_cast<int>(GetEnvInt("FEDADMM_BENCH_INGEST_SHARDS", 2));
  const int queue = static_cast<int>(GetEnvInt("FEDADMM_BENCH_QUEUE", 512));
  const int drivers = static_cast<int>(GetEnvInt("FEDADMM_BENCH_DRIVERS", 8));
  const int eq_clients =
      static_cast<int>(GetEnvInt("FEDADMM_BENCH_EQ_CLIENTS", 256));
  const double deadline =
      static_cast<double>(GetEnvInt("FEDADMM_BENCH_DEADLINE_MS", 230)) / 1e3;
  const uint64_t seed = 7;

  PrintHeader("Serving-frontend ingest load: " + std::to_string(sessions) +
              " concurrent loopback sessions, d=" + std::to_string(dim) +
              ", " + std::to_string(rounds) + " rounds, ingest workers=" +
              std::to_string(shards) + ", queue=" + std::to_string(queue) +
              ", q8 uplink+downlink, deadline-drop admission");

  obs::BenchRecorder recorder("ingest_load");
  recorder.AddContext("sessions", static_cast<int64_t>(sessions));
  recorder.AddContext("dim", dim);
  recorder.AddContext("rounds", static_cast<int64_t>(rounds));
  recorder.AddContext("threads", static_cast<int64_t>(threads));
  recorder.AddContext("shards", static_cast<int64_t>(shards));
  recorder.AddContext("queue", static_cast<int64_t>(queue));
  recorder.AddContext("drivers", static_cast<int64_t>(drivers));
  recorder.AddContext("eq_clients", static_cast<int64_t>(eq_clients));
  recorder.AddContext("uplink", "q8");
  recorder.AddContext("downlink", "q8");
  recorder.AddContext("fleet", "cellular");
  recorder.AddContext("policy", "deadline-drop");
  recorder.AddContext("deadline_ms",
                      static_cast<int64_t>(deadline * 1e3 + 0.5));

  // ---- Phase A: load, twice (the double-run determinism contract). ----
  const ServedRun first = RunServed(sessions, dim, rounds, threads, shards,
                                    queue, drivers, seed, deadline);
  const ServedRun second = RunServed(sessions, dim, rounds, threads, shards,
                                     queue, drivers, seed, deadline);
  const int64_t ledger_mismatches =
      LedgerMismatches(first.ledger, second.ledger);
  const int64_t rerun_theta_mismatch = first.theta != second.theta;
  if (ledger_mismatches != 0 || rerun_theta_mismatch != 0) {
    std::fprintf(stderr,
                 "FAIL: double run diverged (%" PRId64
                 " ledger fields, theta mismatch %" PRId64
                 ") — the serving frontend leaked timing into the ledger\n",
                 ledger_mismatches, rerun_theta_mismatch);
    return 1;
  }

  // Report the second (warm) run; its deterministic fields equal the
  // first's by the check above.
  const ServedRun& load = second;
  const int64_t updates = load.ledger.acks_accepted +
                          load.ledger.acks_partial +
                          load.ledger.acks_rejected;
  const double updates_per_sec =
      load.wall_seconds > 0.0 ? updates / load.wall_seconds : 0.0;

  std::printf("\n%-26s | %12s\n", "load phase", "value");
  std::printf("---------------------------+-------------\n");
  std::printf("%-26s | %12" PRId64 "\n", "peak sessions",
              load.ledger.peak_sessions);
  std::printf("%-26s | %12" PRId64 "\n", "updates resolved", updates);
  std::printf("%-26s | %12.2f\n", "wall seconds", load.wall_seconds);
  std::printf("%-26s | %12.0f\n", "updates/sec", updates_per_sec);
  std::printf("%-26s | %12" PRId64 "\n", "acks accepted",
              load.ledger.acks_accepted);
  std::printf("%-26s | %12" PRId64 "\n", "acks rejected (mirrored)",
              load.ledger.acks_rejected);
  std::printf("%-26s | %12" PRId64 "\n", "throttled (backpressure)",
              load.ledger.throttled);
  std::printf("%-26s | %12" PRId64 "\n", "throttle retries (client)",
              load.stats.throttle_retries);
  std::printf("%-26s | %12.1f\n", "ingest p50 (us)",
              load.ingest.Percentile(50.0) * 1e6);
  std::printf("%-26s | %12.1f\n", "ingest p99 (us)",
              load.ingest.Percentile(99.0) * 1e6);

  obs::BenchResult* row = recorder.AddResult("load");
  row->AddMetric("hello_count", load.ledger.hello_count);
  row->AddMetric("updates_count", updates);
  row->AddMetric("acks_accepted_count", load.ledger.acks_accepted);
  row->AddMetric("acks_partial_count", load.ledger.acks_partial);
  row->AddMetric("acks_rejected_count", load.ledger.acks_rejected);
  row->AddMetric("model_frames_count", load.ledger.model_frames);
  row->AddMetric("model_payload_bytes", load.ledger.model_payload_bytes);
  row->AddMetric("ingested_payload_bytes",
                 load.ledger.ingested_payload_bytes);
  row->AddMetric("malformed_frames_count", load.ledger.malformed_frames);
  row->AddMetric("protocol_errors_count", load.ledger.protocol_errors);
  row->AddMetric("decode_errors_count", load.ledger.decode_errors);
  row->AddMetric("rerun_ledger_mismatch_count", ledger_mismatches);
  row->AddMetric("rerun_theta_mismatch_count", rerun_theta_mismatch);
  // Informational: concurrency peak and backpressure tallies depend on
  // how transport threads race the ingest workers.
  row->AddMetric("peak_sessions", load.ledger.peak_sessions);
  row->AddMetric("throttled_total", load.ledger.throttled);
  row->AddMetric("throttle_retries_total", load.stats.throttle_retries);
  row->AddMetric("transport_bytes_in_total", load.ledger.bytes_in);
  row->AddMetric("run_wall_seconds", load.wall_seconds);
  row->AddMetric("updates_per_sec", updates_per_sec);
  row->AddLatencyMetrics("ingest", "_wall_seconds", load.ingest);

  // ---- Phase B: served == in-process, bitwise. ----
  using Clock = std::chrono::steady_clock;
  const auto eq_start = Clock::now();
  std::vector<float> local_theta;
  const History local = RunInProcess(eq_clients, dim, rounds, threads, seed,
                                     deadline, &local_theta);
  const double inproc_wall =
      std::chrono::duration<double>(Clock::now() - eq_start).count();
  const ServedRun served = RunServed(eq_clients, dim, rounds, threads,
                                     shards, queue, drivers, seed, deadline);
  const int64_t theta_mismatch = served.theta != local_theta;
  const int64_t record_mismatches = RecordMismatches(served.history, local);
  if (theta_mismatch != 0 || record_mismatches != 0) {
    std::fprintf(stderr,
                 "FAIL: served run diverged from in-process (theta %" PRId64
                 ", %" PRId64
                 " round records) — the frontend is not invisible\n",
                 theta_mismatch, record_mismatches);
    return 1;
  }
  std::printf("\n%-26s | %12s\n", "equivalence phase", "value");
  std::printf("---------------------------+-------------\n");
  std::printf("%-26s | %12d\n", "clients", eq_clients);
  std::printf("%-26s | %12s\n", "theta", "bitwise ==");
  std::printf("%-26s | %12d\n", "round records matched", local.size());
  std::printf("%-26s | %12.4f\n", "final accuracy",
              local.FinalAccuracy());

  obs::BenchResult* eq = recorder.AddResult("equivalence");
  eq->AddMetric("theta_mismatch_count", theta_mismatch);
  eq->AddMetric("record_mismatch_count", record_mismatches);
  eq->AddMetric("rounds_count", static_cast<int64_t>(local.size()));
  eq->AddMetric("upload_bytes", local.TotalUploadBytes());
  eq->AddMetric("final_accuracy", local.FinalAccuracy());
  eq->AddMetric("inproc_wall_seconds", inproc_wall);
  eq->AddMetric("served_wall_seconds", served.wall_seconds);

  if (!recorder.WriteFile(json_path).ok()) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\nperf rail written to %s\n", json_path.c_str());
  std::printf(
      "\nBoth load runs produced identical ledgers and bitwise-identical\n"
      "theta, and the served %d-client run matches its in-process twin\n"
      "record for record: the wire pipeline adds throughput knobs, not\n"
      "behavior.\n",
      eq_clients);
  PrintFootnote();
  return 0;
}

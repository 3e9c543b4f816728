/// \file bench_state_scale.cc
/// \brief 100k-client fleet memory scaling of the client-state store.
///
/// FedADMM's per-client (w_i, y_i) state is O(m·d) when stored eagerly —
/// at 100 000 clients the server pays full-fleet memory from round 0 even
/// though a 1%-participation round only ever touches 1 000 of them. This
/// bench runs FedADMM on a cross-device-churn fleet (sys preset; device
/// availability filtered per round) at 1% participation over every
/// configured state-store backend and reports the resident-state curve
/// against the m·d·2·4-byte eager arena, computed rather than run:
///
///   * `lazy`           — touched-clients × 2d × 4 bytes, growing with the
///                        union of selected clients (< 5% of the arena at
///                        this participation within the round budget);
///   * `tiered:auto`    — the out-of-core backend with a pool auto-sized
///                        from the measured schedule: large enough to hold
///                        next round's prefetched cohort (4 × max cohort
///                        frames) yet under 1/12 of the touched slab
///                        population, so resident bytes are pinned to the
///                        pool while the touched state dwarfs it. An
///                        explicit `tiered:<cap>:<path>` spec passes
///                        through untouched.
///
/// `tiered:*` replays `lazy` bitwise (the store-equivalence property), so
/// the accuracy column doubles as a cross-backend checksum: any divergence
/// is a bug, not noise. The tiered row additionally asserts the
/// out-of-core contract: resident bytes equal `frames × frame_bytes`
/// exactly, the pool stays under 10% of touched-state bytes, and — when
/// the 10% budget covers the prefetched cohort ("covered" sizing) — the
/// hot-path pool hit rate exceeds 90%, because the engine prefetches next
/// round's cold slabs during aggregate/finalize and faults stay off the
/// wave.
///
/// The local objective is a streaming mean-field quadratic
/// f_i(w) = ½‖w − t_i‖² whose per-client target t_i is re-derived from a
/// forked RNG on every access — the *problem* holds no per-client state,
/// so the state store is the only O(m) memory in the run and the numbers
/// below isolate it.
///
/// Output: a summary table on stdout, a deterministic per-round CSV
/// (FEDADMM_BENCH_CSV, default "bench_state_scale.csv") with a `store`
/// context column ahead of the canonical fl/history_csv round columns —
/// two runs with identical knobs produce byte-identical files — and the
/// persisted perf rail
/// (FEDADMM_BENCH_JSON, required — no default): per-store rows
/// with exact-gated deterministic metrics (`*_bytes`, `*_count`) plus
/// informational pool/prefetch rates (hit/miss ordering depends on how
/// the prefetch tasks race the next wave, so those never gate).
///
/// Knobs: FEDADMM_BENCH_CLIENTS (default 100000), FEDADMM_BENCH_STATE_DIM
/// (default 128), FEDADMM_BENCH_STORES (default "lazy,tiered:auto"),
/// FEDADMM_BENCH_ROUNDS (default 32; the touched population must dwarf
/// the pool for the out-of-core story), FEDADMM_BENCH_SLAB (slab-log
/// path for tiered:auto), FEDADMM_BENCH_SCALE, FEDADMM_BENCH_CSV,
/// FEDADMM_BENCH_JSON.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/mean_field_problem.h"
#include "core/fedadmm.h"
#include "fl/history_csv.h"
#include "fl/selection.h"
#include "fl/simulation.h"
#include "obs/bench_recorder.h"
#include "state/tiered_store.h"
#include "sys/system_model.h"
#include "tensor/vec.h"

namespace fedadmm::bench {
namespace {

std::string FormatMiB(int64_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f",
                static_cast<double>(bytes) / (1024.0 * 1024.0));
  return buf;
}

}  // namespace
}  // namespace fedadmm::bench

int main() {
  using namespace fedadmm;
  using namespace fedadmm::bench;
  using Clock = std::chrono::steady_clock;

  const std::string json_path = RequiredBenchJsonPath();
  const int clients =
      static_cast<int>(GetEnvInt("FEDADMM_BENCH_CLIENTS", 100000));
  const int64_t dim = GetEnvInt("FEDADMM_BENCH_STATE_DIM", 128);
  // The out-of-core story needs the touched population to dwarf the pool:
  // at uniform 1% participation the touched union grows ~cohort/round, so
  // 32 rounds put a cohort-covering pool safely under 10% of it.
  const int rounds = RoundBudget(32, 48);
  const double participation = 0.01;
  const std::vector<std::string> store_tokens = ParseCodecList(
      GetEnvString("FEDADMM_BENCH_STORES", "lazy,tiered:auto"));
  const std::string slab_path =
      GetEnvString("FEDADMM_BENCH_SLAB", "/tmp/fedadmm_bench_state.slab");

  PrintHeader("State-store scaling: " + std::to_string(clients) +
              "-client cross-device-churn fleet, " +
              std::to_string(static_cast<int>(participation * 100)) +
              "% participation, d=" + std::to_string(dim));

  HistoryCsvWriter csv;
  const std::string csv_path =
      GetEnvString("FEDADMM_BENCH_CSV", "bench_state_scale.csv");
  if (!csv.Open(csv_path, {"store"}).ok()) {
    std::fprintf(stderr, "cannot write %s\n", csv_path.c_str());
    return 1;
  }

  obs::BenchRecorder recorder("state_scale");
  recorder.AddContext("clients", static_cast<int64_t>(clients));
  recorder.AddContext("dim", dim);
  recorder.AddContext("rounds", static_cast<int64_t>(rounds));
  recorder.AddContext("participation_pct",
                      static_cast<int64_t>(participation * 100));
  {
    std::string joined;
    for (const std::string& token : store_tokens) {
      if (!joined.empty()) joined += ",";
      joined += token;
    }
    recorder.AddContext("stores", joined);
  }

  // One shared fleet: availability churn filters selection, the straggler
  // policy times rounds. Identical across backends (seeded).
  MeanFieldProblem problem(clients, dim, /*seed=*/17);
  FleetModel fleet =
      FleetModel::FromPreset("cross-device-churn", clients, 29).ValueOrDie();
  SystemModel model(FleetModel(fleet),
                    MakeStragglerPolicy("wait-for-all", -1.0).ValueOrDie());

  const int64_t arena_bytes = static_cast<int64_t>(clients) * dim * 2 * 4;
  std::printf("eager arena reference: %s MiB (m·d·2·4)\n",
              FormatMiB(arena_bytes).c_str());
  std::printf("\n%-14s | %10s | %12s | %8s | %10s | %9s\n", "store",
              "rounds", "resident MiB", "% arena", "touched", "final acc");
  std::printf("---------------+------------+--------------+----------+--"
              "----------+----------\n");

  // Every row runs FedADMM with the same options on the same fleet and
  // selection schedule; only the store differs.
  const auto make_options = [](const std::string& store) {
    FedAdmmOptions options;
    options.local.learning_rate = 0.3f;
    options.local.batch_size = 0;
    options.local.max_epochs = 2;
    options.local.variable_epochs = true;
    options.rho = StepSchedule(1.0);
    options.eta_active_fraction = true;
    options.state_store = store;
    return options;
  };
  const auto run = [&](FedAdmm* algo) {
    UniformFractionSelector base(clients, participation);
    AvailabilityFilterSelector selector(&base, &fleet);
    SimulationConfig config;
    config.max_rounds = rounds;
    config.seed = 7;
    config.num_threads = 8;
    Simulation sim(&problem, algo, &selector, config);
    sim.set_system_model(&model);
    return sim.Run();
  };
  {
    // Untimed warm-up: the process's first run pays one-off costs (page
    // faults, thread start-up) that would otherwise land on the first
    // timed row. It adds nothing to the CSV, the JSON or the schedule
    // stats below.
    FedAdmm warm_up(make_options("lazy"));
    if (auto status = run(&warm_up).status(); !status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
  }

  std::vector<double> lazy_acc;
  // Schedule stats from the first completed run (the selection schedule is
  // seeded and identical across backends), used to auto-size tiered:auto.
  int64_t seen_max_cohort = 0;
  int64_t seen_touched = 0;
  for (const std::string& token : store_tokens) {
    std::string store = token;
    bool auto_sized = false;  // sized from a *measured* schedule
    bool covered = false;     // 10% budget covers the prefetched cohort
    if (token == "tiered:auto") {
      const int64_t cohort =
          seen_max_cohort > 0
              ? seen_max_cohort
              : std::max<int64_t>(
                    1, static_cast<int64_t>(clients * participation));
      const int64_t touched_slabs =
          2 * (seen_touched > 0 ? seen_touched : cohort * rounds);
      // Covering size: next round's prefetched cohort (2 slabs/client)
      // plus a full round of create churn must survive the clock sweep.
      const int64_t covering = 4 * cohort + 16;
      // Hard budget: 1/12 of the touched slab population (~8.3% of
      // touched-state bytes, under the 10% out-of-core contract).
      const int64_t budget = touched_slabs / 12;
      const int64_t frames = std::max<int64_t>(2, std::min(covering, budget));
      auto_sized = seen_touched > 0;
      covered = budget >= covering;
      store = "tiered:" + std::to_string(frames) + "f:" + slab_path;
      std::printf("\ntiered:auto → %s (%s; %" PRId64
                  " max cohort, %" PRId64 " touched clients measured)\n",
                  store.c_str(),
                  covered ? "cohort-covering" : "budget-capped",
                  seen_max_cohort, seen_touched);
    }
    FedAdmm algo(make_options(store));
    const auto start = Clock::now();
    auto result = run(&algo);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    const History history = std::move(result).ValueOrDie();
    const double wall =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (!csv.AppendHistory({store}, history).ok()) {
      std::fprintf(stderr, "CSV write failed\n");
      return 1;
    }

    const int64_t resident = history.records().back().state_bytes_resident;
    const int64_t touched = algo.state_store().num_touched_clients();
    const double pct =
        100.0 * static_cast<double>(resident) / arena_bytes;
    std::printf("%-14s | %10d | %12s | %7.2f%% | %10" PRId64 " | %9.4f\n",
                token.c_str(), history.size(),
                FormatMiB(resident).c_str(), pct, touched,
                history.FinalAccuracy());

    if (seen_touched == 0) seen_touched = touched;
    for (const RoundRecord& r : history.records()) {
      seen_max_cohort = std::max<int64_t>(seen_max_cohort, r.num_selected);
    }

    obs::BenchResult* row = recorder.AddResult("store=" + token);
    row->AddMetric("aggregations_count",
                   static_cast<int64_t>(history.size()));
    row->AddMetric("state_resident_bytes", resident);
    row->AddMetric("touched_clients_count", touched);
    row->AddMetric("upload_bytes", history.TotalUploadBytes());
    row->AddMetric("run_wall_seconds", wall);
    row->AddMetric("rounds_per_sec",
                   wall > 0.0 ? history.size() / wall : 0.0);
    row->AddMetric("final_accuracy", history.FinalAccuracy());

    if (const auto* tiered = dynamic_cast<const TieredStateStore*>(
            &algo.state_store())) {
      const int64_t pool_bytes =
          tiered->pool_capacity_frames() * tiered->pool_frame_bytes();
      const int64_t touched_bytes =
          touched * 2 * tiered->pool_frame_bytes();
      const int64_t hits = tiered->pool_hits();
      const int64_t misses = tiered->pool_misses();
      const double hit_rate =
          hits + misses > 0
              ? static_cast<double>(hits) / static_cast<double>(hits + misses)
              : 1.0;
      // Deterministic (gated): pool geometry and the touched population
      // follow from the knobs and the seeded schedule alone.
      row->AddMetric("pool_capacity_bytes", pool_bytes);
      row->AddMetric("touched_state_bytes", touched_bytes);
      // Informational: hit/miss/late ordering depends on how prefetch
      // tasks race the next wave on the executor pool.
      row->AddMetric("pool_hit_rate", hit_rate);
      row->AddMetric("pool_creates_total", tiered->pool_creates());
      row->AddMetric("prefetch_issued_total", tiered->prefetch_issued());
      row->AddMetric("prefetch_late_total", tiered->prefetch_late());
      std::printf("  pool: %" PRId64 " frames × %" PRId64
                  " B = %s MiB (%.2f%% of touched state), hit rate %.4f "
                  "(%" PRId64 " hits / %" PRId64 " faults), %" PRId64
                  " creates, prefetch %" PRId64 " issued / %" PRId64
                  " late, %.1f rounds/s\n",
                  tiered->pool_capacity_frames(), tiered->pool_frame_bytes(),
                  FormatMiB(pool_bytes).c_str(),
                  touched_bytes > 0
                      ? 100.0 * static_cast<double>(pool_bytes) / touched_bytes
                      : 0.0,
                  hit_rate, hits, misses, tiered->pool_creates(),
                  tiered->prefetch_issued(), tiered->prefetch_late(),
                  wall > 0.0 ? history.size() / wall : 0.0);
      if (auto_sized) {
        // The out-of-core contract, checked on the auto-sized axis where
        // the sizing guarantees it is satisfiable.
        if (resident != pool_bytes) {
          std::fprintf(stderr,
                       "FAIL: tiered resident bytes %" PRId64
                       " != frames × frame_bytes %" PRId64 "\n",
                       resident, pool_bytes);
          return 1;
        }
        if (pool_bytes * 10 >= touched_bytes) {
          std::fprintf(stderr,
                       "FAIL: pool %" PRId64 " B is not < 10%% of touched "
                       "state %" PRId64 " B\n",
                       pool_bytes, touched_bytes);
          return 1;
        }
        if (covered && hits + misses > 0 && hit_rate <= 0.9) {
          std::fprintf(stderr,
                       "FAIL: cohort-covering pool hit rate %.4f <= 0.9 "
                       "(prefetch is not keeping faults off the wave)\n",
                       hit_rate);
          return 1;
        }
      }
    }

    std::vector<double> acc;
    for (const RoundRecord& r : history.records()) {
      acc.push_back(r.test_accuracy);
    }
    if (token == "lazy") {
      lazy_acc = acc;
    } else if (!lazy_acc.empty() && token.rfind("tiered", 0) == 0) {
      // The accuracy trajectory is a checksum (only checkable when a lazy
      // run preceded in FEDADMM_BENCH_STORES).
      if (acc != lazy_acc) {
        std::fprintf(stderr,
                     "FAIL: %s trajectory diverged from lazy "
                     "(store-equivalence violation)\n",
                     token.c_str());
        return 1;
      }
    }
  }

  if (!csv.Close().ok()) {
    std::fprintf(stderr, "CSV close failed\n");
    return 1;
  }
  if (!recorder.WriteFile(json_path).ok()) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("perf rail written to %s\n", json_path.c_str());
  std::printf(
      "\ntiered trajectories verified bit-identical to lazy. Resident state"
      "\nunder partial participation tracks the touched population"
      "\n(untouched clients read the shared (θ⁰, 0) slot initializers at"
      "\nzero bytes) — except tiered, whose residency is pinned to the"
      "\nbuffer pool while cold slabs live in the log."
      "\nCSV: %s\n",
      csv_path.c_str());
  PrintFootnote();
  return 0;
}

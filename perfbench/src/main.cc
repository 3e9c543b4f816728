/// \file main.cc
/// \brief perfbench: one workload per process, untraced or traced.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             --scratch <dir> [--trace-dir <dir>]
///
/// Untraced (`--trace 0`): set-up repetitions plus the workload's episodes;
/// prints the five end-to-end metrics. Traced (`--trace 1`): one untraced
/// and one traced episode of equal length (their θ hashes must match) plus
/// the CNN 1 layer probe; prints the per-layer metrics. Either way the last
/// stdout line is one JSON object with the host fingerprint, the checks,
/// the deterministic counters, the θ hash and the metrics. perfbench/run.py
/// turns it into the benchmark's result line.

#include <sched.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "span_log.h"
#include "tensor/simd/simd.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

/// Set-up-only repetitions per run; their median (with the episodes' own
/// set-ups) is `setup_s`.
constexpr int kSetupRepetitions = 15;
/// CNN 1 layer-probe repetitions (after one warm-up pass).
constexpr int kProbeRepetitions = 9;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch;
  std::string trace_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--scratch") {
      args->scratch = value;
    } else if (key == "--trace-dir") {
      args->trace_dir = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() &&
         !args->scratch.empty() && args->seconds > 0;
}

int CpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return 1;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

/// Linear-interpolation quantile (numpy's default), q in [0, 1].
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// ---- JSON output ----------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string HexHash(uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// ---- Per-layer analysis of a traced episode -------------------------------

struct KindTotals {
  double total_s = 0.0;
  double self_s = 0.0;
  int64_t calls = 0;
  int64_t detail = 0;
};

/// Total length of the union of `intervals` (ns pairs).
int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  int64_t total = 0;
  int64_t cur_start = 0;
  int64_t cur_end = -1;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (end <= start) continue;
    if (!open || start > cur_end) {
      if (open) total += cur_end - cur_start;
      cur_start = start;
      cur_end = end;
      open = true;
    } else {
      cur_end = std::max(cur_end, end);
    }
  }
  if (open) total += cur_end - cur_start;
  return total;
}

/// Turns the traced episode's spans into the layer metrics.
std::map<std::string, double> AnalyzeSpans(const Episode& ep,
                                           int executor_threads) {
  std::map<std::string, double> out;
  const auto kinds = static_cast<size_t>(SpanKind::kCount);
  std::vector<KindTotals> totals(kinds);
  std::unordered_map<int64_t, double> child_seconds;
  for (const Span& s : ep.spans) {
    if (s.kind != SpanKind::kRound && s.parent != 0) {
      child_seconds[s.parent] += s.seconds();
    }
  }
  struct RoundInfo {
    int64_t id = 0;
    int64_t start = 0;
    int64_t end = 0;
  };
  std::map<int64_t, RoundInfo> rounds;
  std::unordered_map<int64_t, int64_t> round_of_span_id;
  for (const Span& s : ep.spans) {
    if (s.kind == SpanKind::kRound) {
      rounds[s.round] = {s.id, s.start_ns, s.end_ns};
      round_of_span_id[s.id] = s.round;
      continue;
    }
    KindTotals& t = totals[static_cast<size_t>(s.kind)];
    t.total_s += s.seconds();
    auto it = child_seconds.find(s.id);
    t.self_s += s.seconds() - (it == child_seconds.end() ? 0.0 : it->second);
    t.calls += 1;
    t.detail += s.detail;
  }

  // Per round: the loop thread's top-level spans plus every ClientUpdate
  // (the loop blocks on the executor while a wave runs); what the union
  // leaves uncovered is unattributed loop time.
  std::map<int64_t, std::vector<std::pair<int64_t, int64_t>>> covered;
  struct Wave {
    int64_t first = INT64_MAX;
    int64_t last = INT64_MIN;
    int64_t busy = 0;
  };
  std::map<int64_t, Wave> waves;
  for (const Span& s : ep.spans) {
    if (s.kind == SpanKind::kRound) continue;
    const bool loop_top = s.thread == ep.loop_thread &&
                          round_of_span_id.count(s.parent) > 0;
    if (s.kind == SpanKind::kClientUpdate) {
      Wave& w = waves[s.round];
      w.first = std::min(w.first, s.start_ns);
      w.last = std::max(w.last, s.end_ns);
      w.busy += s.end_ns - s.start_ns;
    }
    if (loop_top || s.kind == SpanKind::kClientUpdate) {
      covered[s.round].push_back({s.start_ns, s.end_ns});
    }
  }
  double loop_other = 0.0;
  double wave_s = 0.0;
  double busy_s = 0.0;
  for (const auto& [r, info] : rounds) {
    std::vector<std::pair<int64_t, int64_t>> clipped;
    for (const auto& [start, end] : covered[r]) {
      clipped.push_back({std::max(start, info.start), std::min(end, info.end)});
    }
    loop_other +=
        static_cast<double>(info.end - info.start - UnionLength(clipped)) *
        1e-9;
    auto w = waves.find(r);
    if (w != waves.end()) {
      wave_s += static_cast<double>(w->second.last - w->second.first) * 1e-9;
      busy_s += static_cast<double>(w->second.busy) * 1e-9;
    }
  }

  auto total = [&](SpanKind k) { return totals[static_cast<size_t>(k)]; };
  out["nn.batch_grad_s"] = total(SpanKind::kBatchGrad).total_s;
  out["nn.batch_grad_calls"] = total(SpanKind::kBatchGrad).calls;
  out["nn.samples"] = total(SpanKind::kBatchGrad).detail;
  out["nn.full_grad_s"] = total(SpanKind::kFullGrad).total_s;
  out["nn.eval_s"] = total(SpanKind::kEval).total_s;
  out["core.client_update_s"] = total(SpanKind::kClientUpdate).total_s;
  out["core.client_update_calls"] = total(SpanKind::kClientUpdate).calls;
  out["core.solver_self_s"] = total(SpanKind::kClientUpdate).self_s;
  out["core.server_update_s"] = total(SpanKind::kServerUpdate).total_s +
                                total(SpanKind::kAggregateOne).total_s;
  out["core.setup_s"] = total(SpanKind::kAlgoSetup).total_s;
  out["fl.wave_s"] = wave_s;
  out["fl.executor_idle_share"] =
      wave_s > 0 ? 1.0 - busy_s / (executor_threads * wave_s) : 0.0;
  out["fl.select_s"] = total(SpanKind::kSelect).total_s;
  out["fl.select_calls"] = total(SpanKind::kSelect).calls;
  out["fl.loop_other_s"] = loop_other;
  out["state.checkpoint_s"] = total(SpanKind::kForEachTouched).total_s;
  out["state.checkpoint_calls"] = total(SpanKind::kForEachTouched).calls;
  out["comm.encode_s"] = total(SpanKind::kEncode).total_s;
  out["comm.encode_calls"] = total(SpanKind::kEncode).calls;
  out["comm.decode_s"] = total(SpanKind::kDecode).total_s;
  out["comm.decode_calls"] = total(SpanKind::kDecode).calls;
  out["serve.on_bytes_s"] = total(SpanKind::kOnBytes).total_s;
  out["serve.collect_wait_s"] = total(SpanKind::kCollectWave).total_s;
  out["serve.begin_round_s"] = total(SpanKind::kBeginRound).total_s;
  return out;
}

/// Every per-layer metric in output order with its unit; the CNN 1 layer
/// rows are spliced in after the nn block.
std::vector<std::pair<std::string, std::string>> LayerMetricDefs() {
  std::vector<std::pair<std::string, std::string>> defs = {
      {"nn.batch_grad_s", "s"},
      {"nn.batch_grad_calls", "count"},
      {"nn.samples", "count"},
      {"nn.full_grad_s", "s"},
      {"nn.eval_s", "s"},
      {"nn.build_s", "s"},
  };
  for (const std::string& layer : Cnn1LayerNames()) {
    defs.push_back({"nn." + layer + ".fwd_s", "s"});
    defs.push_back({"nn." + layer + ".bwd_s", "s"});
  }
  const std::vector<std::pair<std::string, std::string>> rest = {
      {"core.client_update_s", "s"},
      {"core.client_update_calls", "count"},
      {"core.solver_self_s", "s"},
      {"core.server_update_s", "s"},
      {"core.setup_s", "s"},
      {"fl.wave_s", "s"},
      {"fl.executor_idle_share", "ratio"},
      {"fl.select_s", "s"},
      {"fl.select_calls", "count"},
      {"fl.loop_other_s", "s"},
      {"fl.round_s_p90", "s"},
      {"fl.rounds", "count"},
      {"state.checkpoint_s", "s"},
      {"state.checkpoint_calls", "count"},
      {"state.pool_hits", "count"},
      {"state.pool_misses", "count"},
      {"state.pool_creates", "count"},
      {"state.pool_evictions", "count"},
      {"state.pool_write_backs", "count"},
      {"state.pool_hit_ratio", "ratio"},
      {"state.resident_bytes", "bytes"},
      {"state.touched_clients", "count"},
      {"comm.encode_s", "s"},
      {"comm.decode_s", "s"},
      {"comm.encode_calls", "count"},
      {"comm.decode_calls", "count"},
      {"comm.wire_bytes", "bytes"},
      {"comm.raw_bytes", "bytes"},
      {"serve.on_bytes_s", "s"},
      {"serve.frames_in", "count"},
      {"serve.bytes_in", "bytes"},
      {"serve.collect_wait_s", "s"},
      {"serve.begin_round_s", "s"},
      {"serve.polls", "count"},
      {"serve.poll_hit_ratio", "ratio"},
      {"serve.throttled", "count"},
      {"serve.throttle_retries", "count"},
      {"serve.acks_accepted", "count"},
      {"serve.acks_partial", "count"},
      {"serve.acks_rejected", "count"},
      {"serve.hellos", "count"},
      {"serve.protocol_errors", "count"},
      {"serve.decode_errors", "count"},
      {"sys.dropped", "count"},
      {"sys.partial", "count"},
      {"sys.sim_s", "s"},
      {"sys.fleet_build_s", "s"},
      {"data.generate_s", "s"},
      {"bench.trace_overhead", "ratio"},
  };
  defs.insert(defs.end(), rest.begin(), rest.end());
  return defs;
}

int Run(const Args& args) {
  const int nproc = CpuCount();
  std::unique_ptr<Workload> workload =
      MakeWorkload(args.workload, args.scratch);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  if (workload->busy_threads() > nproc) {
    std::fprintf(stderr,
                 "perfbench: %s keeps %d threads busy but this host has %d "
                 "CPUs; refusing to run a workload that oversubscribes\n",
                 args.workload.c_str(), workload->busy_threads(), nproc);
    return 3;
  }

  std::vector<double> generate_s = {workload->GenerateInputs(args.seed)};
  std::vector<SetupSample> setups;
  for (int i = 0; i < kSetupRepetitions; ++i) {
    setups.push_back(workload->SetupOnce(i));
  }

  const int rounds = workload->RoundsPerEpisode(args.seconds);
  const int episodes = workload->Episodes(args.seconds);
  const bool fresh = workload->FreshSeedPerEpisode();
  std::vector<Episode> runs;
  if (!args.trace) {
    for (int e = 0; e < episodes; ++e) {
      if (e > 0 && fresh) {
        generate_s.push_back(
            workload->GenerateInputs(EpisodeSeed(args.seed, e)));
      }
      runs.push_back(workload->RunEpisode(rounds, /*traced=*/false, e));
    }
  } else {
    // One untraced and one traced episode of equal length on the run seed.
    const int traced_rounds = workload->TracedRounds();
    runs.push_back(workload->RunEpisode(traced_rounds, /*traced=*/false, 0));
    runs.push_back(workload->RunEpisode(traced_rounds, /*traced=*/true, 1));
  }
  for (const Episode& ep : runs) setups.push_back(ep.setup);

  // Checks: every episode's own, plus determinism across episodes (all
  // episodes of a run replay one seed, traced or not).
  std::vector<Check> checks;
  for (size_t e = 0; e < runs.size(); ++e) {
    for (const Check& c : runs[e].checks) {
      Check tagged = c;
      if (runs.size() > 1) {
        tagged.name = (args.trace ? (e == 0 ? "untraced." : "traced.")
                                  : "episode" + std::to_string(e) + ".") +
                      c.name;
      }
      checks.push_back(tagged);
    }
  }
  for (size_t e = 1; e < runs.size(); ++e) {
    if (runs[e].seed != runs[0].seed) continue;
    Check same;
    same.name = args.trace ? "traced_theta_equals_untraced"
                           : "episode" + std::to_string(e) + "_replays_episode0";
    same.ok = runs[e].theta_hash == runs[0].theta_hash &&
              runs[e].counters == runs[0].counters;
    same.detail = HexHash(runs[e].theta_hash) + " vs " +
                  HexHash(runs[0].theta_hash);
    checks.push_back(same);
  }
  bool correct = true;
  for (const Check& c : checks) correct = correct && c.ok;

  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<double> walls;
  double timed = 0.0;
  for (const Episode& ep : runs) {
    attempted += ep.decided;
    failed += ep.failed;
    if (!args.trace) {
      walls.insert(walls.end(), ep.round_walls.begin(), ep.round_walls.end());
      timed += ep.timed_seconds;
    }
  }
  if (!correct) failed = attempted;

  std::vector<double> setup_totals;
  std::vector<double> nn_builds;
  std::vector<double> fleet_builds;
  for (const SetupSample& s : setups) {
    setup_totals.push_back(s.total);
    nn_builds.push_back(s.nn_build);
    fleet_builds.push_back(s.fleet_build);
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics.push_back({"setup_s", Median(setup_totals), "s"});
    metrics.push_back({"round_s_p50", Median(walls), "s"});
    metrics.push_back({"updates_per_s",
                       timed > 0 ? static_cast<double>(attempted) / timed : 0.0,
                       "updates/s"});
    metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
    std::vector<double> losses;
    for (const Episode& ep : runs) losses.push_back(ep.test_loss);
    metrics.push_back({"test_loss", Median(losses), "loss"});
  } else {
    const Episode& untraced = runs[0];
    const Episode& traced = runs[1];
    std::map<std::string, double> values =
        AnalyzeSpans(traced, workload->executor_threads());
    for (const auto& [k, v] : traced.layer_values) values[k] = v;
    values["nn.build_s"] = Median(nn_builds);
    values["sys.fleet_build_s"] = Median(fleet_builds);
    values["data.generate_s"] = Median(generate_s);
    values["sys.dropped"] = traced.counters.at("dropped");
    values["sys.partial"] = traced.counters.at("partial");
    values["sys.sim_s"] = traced.counters.at("sim_s");
    values["fl.round_s_p90"] = Quantile(untraced.round_walls, 0.9);
    values["fl.rounds"] = static_cast<double>(untraced.round_walls.size());
    const double base = Median(untraced.round_walls);
    values["bench.trace_overhead"] =
        base > 0 ? Median(traced.round_walls) / base - 1.0 : 0.0;
    // The CNN 1 layer probe belongs to the nn layer, not to a workload: it
    // runs in every traced run so the gated workloads carry it too.
    for (const LayerTiming& t : ProbeCnn1Layers(args.seed, kProbeRepetitions)) {
      values["nn." + t.name + ".fwd_s"] = t.forward_s;
      values["nn." + t.name + ".bwd_s"] = t.backward_s;
    }
    for (const auto& [name, unit] : LayerMetricDefs()) {
      auto it = values.find(name);
      metrics.push_back({name, it == values.end() ? 0.0 : it->second, unit});
    }
    if (!args.trace_dir.empty()) {
      const std::string path = args.trace_dir + "/" + args.workload +
                               "-seed" + std::to_string(args.seed) +
                               ".spans.csv";
      if (WriteSpansCsv(path, traced.spans)) {
        std::printf("spans: %zu written to %s\n", traced.spans.size(),
                    path.c_str());
      }
    }
  }

  // Human-readable lines, then the JSON result as the last line.
  for (const Check& c : checks) {
    std::printf("check %-40s %s  (%s)\n", c.name.c_str(),
                c.ok ? "ok" : "FAILED", c.detail.c_str());
  }
  std::ostringstream json;
  json << "{\"workload\": " << JsonString(args.workload)
       << ", \"seed\": " << args.seed << ", \"trace\": " << (args.trace ? 1 : 0)
       << ", \"host\": {\"cpu_model\": " << JsonString(CpuModel())
       << ", \"nproc\": " << nproc << ", \"isa\": "
       << JsonString(fedadmm::simd::IsaName(fedadmm::simd::ActiveIsa()))
       << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
       << ", \"busy_threads\": " << workload->busy_threads() << "}"
       << ", \"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"rounds_per_episode\": "
       << (runs.empty() ? 0 : runs[0].round_walls.size())
       << ", \"episodes\": " << runs.size()
       << ", \"episode_test_losses\": [";
  for (size_t e = 0; e < runs.size(); ++e) {
    json << (e ? ", " : "") << JsonNumber(runs[e].test_loss);
  }
  json << "], \"round_samples\": " << walls.size()
       << ", \"round_walls_s\": [";
  for (size_t w = 0; w < walls.size(); ++w) {
    json << (w ? ", " : "") << JsonNumber(walls[w]);
  }
  json << "]"
       << ", \"setup_samples\": " << setup_totals.size()
       << ", \"theta_hash\": " << JsonString(HexHash(runs[0].theta_hash));
  if (args.trace) {
    json << ", \"traced_theta_hash\": "
         << JsonString(HexHash(runs[1].theta_hash));
  }
  json << ", \"checks\": [";
  for (size_t i = 0; i < checks.size(); ++i) {
    json << (i ? ", " : "") << "{\"name\": " << JsonString(checks[i].name)
         << ", \"ok\": " << (checks[i].ok ? "true" : "false")
         << ", \"detail\": " << JsonString(checks[i].detail) << "}";
  }
  json << "], \"counters\": {";
  size_t i = 0;
  for (const auto& [k, v] : runs[0].counters) {
    json << (i++ ? ", " : "") << JsonString(k) << ": " << JsonNumber(v);
  }
  json << "}, \"metrics\": {";
  for (size_t m = 0; m < metrics.size(); ++m) {
    json << (m ? ", " : "") << JsonString(metrics[m].name)
         << ": {\"value\": " << JsonNumber(metrics[m].value)
         << ", \"unit\": " << JsonString(metrics[m].unit) << "}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <cnn1-sync|fleet-buffered|"
                 "serve-ingest> --seed <n> --seconds <s> --trace <0|1> "
                 "--scratch <dir> [--trace-dir <dir>]\n");
    return 2;
  }
  return perfbench::Run(args);
}

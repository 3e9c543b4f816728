/// \file bench_micro_kernels.cc
/// \brief google-benchmark microbenchmarks of the compute kernels backing
/// the simulator: GEMM, im2col convolution, pooling, softmax, the flat
/// vector operations on the FL hot path, the slab log and the Rng draws.
///
/// Besides the usual console table, every run tees its results into the
/// obs perf rail (obs/bench_recorder.h): per-iteration real/CPU seconds
/// land in a BENCH_kernels.json document (FEDADMM_BENCH_JSON, required —
/// no default) that `tools/bench_diff` gates against the committed
/// baseline at the repo root.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "comm/quantize.h"
#include "core/fedadmm.h"
#include "fl/algorithm.h"
#include "nn/model_zoo.h"
#include "obs/bench_recorder.h"
#include "state/slab_log.h"
#include "tensor/simd/simd.h"
#include "tensor/tensor_ops.h"
#include "tensor/vec.h"
#include "util/env.h"
#include "util/file_io.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fedadmm {
namespace {

std::vector<float> RandomVec(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.Normal(0.0, 1.0));
  return v;
}

/// Pins the kernel table for the duration of one benchmark so the
/// `*Scalar` variants measure the genuine scalar fallback against the
/// otherwise-identical dispatched benchmark. Benchmarks run their hot
/// loops on this thread, so flipping the table here is safe.
struct ScopedForcedScalar {
  ScopedForcedScalar() { simd::ForceIsaForTesting(simd::Isa::kScalar); }
  ~ScopedForcedScalar() { simd::ForceIsaForTesting(std::nullopt); }
};

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  const auto a = RandomVec(static_cast<size_t>(n * n), 1);
  const auto b = RandomVec(static_cast<size_t>(n * n), 2);
  std::vector<float> c(static_cast<size_t>(n * n));
  for (auto _ : state) {
    ops::MatMul(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_Im2Col(benchmark::State& state) {
  const int64_t hw = state.range(0);
  const int64_t channels = 3, kernel = 5, pad = 2;
  const auto img = RandomVec(static_cast<size_t>(channels * hw * hw), 3);
  const int64_t out = ops::ConvOutDim(hw, kernel, 1, pad);
  std::vector<float> cols(
      static_cast<size_t>(channels * kernel * kernel * out * out));
  for (auto _ : state) {
    ops::Im2Col(img.data(), channels, hw, hw, kernel, kernel, 1, 1, pad, pad,
                cols.data());
    benchmark::DoNotOptimize(cols.data());
  }
}
BENCHMARK(BM_Im2Col)->Arg(12)->Arg(28)->Arg(32);

void BM_CnnForwardBackward(benchmark::State& state) {
  // One training step of the scaled bench CNN on a batch of 10 — the unit
  // of work the simulator performs per client batch.
  Rng rng(4);
  auto model = BuildModel(BenchCnnConfig(1, 12));
  model->Initialize(&rng);
  Tensor x(Shape({10, 1, 12, 12}));
  x.FillNormal(&rng);
  const std::vector<int> labels{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  for (auto _ : state) {
    model->ZeroGrad();
    benchmark::DoNotOptimize(model->ForwardBackward(x, labels));
  }
}
BENCHMARK(BM_CnnForwardBackward);

void BM_PaperCnn1Forward(benchmark::State& state) {
  // Table II model at batch 1: documents the CPU cost of paper-scale runs.
  Rng rng(5);
  auto model = BuildModel(PaperCnn1Config());
  model->Initialize(&rng);
  Tensor x(Shape({1, 1, 28, 28}));
  x.FillNormal(&rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->Predict(x));
  }
}
BENCHMARK(BM_PaperCnn1Forward);

void BM_VecAxpy(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const auto x = RandomVec(d, 6);
  auto y = RandomVec(d, 7);
  for (auto _ : state) {
    vec::Axpy(0.01f, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(d) * 2 * 4);
}
BENCHMARK(BM_VecAxpy)->Arg(4096)->Arg(1 << 17)->Arg(1663370);

// The server-aggregation reduction: |S| deltas fused into θ in one blocked
// pass. Arg0 = dim, Arg1 = number of vectors, Arg2 = pool threads (0 =
// serial). Results are bitwise identical across all thread counts.
void BM_AxpyMany(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const size_t count = static_cast<size_t>(state.range(1));
  const int threads = static_cast<int>(state.range(2));
  std::vector<std::vector<float>> xs;
  for (size_t i = 0; i < count; ++i) xs.push_back(RandomVec(d, 20 + i));
  std::vector<std::span<const float>> views(xs.begin(), xs.end());
  auto y = RandomVec(d, 19);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
  for (auto _ : state) {
    vec::AxpyMany(0.01f, views, y, pool.get());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(d * (count + 2)) * 4);
}
BENCHMARK(BM_AxpyMany)
    ->Args({1 << 17, 32, 0})
    ->Args({1 << 17, 32, 4})
    ->Args({1 << 17, 32, 8})
    ->Args({1663370, 10, 0})
    ->Args({1663370, 10, 8});

void BM_BlockedMean(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  std::vector<std::vector<float>> xs;
  for (size_t i = 0; i < 16; ++i) xs.push_back(RandomVec(d, 40 + i));
  std::vector<std::span<const float>> views(xs.begin(), xs.end());
  std::vector<float> out(d);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
  for (auto _ : state) {
    vec::BlockedMean(views, out, pool.get());
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_BlockedMean)->Args({1 << 17, 0})->Args({1 << 17, 8});

// The Eq.-20 diagnostic over all m clients: historically a scalar double
// loop dividing y_[i][k] by ρ m·d times; now a hoisted-reciprocal blocked
// reduction over store views. Arg0 = clients, Arg1 = dim, Arg2 = threads.
void BM_MeanAugmentedModel(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int64_t d = state.range(1);
  const int threads = static_cast<int>(state.range(2));
  FedAdmmOptions options;
  options.rho = StepSchedule(0.5);
  FedAdmm algo(options);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
  AlgorithmContext ctx;
  ctx.num_clients = m;
  ctx.dim = d;
  ctx.reduce_pool = pool.get();
  const auto theta0 = RandomVec(static_cast<size_t>(d), 12);
  algo.Setup(ctx, theta0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo.MeanAugmentedModel(0));
  }
  state.SetBytesProcessed(state.iterations() * 2 * m * d * 4);
}
BENCHMARK(BM_MeanAugmentedModel)
    ->Args({256, 1 << 15, 0})
    ->Args({256, 1 << 15, 8});

void BM_VecDot(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const auto x = RandomVec(d, 8);
  const auto y = RandomVec(d, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vec::Dot(x, y));
  }
}
BENCHMARK(BM_VecDot)->Arg(4096)->Arg(1 << 17);

// ---- Dispatched-vs-forced-scalar pairs ------------------------------------
// Each `*Scalar` benchmark is its dispatched twin re-run with the kernel
// table pinned to the scalar reference; the ratio is the SIMD speedup on
// this host (both produce bitwise identical results by contract).

void BM_VecAxpyScalar(benchmark::State& state) {
  ScopedForcedScalar forced;
  const size_t d = static_cast<size_t>(state.range(0));
  const auto x = RandomVec(d, 6);
  auto y = RandomVec(d, 7);
  for (auto _ : state) {
    vec::Axpy(0.01f, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(d) * 2 * 4);
}
BENCHMARK(BM_VecAxpyScalar)->Arg(1 << 17);

void BM_AxpyManyScalar(benchmark::State& state) {
  ScopedForcedScalar forced;
  const size_t d = static_cast<size_t>(state.range(0));
  const size_t count = static_cast<size_t>(state.range(1));
  std::vector<std::vector<float>> xs;
  for (size_t i = 0; i < count; ++i) xs.push_back(RandomVec(d, 20 + i));
  std::vector<std::span<const float>> views(xs.begin(), xs.end());
  auto y = RandomVec(d, 19);
  for (auto _ : state) {
    vec::AxpyMany(0.01f, views, y, nullptr);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(d * (count + 2)) * 4);
}
BENCHMARK(BM_AxpyManyScalar)->Args({1 << 17, 32});

void BM_VecDotScalar(benchmark::State& state) {
  ScopedForcedScalar forced;
  const size_t d = static_cast<size_t>(state.range(0));
  const auto x = RandomVec(d, 8);
  const auto y = RandomVec(d, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vec::Dot(x, y));
  }
}
BENCHMARK(BM_VecDotScalar)->Arg(1 << 17);

void BM_MatMulScalar(benchmark::State& state) {
  ScopedForcedScalar forced;
  const int64_t n = state.range(0);
  const auto a = RandomVec(static_cast<size_t>(n * n), 1);
  const auto b = RandomVec(static_cast<size_t>(n * n), 2);
  std::vector<float> c(static_cast<size_t>(n * n));
  for (auto _ : state) {
    ops::MatMul(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatMulScalar)->Arg(128);

// The q-codec wire path: per-chunk max|v|, grid quantization, and bit
// packing (encode); bit unpacking and grid reconstruction (decode).
// Arg0 = dim, Arg1 = bits.
void BM_QuantEncode(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const int bits = static_cast<int>(state.range(1));
  UniformQuantCodec codec(bits);
  const auto v = RandomVec(d, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.Encode(0, v, nullptr));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(d) * 4);
}
BENCHMARK(BM_QuantEncode)->Args({1 << 17, 8})->Args({1 << 17, 12});

void BM_QuantEncodeScalar(benchmark::State& state) {
  ScopedForcedScalar forced;
  const size_t d = static_cast<size_t>(state.range(0));
  const int bits = static_cast<int>(state.range(1));
  UniformQuantCodec codec(bits);
  const auto v = RandomVec(d, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.Encode(0, v, nullptr));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(d) * 4);
}
BENCHMARK(BM_QuantEncodeScalar)->Args({1 << 17, 8});

void BM_QuantDecode(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const int bits = static_cast<int>(state.range(1));
  UniformQuantCodec codec(bits);
  const Payload payload = codec.Encode(0, RandomVec(d, 14), nullptr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.Decode(payload));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(d) * 4);
}
BENCHMARK(BM_QuantDecode)->Args({1 << 17, 8})->Args({1 << 17, 12});

void BM_QuantDecodeScalar(benchmark::State& state) {
  ScopedForcedScalar forced;
  const size_t d = static_cast<size_t>(state.range(0));
  const int bits = static_cast<int>(state.range(1));
  UniformQuantCodec codec(bits);
  const Payload payload = codec.Encode(0, RandomVec(d, 14), nullptr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.Decode(payload));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(d) * 4);
}
BENCHMARK(BM_QuantDecodeScalar)->Args({1 << 17, 8});

void BM_SoftmaxRows(benchmark::State& state) {
  const int64_t rows = state.range(0);
  const auto logits = RandomVec(static_cast<size_t>(rows * 10), 10);
  std::vector<float> probs(logits.size());
  for (auto _ : state) {
    ops::SoftmaxRows(logits.data(), rows, 10, probs.data());
    benchmark::DoNotOptimize(probs.data());
  }
}
BENCHMARK(BM_SoftmaxRows)->Arg(32)->Arg(256);

void BM_MaxPool(benchmark::State& state) {
  const int64_t hw = state.range(0);
  const auto input = RandomVec(static_cast<size_t>(8 * 4 * hw * hw), 11);
  const int64_t out = hw / 2;
  std::vector<float> output(static_cast<size_t>(8 * 4 * out * out));
  std::vector<int32_t> argmax(output.size());
  for (auto _ : state) {
    ops::MaxPool2dForward(input.data(), 8, 4, hw, hw, 2, 2, output.data(),
                          argmax.data());
    benchmark::DoNotOptimize(output.data());
  }
}
BENCHMARK(BM_MaxPool)->Arg(12)->Arg(28);

// ----- The slab log: spill, fault and checkpoint I/O -----------------------
// Each record is one d-float client slab behind the 37-byte CRC-framed
// header; d = 256 is fleet-buffered's slab. The log lives in the system
// temp directory and is removed afterwards.

std::string BenchSlabPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void BM_Crc32(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<uint8_t> bytes(n);
  for (size_t i = 0; i < n; ++i) bytes[i] = static_cast<uint8_t>(i * 131);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(bytes.data(), bytes.size()));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_Crc32)->Arg(1024);

// One dirty write-back: append a slab record, the amortized write-out of
// full staging buffers included. The log restarts, untimed, every 4,096
// records (~4 MB) so the file stays small.
void BM_SlabLogAppend(benchmark::State& state) {
  const std::vector<float> slab =
      RandomVec(static_cast<size_t>(state.range(0)), 15);
  const std::string path = BenchSlabPath("fedadmm_bench_append.slab");
  std::unique_ptr<SlabLog> log;
  int64_t appended = 0;
  for (auto _ : state) {
    if (appended++ % 4096 == 0) {
      state.PauseTiming();
      log.reset();
      log = SlabLog::Open(path, /*truncate=*/true).ValueOrDie();
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(
        log->AppendFloats(SlabLog::RecordType::kSlab, 7, 0, slab));
  }
  log.reset();
  RemoveFileIfExists(path);
  state.SetBytesProcessed(state.iterations() * state.range(0) * 4);
}
BENCHMARK(BM_SlabLogAppend)->Arg(256);

// One cold fault: read a slab record back by offset, cycling through 4,096
// records that were synced first (so every read goes to the file).
void BM_SlabLogReadFloatsAt(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const std::string path = BenchSlabPath("fedadmm_bench_fault.slab");
  auto log = SlabLog::Open(path, /*truncate=*/true).ValueOrDie();
  std::vector<int64_t> offsets;
  for (int client = 0; client < 4096; ++client) {
    offsets.push_back(
        log->AppendFloats(SlabLog::RecordType::kSlab, client, 0,
                          RandomVec(d, static_cast<uint64_t>(client)))
            .ValueOrDie());
  }
  if (!log->Sync().ok()) state.SkipWithError("sync failed");
  std::vector<float> out(d);
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(log->ReadFloatsAt(offsets[next], out));
    next = (next + 1) % offsets.size();
  }
  log.reset();
  RemoveFileIfExists(path);
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(d) * 4);
}
BENCHMARK(BM_SlabLogReadFloatsAt)->Arg(256);

// ----- Rng: the draws behind every client update and event refill ----------
// Ids, bounds and sizes come from run-time data: on constants the compiler
// can fold a fork and its draw away.

// One client update's stream: a (tag, wave, client) fork of the master
// stream, as ClientExecutor forks it, and its epoch draw U{1..E}
// (SampleEpochs under variable epochs).
void BM_RngForkDraw(benchmark::State& state) {
  const Rng master(101);
  int64_t max_epochs = 5;
  benchmark::DoNotOptimize(max_epochs);
  uint64_t update = 0;
  for (auto _ : state) {
    Rng rng = master.Fork(0xC11E, update / 1000, update % 1000);
    benchmark::DoNotOptimize(rng.UniformInt(1, max_epochs));
    ++update;
  }
}
BENCHMARK(BM_RngForkDraw);

// A mean-field problem's per-client target fill: a (tag, client) fork and
// d Normal(0, 1.5) draws into a float buffer.
void BM_RngFillNormal(benchmark::State& state) {
  const Rng master(101);
  std::vector<float> target(static_cast<size_t>(state.range(0)));
  double spread = 1.5;
  benchmark::DoNotOptimize(spread);
  uint64_t client = 0;
  for (auto _ : state) {
    Rng rng = master.Fork(0x7A46E7, client++);
    for (float& v : target) v = static_cast<float>(rng.Normal(0.0, spread));
    benchmark::DoNotOptimize(target.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_RngFillNormal)->Arg(256);

// fleet-buffered's event refill: k of m clients without replacement. One
// untimed draw first sizes the sampling thread's retained array.
void BM_SampleWithoutReplacement(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  Rng rng(202);
  benchmark::DoNotOptimize(rng.SampleWithoutReplacement(n, k));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.SampleWithoutReplacement(n, k));
  }
}
BENCHMARK(BM_SampleWithoutReplacement)->Args({100000, 1000});

// Console output as usual, plus one BenchResult per benchmark run. The
// `_wall_seconds` suffix puts the timings in the wall-clock gating class
// (percentage tolerance, regressions only); iteration counts are
// adaptive, hence informational.
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonTeeReporter(obs::BenchRecorder* recorder)
      : recorder_(recorder) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      obs::BenchResult* row = recorder_->AddResult(run.benchmark_name());
      row->AddMetric("iterations", static_cast<int64_t>(run.iterations));
      row->AddMetric("real_wall_seconds", run.real_accumulated_time / iters);
      row->AddMetric("cpu_wall_seconds", run.cpu_accumulated_time / iters);
    }
  }

 private:
  obs::BenchRecorder* recorder_;
};

}  // namespace
}  // namespace fedadmm

int main(int argc, char** argv) {
  const std::string json_path = fedadmm::bench::RequiredBenchJsonPath();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

  fedadmm::obs::BenchRecorder recorder("kernels");
  recorder.AddContext("scale",
                      fedadmm::GetEnvString("FEDADMM_BENCH_SCALE", "small"));
  // Which kernel table the dispatched benchmarks ran: numbers measured on
  // different ISAs are not comparable, so the gate should refuse them.
  recorder.AddContext("isa",
                      fedadmm::simd::IsaName(fedadmm::simd::ActiveIsa()));
  fedadmm::JsonTeeReporter reporter(&recorder);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!recorder.WriteFile(json_path).ok()) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("perf rail written to %s\n", json_path.c_str());
  return 0;
}

/// \file bench_table2_models.cc
/// \brief Reproduces Table II of the paper: the experimental setup's model
/// sizes. Builds the two exact CNN architectures, verifies the parameter
/// counts match the published numbers, and reports per-sample CPU training
/// cost (which motivates the scaled bench models used elsewhere).

#include <chrono>
#include <cstdio>

#include "bench/bench_common.h"

namespace {

using namespace fedadmm;

struct Table2Row {
  const char* model_name;
  ModelConfig config;
  int64_t paper_params;
  const char* dataset;
  const char* paper_target;
};

void TimeModel(Model* model, const Shape& input_shape, double* fwd_ms,
               double* fwdbwd_ms) {
  Rng rng(1);
  model->Initialize(&rng);
  Tensor x(input_shape);
  x.FillNormal(&rng);
  std::vector<int> labels;
  for (int64_t i = 0; i < input_shape.dim(0); ++i) {
    labels.push_back(static_cast<int>(i % 10));
  }
  // Warmup.
  model->Predict(x);
  using Clock = std::chrono::steady_clock;
  const auto millis_since = [](Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
  };
  const int reps = 3;
  Clock::time_point start = Clock::now();
  for (int i = 0; i < reps; ++i) model->Predict(x);
  *fwd_ms = millis_since(start) / reps;
  start = Clock::now();
  for (int i = 0; i < reps; ++i) {
    model->ZeroGrad();
    model->ForwardBackward(x, labels);
  }
  *fwdbwd_ms = millis_since(start) / reps;
}

}  // namespace

int main() {
  using namespace fedadmm::bench;
  PrintHeader(
      "Table II — Experimental setup: models, parameter counts, targets");

  const Table2Row rows[] = {
      {"CNN 1", PaperCnn1Config(), 1663370, "MNIST / FMNIST", "97% / 80%"},
      {"CNN 2", PaperCnn2Config(), 1105098, "CIFAR-10", "45%"},
  };

  std::printf("%-8s %-14s %-14s %-8s %-16s %-10s %-12s\n", "model",
              "paper #params", "built #params", "match", "dataset",
              "fwd ms/8", "fwd+bwd ms/8");
  for (const Table2Row& row : rows) {
    auto model = BuildModel(row.config);
    const int64_t built = model->NumParameters();
    double fwd = 0, fwdbwd = 0;
    const Shape input({8, row.config.in_channels, row.config.height,
                       row.config.width});
    TimeModel(model.get(), input, &fwd, &fwdbwd);
    std::printf("%-8s %-14lld %-14lld %-8s %-16s %-10.1f %-12.1f\n",
                row.model_name, static_cast<long long>(row.paper_params),
                static_cast<long long>(built),
                built == row.paper_params ? "EXACT" : "MISMATCH", row.dataset,
                fwd, fwdbwd);
  }

  // The scaled bench model used by the other benches, for context.
  auto bench_model = BuildModel(BenchCnnConfig(1, 12));
  double fwd = 0, fwdbwd = 0;
  TimeModel(bench_model.get(), Shape({8, 1, 12, 12}), &fwd, &fwdbwd);
  std::printf("%-8s %-14s %-14lld %-8s %-16s %-10.1f %-12.1f\n", "bench",
              "(n/a)", static_cast<long long>(bench_model->NumParameters()),
              "-", "synthetic", fwd, fwdbwd);

  PrintFootnote();
  return 0;
}

#include "fl/nn_problem.h"

#include <algorithm>
#include <cmath>

#include "nn/losses.h"

namespace fedadmm {
namespace {

/// LocalProblem adapter over a worker-slot model and a client's data view.
class NnLocalProblem : public LocalProblem {
 public:
  NnLocalProblem(Model* model, const ClientView* view)
      : model_(model), view_(view) {}

  int64_t dim() const override { return model_->NumParameters(); }
  int num_samples() const override { return view_->size(); }

  double BatchLossGradient(std::span<const float> w,
                           const std::vector<int>& batch,
                           std::span<float> grad) override {
    FEDADMM_CHECK_MSG(!batch.empty(), "empty batch");
    model_->SetParameters(w);
    model_->ZeroGrad();
    const Tensor inputs = view_->dataset()->MakeBatch(batch);
    const std::vector<int> labels = view_->dataset()->MakeLabelBatch(batch);
    const double loss = model_->ForwardBackward(inputs, labels);
    model_->GetGradients(grad);
    return loss;
  }

  std::vector<std::vector<int>> EpochBatches(int batch_size,
                                             Rng* rng) override {
    return view_->EpochBatches(batch_size, rng);
  }

  double FullLossGradient(std::span<const float> w,
                          std::span<float> grad) override {
    return BatchLossGradient(w, view_->indices(), grad);
  }

 private:
  Model* model_;
  const ClientView* view_;
};

}  // namespace

NnFederatedProblem::NnFederatedProblem(const ModelConfig& model_config,
                                       const Dataset* train,
                                       const Dataset* test,
                                       Partition partition, int num_workers)
    : train_(train), test_(test), partition_(std::move(partition)) {
  FEDADMM_CHECK(train_ != nullptr && test_ != nullptr);
  FEDADMM_CHECK_MSG(!partition_.empty(), "empty partition");
  FEDADMM_CHECK_MSG(num_workers >= 1, "need at least one worker");
  views_.reserve(partition_.size());
  for (const auto& indices : partition_) {
    FEDADMM_CHECK_MSG(!indices.empty(),
                      "every client needs at least one sample");
    views_.emplace_back(train_, indices);
  }
  models_.reserve(static_cast<size_t>(num_workers));
  auto prototype = BuildModel(model_config);
  dim_ = prototype->NumParameters();
  for (int i = 0; i < num_workers; ++i) {
    models_.push_back(i == 0 ? std::move(prototype)
                             : models_[0]->Clone());
  }
}

std::unique_ptr<LocalProblem> NnFederatedProblem::MakeLocalProblem(
    int client, int worker) {
  FEDADMM_CHECK(client >= 0 && client < num_clients());
  FEDADMM_CHECK(worker >= 0 && worker < num_workers());
  return std::make_unique<NnLocalProblem>(
      models_[static_cast<size_t>(worker)].get(),
      &views_[static_cast<size_t>(client)]);
}

EvalResult NnFederatedProblem::Evaluate(std::span<const float> theta,
                                        int worker) {
  FEDADMM_CHECK(worker >= 0 && worker < num_workers());
  Model* model = models_[static_cast<size_t>(worker)].get();
  model->SetParameters(theta);

  EvalResult result;
  const int n = test_->size();
  if (n == 0) return result;
  int correct_weighted = 0;
  double loss_sum = 0.0;
  std::vector<int> batch;
  for (int start = 0; start < n; start += eval_batch_size_) {
    const int end = std::min(n, start + eval_batch_size_);
    batch.resize(static_cast<size_t>(end - start));
    for (int i = start; i < end; ++i) {
      batch[static_cast<size_t>(i - start)] = i;
    }
    const Tensor inputs = test_->MakeBatch(batch);
    const std::vector<int> labels = test_->MakeLabelBatch(batch);
    double acc = 0.0;
    const double loss = model->EvalLoss(inputs, labels, &acc);
    loss_sum += loss * static_cast<double>(end - start);
    correct_weighted +=
        static_cast<int>(std::lround(acc * static_cast<double>(end - start)));
  }
  result.accuracy = static_cast<double>(correct_weighted) / n;
  result.loss = loss_sum / n;
  return result;
}

std::vector<float> NnFederatedProblem::InitialParameters(Rng* rng) {
  models_[0]->Initialize(rng);
  std::vector<float> theta;
  models_[0]->GetParameters(&theta);
  return theta;
}

}  // namespace fedadmm

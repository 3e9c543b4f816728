#include "fl/algorithms/fedpd.h"

#include "comm/wire.h"
#include "tensor/vec.h"

namespace fedadmm {

void FedPd::Setup(const AlgorithmContext& ctx,
                  std::span<const float> theta0) {
  num_clients_ = ctx.num_clients;
  dim_ = ctx.dim;
  reduce_pool_ = ctx.reduce_pool;
  std::vector<StateSlotSpec> slots(2);
  slots[kSlotModel].dim = ctx.dim;
  slots[kSlotModel].init.assign(theta0.begin(), theta0.end());
  slots[kSlotDual].dim = ctx.dim;
  auto store = MakeConfiguredClientStateStore(
      ctx.state_store, DefaultStateStoreSpec(), ctx.num_clients,
      std::move(slots));
  FEDADMM_CHECK_MSG(store.ok(), store.status().ToString());
  store_ = std::move(store).ValueOrDie();
  comm_rounds_ = 0;
  // Decide the first round's communication coin up front; subsequent coins
  // are flipped in ServerUpdate so ClientUpdate can see a consistent value.
  communicate_this_round_ = coin_rng_.Bernoulli(comm_probability_);
}

UpdateMessage FedPd::ClientUpdate(int client_id, int round,
                                  std::span<const float> theta,
                                  LocalProblem* problem, Rng rng) {
  (void)round;
  std::span<float> w = store_->MutableView(client_id, kSlotModel);
  std::span<float> y = store_->MutableView(client_id, kSlotDual);
  const float rho = rho_;

  // Warm-start from the stored local model; anchor to the *current* θ.
  auto transform = [y, rho, theta](std::span<const float> w_now,
                                   std::span<float> grad) {
    const size_t n = grad.size();
    for (size_t i = 0; i < n; ++i) {
      grad[i] += y[i] + rho * (w_now[i] - theta[i]);
    }
  };
  const int epochs = SampleEpochs(local_, &rng);
  const LocalSolveResult result =
      RunLocalSgd(problem, local_, epochs, w, &rng, transform);
  // Dual ascent: y_i += ρ (w_i − θ).
  for (size_t i = 0; i < y.size(); ++i) {
    y[i] += rho * (w[i] - theta[i]);
  }

  UpdateMessage msg;
  msg.client_id = client_id;
  msg.train_loss = result.mean_loss;
  msg.epochs_run = result.epochs_run;
  msg.steps_run = result.steps_run;
  if (communicate_this_round_) {
    // Upload the augmented model w_i + y_i/ρ for global averaging.
    msg.delta.resize(w.size());
    for (size_t i = 0; i < w.size(); ++i) {
      msg.delta[i] = w[i] + y[i] / rho;
    }
  }
  store_->Release(client_id);
  return msg;
}

void FedPd::ServerUpdate(const std::vector<UpdateMessage>& updates, int round,
                         std::vector<float>* theta) {
  (void)round;
  if (communicate_this_round_) {
    FEDADMM_CHECK_MSG(static_cast<int>(updates.size()) == num_clients_,
                      "FedPD requires full participation");
    vec::Zero(*theta);
    const float inv_m = 1.0f / static_cast<float>(num_clients_);
    std::vector<std::span<const float>> deltas;
    deltas.reserve(updates.size());
    for (const UpdateMessage& msg : updates) deltas.push_back(msg.delta);
    // θ = (1/m) Σ (w_i + y_i/ρ).
    vec::AxpyMany(inv_m, deltas, *theta, reduce_pool_);
    ++comm_rounds_;
  }
  communicate_this_round_ = coin_rng_.Bernoulli(comm_probability_);
}

Status FedPd::ValidateForEventMode() const {
  return Status::InvalidArgument(
      "FedPD aggregates θ = (1/m) Σ (w_i + y_i/ρ) over the full population; "
      "buffered/async partial batches cannot form that mean. Use "
      "ExecutionMode::kSync with FullParticipationSelector");
}

int64_t FedPd::StateBytesResident() const {
  return store_ ? store_->bytes_resident() : 0;
}

std::string FedPd::SerializeExtraState() const {
  // The coin stream decides *future* aggregation rounds: without it a
  // restored run would re-seed and draw a different communication
  // schedule than the uninterrupted one.
  std::vector<uint8_t> bytes;
  wire::Writer writer(&bytes);
  writer.PutString(coin_rng_.SerializeState());
  writer.PutU32(static_cast<uint32_t>(comm_rounds_));
  writer.PutU8(communicate_this_round_ ? 1 : 0);
  return std::string(bytes.begin(), bytes.end());
}

Status FedPd::RestoreExtraState(const std::string& blob) {
  wire::ReaderView reader(blob);
  std::string coin_state;
  uint32_t comm_rounds = 0;
  uint8_t communicate = 0;
  FEDADMM_RETURN_IF_ERROR(reader.TryString(&coin_state));
  FEDADMM_RETURN_IF_ERROR(coin_rng_.RestoreState(coin_state));
  FEDADMM_RETURN_IF_ERROR(reader.TryU32(&comm_rounds));
  FEDADMM_RETURN_IF_ERROR(reader.TryU8(&communicate));
  comm_rounds_ = static_cast<int>(comm_rounds);
  communicate_this_round_ = communicate != 0;
  if (reader.remaining() != 0) {
    return Status::InvalidArgument(
        "FedPd::RestoreExtraState: trailing bytes in checkpoint blob");
  }
  return Status::OK();
}

}  // namespace fedadmm

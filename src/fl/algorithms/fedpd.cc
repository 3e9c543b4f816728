#include "fl/algorithms/fedpd.h"

#include "comm/wire.h"
#include "tensor/vec.h"

namespace fedadmm {

void FedPd::Setup(const AlgorithmContext& ctx,
                  std::span<const float> theta0) {
  FederatedAlgorithm::Setup(ctx, theta0);
  std::vector<StateSlotSpec> slots(2);
  slots[kSlotModel].dim = ctx.dim;
  slots[kSlotModel].init.assign(theta0.begin(), theta0.end());
  slots[kSlotDual].dim = ctx.dim;
  BuildStateStore(ctx, std::move(slots));
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

  // Warm-start from the stored local model; anchor to the *current* θ.
  const int epochs = SampleEpochs(local_, &rng);
  const LocalSolveResult result =
      RunLocalSgd(problem, local_, epochs, w, &rng,
                  AugmentedLagrangianTerm(y, rho_, theta));
  DualAscent(rho_, w, theta, y);

  UpdateMessage msg = SolvedMessage(client_id, result);
  if (communicate_this_round_) {
    // Upload the augmented model w_i + y_i/ρ for global averaging.
    msg.delta.resize(w.size());
    for (size_t i = 0; i < w.size(); ++i) {
      msg.delta[i] = w[i] + y[i] / rho_;
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
    // θ = (1/m) Σ (w_i + y_i/ρ).
    vec::Zero(*theta);
    AddScaledDeltas(1.0f / static_cast<float>(num_clients_), updates, theta);
    ++comm_rounds_;
  }
  communicate_this_round_ = coin_rng_.Bernoulli(comm_probability_);
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

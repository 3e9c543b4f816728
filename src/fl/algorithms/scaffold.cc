#include "fl/algorithms/scaffold.h"

#include "comm/wire.h"
#include "tensor/vec.h"

namespace fedadmm {

void Scaffold::Setup(const AlgorithmContext& ctx,
                     std::span<const float> theta0) {
  FederatedAlgorithm::Setup(ctx, theta0);
  server_c_.assign(static_cast<size_t>(dim_), 0.0f);
  // Controls are zero-initialized as the paper recommends — the slot
  // default, so sparse backends keep untouched clients free.
  std::vector<StateSlotSpec> slots(1);
  slots[kSlotControl].dim = ctx.dim;
  BuildStateStore(ctx, std::move(slots));
}

UpdateMessage Scaffold::ClientUpdate(int client_id, int round,
                                     std::span<const float> theta,
                                     LocalProblem* problem, Rng rng) {
  (void)round;
  std::span<float> c_i = store_->MutableView(client_id, kSlotControl);
  const std::vector<float>& c = server_c_;

  std::vector<float> w(theta.begin(), theta.end());
  const int epochs = SampleEpochs(local_, &rng);
  // grad += c - c_i (variance-reduction correction).
  auto transform = [&c, c_i](std::span<const float> w_now,
                             std::span<float> grad) {
    (void)w_now;
    const size_t n = grad.size();
    for (size_t i = 0; i < n; ++i) grad[i] += c[i] - c_i[i];
  };
  const LocalSolveResult result =
      RunLocalSgd(problem, local_, epochs, w, &rng, transform);

  UpdateMessage msg = SolvedMessage(client_id, result);
  msg.delta.resize(theta.size());
  vec::Sub(w, theta, msg.delta);

  // Option II control refresh: c_i+ = c_i - c + (θ - w+) / (K η_l).
  const float k_steps = static_cast<float>(std::max(1, result.steps_run));
  const float inv = 1.0f / (k_steps * local_.learning_rate);
  std::vector<float> c_i_new(c_i.size());
  for (size_t i = 0; i < c_i.size(); ++i) {
    c_i_new[i] = c_i[i] - c[i] + (theta[i] - w[i]) * inv;
  }
  msg.delta2.resize(c_i.size());
  vec::Sub(c_i_new, c_i, msg.delta2);
  vec::Copy(c_i_new, c_i);
  store_->Release(client_id);
  return msg;
}

void Scaffold::ServerUpdate(const std::vector<UpdateMessage>& updates,
                            int round, std::vector<float>* theta) {
  (void)round;
  FEDADMM_CHECK(!updates.empty());
  const float inv_s = 1.0f / static_cast<float>(updates.size());
  std::vector<std::span<const float>> control_deltas;
  control_deltas.reserve(updates.size());
  for (const UpdateMessage& msg : updates) {
    FEDADMM_CHECK_MSG(!msg.delta2.empty(),
                      "SCAFFOLD requires control deltas in messages");
    control_deltas.push_back(msg.delta2);
  }
  // θ += η_g * avg(Δw)
  AddScaledDeltas(server_lr_ * inv_s, updates, theta);
  // c += (|S|/m) * avg(Δc)
  const float scale = static_cast<float>(updates.size()) /
                      static_cast<float>(num_clients_) * inv_s;
  vec::AxpyMany(scale, control_deltas, server_c_, reduce_pool_);
}

std::string Scaffold::SerializeExtraState() const {
  std::vector<uint8_t> bytes;
  wire::Writer writer(&bytes);
  writer.PutFloats(server_c_);
  return std::string(bytes.begin(), bytes.end());
}

Status Scaffold::RestoreExtraState(const std::string& blob) {
  wire::ReaderView reader(blob);
  std::vector<float> server_c;
  FEDADMM_RETURN_IF_ERROR(reader.TryFloats(&server_c));
  if (static_cast<int64_t>(server_c.size()) != dim_ ||
      reader.remaining() != 0) {
    return Status::InvalidArgument(
        "Scaffold::RestoreExtraState: server control blob does not match "
        "dim " +
        std::to_string(dim_));
  }
  server_c_ = std::move(server_c);
  return Status::OK();
}

}  // namespace fedadmm

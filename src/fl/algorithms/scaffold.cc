#include "fl/algorithms/scaffold.h"

#include "tensor/vec.h"
#include "util/file_io.h"

namespace fedadmm {

void Scaffold::Setup(const AlgorithmContext& ctx,
                     std::span<const float> theta0) {
  (void)theta0;
  num_clients_ = ctx.num_clients;
  dim_ = ctx.dim;
  reduce_pool_ = ctx.reduce_pool;
  server_c_.assign(static_cast<size_t>(dim_), 0.0f);
  // Controls are zero-initialized as the paper recommends — the slot
  // default, so sparse backends keep untouched clients free.
  std::vector<StateSlotSpec> slots(1);
  slots[kSlotControl].dim = ctx.dim;
  auto store = MakeConfiguredClientStateStore(
      ctx.state_store, DefaultStateStoreSpec(), ctx.num_clients,
      std::move(slots));
  FEDADMM_CHECK_MSG(store.ok(), store.status().ToString());
  store_ = std::move(store).ValueOrDie();
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

  UpdateMessage msg;
  msg.client_id = client_id;
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

  msg.train_loss = result.mean_loss;
  msg.epochs_run = result.epochs_run;
  msg.steps_run = result.steps_run;
  msg.final_grad_norm_sq = result.final_grad_norm_sq;
  return msg;
}

void Scaffold::ServerUpdate(const std::vector<UpdateMessage>& updates,
                            int round, std::vector<float>* theta) {
  (void)round;
  FEDADMM_CHECK(!updates.empty());
  const float inv_s = 1.0f / static_cast<float>(updates.size());
  std::vector<std::span<const float>> deltas;
  std::vector<std::span<const float>> control_deltas;
  deltas.reserve(updates.size());
  control_deltas.reserve(updates.size());
  for (const UpdateMessage& msg : updates) {
    FEDADMM_CHECK_MSG(!msg.delta2.empty(),
                      "SCAFFOLD requires control deltas in messages");
    deltas.push_back(msg.delta);
    control_deltas.push_back(msg.delta2);
  }
  // θ += η_g * avg(Δw)
  vec::AxpyMany(server_lr_ * inv_s, deltas, *theta, reduce_pool_);
  // c += (|S|/m) * avg(Δc)
  const float scale = static_cast<float>(updates.size()) /
                      static_cast<float>(num_clients_) * inv_s;
  vec::AxpyMany(scale, control_deltas, server_c_, reduce_pool_);
}

int64_t Scaffold::StateBytesResident() const {
  return store_ ? store_->bytes_resident() : 0;
}

std::string Scaffold::SerializeExtraState() const {
  ByteWriter writer;
  writer.Floats(server_c_);
  return writer.Take();
}

Status Scaffold::RestoreExtraState(const std::string& blob) {
  ByteReader reader(blob);
  FEDADMM_ASSIGN_OR_RETURN(std::vector<float> server_c, reader.Floats());
  if (static_cast<int64_t>(server_c.size()) != dim_ || !reader.empty()) {
    return Status::InvalidArgument(
        "Scaffold::RestoreExtraState: server control blob does not match "
        "dim " +
        std::to_string(dim_));
  }
  server_c_ = std::move(server_c);
  return Status::OK();
}

}  // namespace fedadmm

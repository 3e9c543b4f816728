#include "fl/algorithm.h"

#include "tensor/vec.h"

namespace fedadmm {

void FederatedAlgorithm::Setup(const AlgorithmContext& ctx,
                               std::span<const float> theta0) {
  (void)theta0;
  num_clients_ = ctx.num_clients;
  dim_ = ctx.dim;
  reduce_pool_ = ctx.reduce_pool;
}

void FederatedAlgorithm::BuildStateStore(const AlgorithmContext& ctx,
                                         std::vector<StateSlotSpec> slots) {
  auto store = MakeClientStateStore(
      ctx.state_store.empty() ? DefaultStateStoreSpec() : ctx.state_store);
  FEDADMM_CHECK_MSG(store.ok(), store.status().ToString());
  store_ = std::move(store).ValueOrDie();
  store_->Configure(ctx.num_clients, std::move(slots));
}

void FederatedAlgorithm::AddScaledDeltas(
    float step, const std::vector<UpdateMessage>& updates,
    std::vector<float>* theta) const {
  FEDADMM_CHECK(!updates.empty());
  std::vector<std::span<const float>> deltas;
  deltas.reserve(updates.size());
  for (const UpdateMessage& msg : updates) {
    if (!msg.delta.empty()) deltas.push_back(msg.delta);
  }
  vec::AxpyMany(step, deltas, *theta, reduce_pool_);
}

}  // namespace fedadmm

#include "state/lazy_store.h"

#include <algorithm>
#include <cstring>

namespace fedadmm {

void LazyStateStore::Configure(int num_clients,
                               std::vector<StateSlotSpec> specs) {
  FEDADMM_CHECK_MSG(num_clients > 0, "LazyStateStore: num_clients > 0");
  num_clients_ = num_clients;
  slots_.clear();
  slots_.reserve(specs.size());
  for (StateSlotSpec& spec : specs) {
    FEDADMM_CHECK_MSG(spec.dim > 0, "LazyStateStore: slot dim > 0");
    FEDADMM_CHECK_MSG(
        spec.init.empty() ||
            spec.init.size() == static_cast<size_t>(spec.dim),
        "LazyStateStore: init size must match slot dim");
    Slot slot;
    slot.dim = spec.dim;
    slot.init = std::move(spec.init);
    if (slot.init.empty()) {
      slot.init.assign(static_cast<size_t>(spec.dim), 0.0f);
    }
    slot.blocks.assign(static_cast<size_t>(num_clients), nullptr);
    slot.slab_blocks = std::max<int64_t>(
        1, kTargetSlabBytes /
               (spec.dim * static_cast<int64_t>(sizeof(float))));
    slot.used_in_slab = slot.slab_blocks;  // force a slab on first touch
    slots_.push_back(std::move(slot));
  }
  client_touched_.assign(static_cast<size_t>(num_clients), 0);
  touched_clients_ = 0;
  resident_bytes_ = 0;
}

float* LazyStateStore::Materialize(int client_id, Slot* slot) {
  if (slot->used_in_slab == slot->slab_blocks) {
    slot->slabs.emplace_back(
        static_cast<size_t>(slot->slab_blocks * slot->dim), 0.0f);
    FEDADMM_CHECK_MSG(IsAligned(slot->slabs.back().data()),
                      "LazyStateStore: slab not 64-byte aligned");
    slot->used_in_slab = 0;
  }
  float* block = slot->slabs.back().data() +
                 static_cast<size_t>(slot->used_in_slab * slot->dim);
  ++slot->used_in_slab;
  std::memcpy(block, slot->init.data(),
              static_cast<size_t>(slot->dim) * sizeof(float));
  resident_bytes_ += slot->dim * static_cast<int64_t>(sizeof(float));
  if (!client_touched_[static_cast<size_t>(client_id)]) {
    client_touched_[static_cast<size_t>(client_id)] = 1;
    ++touched_clients_;
  }
  return block;
}

std::span<const float> LazyStateStore::View(int client_id, int slot) const {
  const Slot& s = slots_[static_cast<size_t>(slot)];
  const float* block = s.blocks[static_cast<size_t>(client_id)];
  if (block == nullptr) {
    return {s.init.data(), static_cast<size_t>(s.dim)};
  }
  return {block, static_cast<size_t>(s.dim)};
}

std::span<float> LazyStateStore::MutableView(int client_id, int slot) {
  Slot& s = slots_[static_cast<size_t>(slot)];
  float*& entry = s.blocks[static_cast<size_t>(client_id)];
  if (entry == nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    // No double-check needed: only this client's (serial) calls write its
    // entry, so it cannot have appeared since the unlocked read.
    entry = Materialize(client_id, &s);
  }
  return {entry, static_cast<size_t>(s.dim)};
}

void LazyStateStore::Release(int client_id) const {
  (void)client_id;
}

void LazyStateStore::ForEachTouched(const TouchedStateVisitor& visitor) const {
  for (int c = 0; c < num_clients_; ++c) {
    if (!client_touched_[static_cast<size_t>(c)]) continue;
    for (int s = 0; s < num_slots(); ++s) {
      const Slot& slot = slots_[static_cast<size_t>(s)];
      const float* block = slot.blocks[static_cast<size_t>(c)];
      if (block == nullptr) continue;
      visitor(c, s, {block, static_cast<size_t>(slot.dim)});
    }
  }
}

}  // namespace fedadmm

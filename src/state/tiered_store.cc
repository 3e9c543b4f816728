#include "state/tiered_store.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "state/store_metrics.h"
#include "util/file_io.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace fedadmm {
namespace {

// Keep prefetch tasks coarse: one lock acquisition per client already
// serializes the faults, so more tasks than ~2 per worker only adds queue
// churn.
constexpr size_t kMinClientsPerPrefetchTask = 64;

}  // namespace

TieredStateStore::TieredStateStore(TieredStoreOptions options)
    : options_(std::move(options)) {
  FEDADMM_CHECK_MSG(
      options_.capacity_bytes > 0 || options_.capacity_frames > 0,
      "TieredStateStore: capacity must be positive");
  FEDADMM_CHECK_MSG(!options_.path.empty(),
                    "TieredStateStore: log path must be non-empty");
}

TieredStateStore::~TieredStateStore() {
  // The slab log is spill scratch, not durable state (checkpoints own
  // durability); reclaim it with the store.
  log_.reset();
  RemoveFileIfExists(options_.path);
}

std::string TieredStateStore::name() const {
  // Round-trips through MakeClientStateStore.
  return "tiered:" + options_.capacity_token + ":" + options_.path;
}

void TieredStateStore::Configure(int num_clients,
                                 std::vector<StateSlotSpec> specs) {
  std::lock_guard<std::mutex> lock(mu_);
  FEDADMM_CHECK_MSG(num_clients > 0, "TieredStateStore: num_clients > 0");
  num_clients_ = num_clients;
  num_slots_ = static_cast<int>(specs.size());
  slots_.clear();
  slots_.reserve(specs.size());
  frame_floats_ = 0;
  for (StateSlotSpec& spec : specs) {
    FEDADMM_CHECK_MSG(spec.dim > 0, "TieredStateStore: slot dim > 0");
    FEDADMM_CHECK_MSG(
        spec.init.empty() || spec.init.size() == static_cast<size_t>(spec.dim),
        "TieredStateStore: init size must match slot dim");
    if (spec.init.empty()) {
      spec.init.assign(static_cast<size_t>(spec.dim), 0.0f);
    }
    frame_floats_ = std::max(frame_floats_, spec.dim);
    slots_.push_back(std::move(spec));
  }
  FEDADMM_CHECK_MSG(num_slots_ > 0, "TieredStateStore: at least one slot");

  const int64_t frame_bytes =
      frame_floats_ * static_cast<int64_t>(sizeof(float));
  const int64_t frames =
      options_.capacity_frames > 0
          ? options_.capacity_frames
          : std::max<int64_t>(options_.capacity_bytes / frame_bytes, 1);

  auto log = SlabLog::Open(options_.path, /*truncate=*/true);
  FEDADMM_CHECK_MSG(log.ok(), log.status().ToString());
  log_ = std::move(log).ValueOrDie();

  pool_ = std::make_unique<BufferPool>(
      frames, frame_floats_,
      [this](uint64_t key, std::span<const float> data) {
        // Dirty eviction: append the slab, repoint the directory. Runs
        // under mu_ (every pool call sits under the store lock).
        const int client = static_cast<int>(key / num_slots_);
        const int slot = static_cast<int>(key % num_slots_);
        const int64_t dim = slots_[static_cast<size_t>(slot)].dim;
        auto offset = log_->AppendFloats(
            SlabLog::RecordType::kSlab, client, slot,
            data.subspan(0, static_cast<size_t>(dim)));
        FEDADMM_CHECK_MSG(offset.ok(), offset.status().ToString());
        dir_[static_cast<size_t>(slot)][static_cast<size_t>(client)] =
            offset.ValueOrDie();
        if (obs_.write_backs != nullptr && obs::MetricsEnabled()) {
          obs_.write_backs->Add(1);
          obs_.evictions->Add(1);
        }
      });

  dir_.assign(static_cast<size_t>(num_slots_),
              std::vector<int64_t>(static_cast<size_t>(num_clients), -1));
  client_touched_.assign(static_cast<size_t>(num_clients), 0);
  prefetch_epoch_.assign(static_cast<size_t>(num_clients), -1);
  epoch_ = 0;
  touched_clients_.store(0, std::memory_order_relaxed);
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  creates_.store(0, std::memory_order_relaxed);
  prefetch_issued_.store(0, std::memory_order_relaxed);
  prefetch_late_.store(0, std::memory_order_relaxed);

  // Resolve the obs handles once.
  auto& registry = obs::MetricsRegistry::Global();
  obs_.hits = registry.counter("state/pool/hits_count");
  obs_.misses = registry.counter("state/pool/misses_count");
  obs_.creates = registry.counter("state/pool/creates_count");
  obs_.evictions = registry.counter("state/pool/evictions_count");
  obs_.write_backs = registry.counter("state/pool/write_backs_count");
  obs_.prefetch_issued = registry.counter("state/pool/prefetch_issued_count");
  obs_.prefetch_late = registry.counter("state/pool/prefetch_late_count");
  obs_.resident_bytes = registry.gauge("state/pool/resident_bytes");
}

void TieredStateStore::NoteClientTouched(int client_id) const {
  if (!client_touched_[static_cast<size_t>(client_id)]) {
    client_touched_[static_cast<size_t>(client_id)] = 1;
    touched_clients_.fetch_add(1, std::memory_order_relaxed);
  }
}

BufferPool::Frame* TieredStateStore::PinSlab(int client_id, int slot,
                                             bool create) const {
  const uint64_t key = KeyOf(client_id, slot);
  const int64_t offset =
      dir_[static_cast<size_t>(slot)][static_cast<size_t>(client_id)];
  const bool materialized = offset >= 0 || pool_->Find(key) != nullptr;
  if (!materialized && !create) return nullptr;
  bool hit = false;
  BufferPool::Frame* frame = pool_->Pin(key, &hit);
  const StateSlotSpec& spec = slots_[static_cast<size_t>(slot)];
  if (hit) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (obs_.hits != nullptr && obs::MetricsEnabled()) obs_.hits->Add(1);
  } else if (offset >= 0) {
    // Cold fault: one positional read off the slab log.
    const Status status = log_->ReadFloatsAt(
        offset, {frame->data.data(), static_cast<size_t>(spec.dim)});
    FEDADMM_CHECK_MSG(status.ok(), status.ToString());
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (obs_.misses != nullptr && obs::MetricsEnabled()) obs_.misses->Add(1);
    if (prefetch_epoch_[static_cast<size_t>(client_id)] == epoch_) {
      // This client was in the latest prefetched cohort but its slab was
      // not resident when the wave needed it.
      prefetch_late_.fetch_add(1, std::memory_order_relaxed);
      if (obs_.prefetch_late != nullptr && obs::MetricsEnabled()) {
        obs_.prefetch_late->Add(1);
      }
    }
  } else {
    // First materialization: seed from the slot's shared init value.
    std::memcpy(frame->data.data(), spec.init.data(),
                static_cast<size_t>(spec.dim) * sizeof(float));
    creates_.fetch_add(1, std::memory_order_relaxed);
    if (obs_.creates != nullptr && obs::MetricsEnabled()) {
      obs_.creates->Add(1);
    }
  }
  return frame;
}

std::span<const float> TieredStateStore::View(int client_id, int slot) const {
  std::lock_guard<std::mutex> lock(mu_);
  const StateSlotSpec& spec = slots_[static_cast<size_t>(slot)];
  BufferPool::Frame* frame = PinSlab(client_id, slot, /*create=*/false);
  if (frame == nullptr) {
    // Never touched: the shared initial value, at zero pool cost.
    return {spec.init.data(), static_cast<size_t>(spec.dim)};
  }
  return {frame->data.data(), static_cast<size_t>(spec.dim)};
}

std::span<float> TieredStateStore::MutableView(int client_id, int slot) {
  state_internal::NoteMutableTouch();
  std::lock_guard<std::mutex> lock(mu_);
  const StateSlotSpec& spec = slots_[static_cast<size_t>(slot)];
  BufferPool::Frame* frame = PinSlab(client_id, slot, /*create=*/true);
  frame->dirty = true;
  NoteClientTouched(client_id);
  return {frame->data.data(), static_cast<size_t>(spec.dim)};
}

void TieredStateStore::Release(int client_id) const {
  state_internal::NoteRelease();
  std::lock_guard<std::mutex> lock(mu_);
  for (int slot = 0; slot < num_slots_; ++slot) {
    pool_->Unpin(KeyOf(client_id, slot), /*dirty=*/false);
  }
  if (obs_.resident_bytes != nullptr && obs::MetricsEnabled()) {
    obs_.resident_bytes->Set(pool_->resident_bytes());
  }
}

void TieredStateStore::ForEachTouched(
    const TouchedStateVisitor& visitor) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<float> scratch;
  for (int client = 0; client < num_clients_; ++client) {
    if (!client_touched_[static_cast<size_t>(client)]) continue;
    for (int slot = 0; slot < num_slots_; ++slot) {
      const StateSlotSpec& spec = slots_[static_cast<size_t>(slot)];
      const int64_t offset =
          dir_[static_cast<size_t>(slot)][static_cast<size_t>(client)];
      BufferPool::Frame* frame = pool_->Find(KeyOf(client, slot));
      if (frame != nullptr) {
        visitor(client, slot,
                {frame->data.data(), static_cast<size_t>(spec.dim)});
      } else if (offset >= 0) {
        scratch.resize(static_cast<size_t>(spec.dim));
        const Status status =
            log_->ReadFloatsAt(offset, {scratch.data(), scratch.size()});
        FEDADMM_CHECK_MSG(status.ok(), status.ToString());
        visitor(client, slot, {scratch.data(), scratch.size()});
      }
    }
  }
}

int64_t TieredStateStore::bytes_resident() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pool_ ? pool_->resident_bytes() : 0;
}

int TieredStateStore::num_touched_clients() const {
  return touched_clients_.load(std::memory_order_relaxed);
}

int64_t TieredStateStore::slot_dim(int slot) const {
  FEDADMM_CHECK_MSG(slot >= 0 && slot < num_slots_,
                    "TieredStateStore: slot out of range");
  return slots_[static_cast<size_t>(slot)].dim;
}

int64_t TieredStateStore::pool_capacity_frames() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pool_ ? pool_->capacity_frames() : 0;
}

int64_t TieredStateStore::pool_frame_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pool_ ? pool_->frame_bytes() : 0;
}

int64_t TieredStateStore::pool_evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pool_ ? pool_->evictions() : 0;
}

int64_t TieredStateStore::pool_write_backs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pool_ ? pool_->write_backs() : 0;
}

void TieredStateStore::FaultClientLocked(int client_id) const {
  for (int slot = 0; slot < num_slots_; ++slot) {
    const int64_t offset =
        dir_[static_cast<size_t>(slot)][static_cast<size_t>(client_id)];
    if (offset < 0) continue;
    const uint64_t key = KeyOf(client_id, slot);
    if (pool_->Find(key) != nullptr) continue;
    bool hit = false;
    BufferPool::Frame* frame = pool_->Admit(key, &hit);
    const StateSlotSpec& spec = slots_[static_cast<size_t>(slot)];
    const Status status = log_->ReadFloatsAt(
        offset, {frame->data.data(), static_cast<size_t>(spec.dim)});
    FEDADMM_CHECK_MSG(status.ok(), status.ToString());
    prefetch_issued_.fetch_add(1, std::memory_order_relaxed);
    if (obs_.prefetch_issued != nullptr && obs::MetricsEnabled()) {
      obs_.prefetch_issued->Add(1);
    }
  }
}

void TieredStateStore::PrefetchClients(const std::vector<int>& clients,
                                       ThreadPool* pool) {
  std::vector<int> cold;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (pool_ == nullptr) return;
    ++epoch_;
    cold.reserve(clients.size());
    for (const int client : clients) {
      prefetch_epoch_[static_cast<size_t>(client)] = epoch_;
      for (int slot = 0; slot < num_slots_; ++slot) {
        if (dir_[static_cast<size_t>(slot)][static_cast<size_t>(client)] >=
                0 &&
            pool_->Find(KeyOf(client, slot)) == nullptr) {
          cold.push_back(client);
          break;
        }
      }
    }
  }
  if (cold.empty()) return;
  if (pool == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const int client : cold) FaultClientLocked(client);
    return;
  }
  const size_t per_task =
      std::max(kMinClientsPerPrefetchTask,
               cold.size() / (2 * static_cast<size_t>(
                                      std::max(pool->num_threads(), 1))));
  for (size_t begin = 0; begin < cold.size(); begin += per_task) {
    const size_t end = std::min(begin + per_task, cold.size());
    std::vector<int> chunk(cold.begin() + static_cast<ptrdiff_t>(begin),
                           cold.begin() + static_cast<ptrdiff_t>(end));
    pool->Submit([this, chunk = std::move(chunk)]() {
      std::lock_guard<std::mutex> lock(mu_);
      for (const int client : chunk) FaultClientLocked(client);
    });
  }
}

}  // namespace fedadmm

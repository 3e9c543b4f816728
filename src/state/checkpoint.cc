#include "state/checkpoint.h"

#include <memory>
#include <utility>

namespace fedadmm {

Status AppendSimulationCheckpoint(SlabLog* log, int64_t round,
                                  const std::string& engine_blob,
                                  const ClientStateStore* store) {
  FEDADMM_CHECK_MSG(log != nullptr, "AppendSimulationCheckpoint: null log");
  const std::span<const uint8_t> meta_bytes{
      reinterpret_cast<const uint8_t*>(engine_blob.data()),
      engine_blob.size()};
  FEDADMM_RETURN_IF_ERROR(
      log->Append(SlabLog::RecordType::kMeta, 0, 0, round, meta_bytes)
          .status());
  Status slab_status = Status::OK();
  if (store != nullptr) {
    store->ForEachTouched([log, &slab_status](int client, int slot,
                                              std::span<const float> value) {
      if (!slab_status.ok()) return;
      slab_status = log->AppendFloats(SlabLog::RecordType::kSlab, client,
                                      slot, value)
                        .status();
    });
  }
  FEDADMM_RETURN_IF_ERROR(slab_status);
  FEDADMM_RETURN_IF_ERROR(
      log->Append(SlabLog::RecordType::kCommit, 0, 0, round, {}).status());
  return log->Sync();
}

Result<SimulationCheckpoint> LoadLatestSimulationCheckpoint(
    const SlabLog& log) {
  SimulationCheckpoint latest;
  bool have_latest = false;
  SimulationCheckpoint pending;
  bool in_group = false;
  bool group_ok = true;
  FEDADMM_RETURN_IF_ERROR(
      log.Scan([&](const SlabLog::Record& record) {
           switch (record.type) {
             case SlabLog::RecordType::kMeta:
               pending = SimulationCheckpoint();
               pending.round = record.value;
               pending.engine_blob = record.payload;
               in_group = true;
               group_ok = true;
               break;
             case SlabLog::RecordType::kSlab:
               if (!in_group) break;
               if (record.payload.size() % sizeof(float) != 0) {
                 group_ok = false;
                 break;
               }
               pending.slabs.push_back(
                   {record.client, record.slot, record.offset,
                    static_cast<int64_t>(record.payload.size() /
                                         sizeof(float))});
               break;
             case SlabLog::RecordType::kCommit:
               if (in_group && group_ok && record.value == pending.round) {
                 latest = std::move(pending);
                 have_latest = true;
               }
               in_group = false;
               break;
           }
         })
          .status());
  if (!have_latest) {
    return Status::NotFound(
        "LoadLatestSimulationCheckpoint: no committed checkpoint group in '" +
        log.path() + "'");
  }
  return {std::move(latest)};
}

Result<SimulationCheckpoint> LoadLatestSimulationCheckpoint(
    const std::string& path) {
  FEDADMM_ASSIGN_OR_RETURN(std::unique_ptr<SlabLog> log,
                           SlabLog::Open(path, /*truncate=*/false));
  return LoadLatestSimulationCheckpoint(*log);
}

Status RestoreStoreContents(const SlabLog& log,
                            const SimulationCheckpoint& checkpoint,
                            ClientStateStore* store) {
  FEDADMM_CHECK_MSG(store != nullptr, "RestoreStoreContents: null store");
  for (const SimulationCheckpoint::Slab& slab : checkpoint.slabs) {
    if (slab.client < 0 || slab.client >= store->num_clients() ||
        slab.slot < 0 || slab.slot >= store->num_slots()) {
      return Status::InvalidArgument(
          "RestoreStoreContents: slab (client " + std::to_string(slab.client) +
          ", slot " + std::to_string(slab.slot) +
          ") outside the configured geometry");
    }
    if (slab.length != store->slot_dim(slab.slot)) {
      return Status::InvalidArgument(
          "RestoreStoreContents: slab (client " + std::to_string(slab.client) +
          ", slot " + std::to_string(slab.slot) + ") has dim " +
          std::to_string(slab.length) + ", store wants " +
          std::to_string(store->slot_dim(slab.slot)));
    }
  }
  int previous_client = -1;
  Status status = Status::OK();
  for (const SimulationCheckpoint::Slab& slab : checkpoint.slabs) {
    if (previous_client >= 0 && slab.client != previous_client) {
      store->Release(previous_client);
    }
    previous_client = slab.client;
    status = log.ReadFloatsAt(slab.offset,
                              store->MutableView(slab.client, slab.slot));
    if (!status.ok()) break;
  }
  if (previous_client >= 0) store->Release(previous_client);
  return status;
}

}  // namespace fedadmm

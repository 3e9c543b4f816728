/// \file shard.h
/// \brief The canonical client-id → shard partition function.
///
/// The serve frontend (serve/frontend.h) uses it to route each client's
/// uploads to one of its ingest workers, so a client's frames always
/// queue on the same worker.

#ifndef FEDADMM_UTIL_SHARD_H_
#define FEDADMM_UTIL_SHARD_H_

namespace fedadmm {

/// Shard owning `client_id` under `num_shards` workers. `num_shards <= 1`
/// always maps to shard 0. Client ids are dense [0, m), so modulo is both
/// a balanced and a churn-stable partition: a client keeps its shard for
/// the lifetime of the fleet.
inline int ShardOfClient(int client_id, int num_shards) {
  if (num_shards <= 1) return 0;
  return client_id % num_shards;
}

}  // namespace fedadmm

#endif  // FEDADMM_UTIL_SHARD_H_

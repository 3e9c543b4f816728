/// \file checkpoint.h
/// \brief Crash-safe simulation checkpoints over the slab log.
///
/// A checkpoint is one record *group* appended to a `SlabLog`:
///
///   kMeta   (value = round, payload = opaque engine blob)
///   kSlab*  (one per touched (client, slot), payload = raw fp32 slab)
///   kCommit (value = round)
///
/// The commit record is the transaction boundary: recovery scans the whole
/// file and keeps the *last* group whose commit landed with a matching
/// round, so a SIGKILL anywhere — mid-meta, mid-slab, even mid-commit —
/// degrades to "resume from the previous checkpoint", never to reading a
/// half-written state. The log is append-only; successive checkpoints of
/// the same run stack in one file and recovery always picks the newest
/// committed one.
///
/// The engine blob is opaque here: `fl/server_loop.cc` packs whatever its
/// mode needs (theta, RNG streams, history, algorithm extras, the event
/// queue) with `comm/wire.h` and hands the bytes down. This layer owns
/// only the store contents and the commit protocol.
///
/// Restore reads the log that the run already holds open. Loading the
/// newest group keeps only where each of its slabs sits in the log; each
/// slab then goes from the log straight into the store, one positional
/// read per slab, so beyond what the store itself holds a restore needs
/// RAM only for those positions, not for the checkpointed state.

#ifndef FEDADMM_STATE_CHECKPOINT_H_
#define FEDADMM_STATE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "state/client_state_store.h"
#include "state/slab_log.h"
#include "util/status.h"

namespace fedadmm {

/// \brief One recovered checkpoint group.
struct SimulationCheckpoint {
  /// The committed round (rounds completed when the group was written).
  int64_t round = 0;
  /// The engine's opaque state blob (the kMeta payload).
  std::string engine_blob;

  /// Where one persisted store slab sits in the log.
  struct Slab {
    int client = 0;
    int slot = 0;
    /// File offset of the slab record (for `SlabLog::ReadFloatsAt`).
    int64_t offset = 0;
    /// Payload length in floats.
    int64_t length = 0;
  };
  /// Touched store slabs in increasing (client, slot) order.
  std::vector<Slab> slabs;
};

/// \brief Appends one committed checkpoint group for `round` and syncs.
/// `store` may be null (stateless algorithms checkpoint zero slabs).
Status AppendSimulationCheckpoint(SlabLog* log, int64_t round,
                                  const std::string& engine_blob,
                                  const ClientStateStore* store);

/// \brief Scans `log` and returns the newest complete group. NotFound
/// when the log holds no committed group (torn or corrupt tails are
/// silently skipped — that is the recovery semantic).
Result<SimulationCheckpoint> LoadLatestSimulationCheckpoint(
    const SlabLog& log);

/// \brief Opens `path` and loads its newest complete group, as above;
/// NotFound also when the file is missing or empty. The slab offsets refer
/// to `path`.
Result<SimulationCheckpoint> LoadLatestSimulationCheckpoint(
    const std::string& path);

/// \brief Reads `checkpoint.slabs` from `log`, the log it was loaded from,
/// into a Configure-d `store`. Every slab's geometry is checked before the
/// first is read, so a mismatch (InvalidArgument on client/slot/dim out of
/// range) leaves the store untouched.
Status RestoreStoreContents(const SlabLog& log,
                            const SimulationCheckpoint& checkpoint,
                            ClientStateStore* store);

}  // namespace fedadmm

#endif  // FEDADMM_STATE_CHECKPOINT_H_

/// \file ingest.h
/// \brief The seam between the federation engine and a serving frontend.
///
/// With an `IngestSource` attached (Simulation::set_ingest), the engine's
/// sync waves stop *simulating* the client phase in-process and instead
/// collect it from whatever the source feeds them — in src/serve, a
/// wire-protocol frontend whose clients connect, pull the broadcast, and
/// push encoded updates over a Transport. The engine keeps everything else:
/// selection, downlink encode + billing, the straggler judgment, download
/// billing, partial-admission scaling, aggregation, and metrics run
/// unchanged, so a frontend that reproduces the client computation exactly
/// yields a bitwise-identical θ trajectory (pinned by
/// tests/serve/frontend_equivalence_test.cc).
///
/// Contract:
///   * Serve mode is sync-only, incompatible with checkpointing, and
///     requires a deterministic, stateless uplink codec (or none): the
///     engine cannot re-encode what it never computed, and a remote
///     encoder cannot share the server's Rng forks or residual history.
///   * `CollectWave(round)` returns one `UpdateMessage` per cohort member,
///     in selection order, *including* clients the straggler policy will
///     reject — the engine's per-client `StragglerPolicy::Judge` of each
///     completion event remains the single judge, and the frontend's
///     connection-level admission predicate (the same per-client policy
///     function) merely mirrors its verdicts into ACK frames.
///   * Messages carry decoded payloads (the frontend decodes each upload
///     exactly once, on the owning shard worker) with `wire_bytes` stamped
///     to the actual frame payload size (-1 when no uplink codec ran), so
///     byte accounting matches `CommPipeline::PredictUplinkBytes`.

#ifndef FEDADMM_FL_INGEST_H_
#define FEDADMM_FL_INGEST_H_

#include <cstdint>
#include <vector>

#include "fl/round_context.h"
#include "fl/types.h"
#include "util/status.h"

namespace fedadmm {

/// \brief Where the sync engine's client updates come from in serve mode.
class IngestSource {
 public:
  virtual ~IngestSource() = default;

  /// Called once per run, after θ⁰ is drawn and before round 0: the run
  /// shape the source must serve. Reject mismatches with Status (e.g. a
  /// frontend configured for a different dim or client population).
  virtual Status StartServing(int num_clients, int64_t dim) = 0;

  /// Opens `round` for the given cohort: publish the downlink (the
  /// encoded broadcast in `downlink.encoded` when a downlink codec ran,
  /// raw `theta` otherwise) and prepare one collection slot per cohort
  /// member. Returns immediately; clients pull and push concurrently with
  /// the loop's aggregate/finalize work.
  virtual Status BeginRound(int round, const std::vector<int>& cohort,
                            const DownlinkPlan& downlink,
                            const std::vector<float>& theta) = 0;

  /// Blocks until every cohort member's upload for `round` resolved;
  /// returns the messages in selection order (see the class contract).
  virtual Result<std::vector<UpdateMessage>> CollectWave(int round) = 0;
};

}  // namespace fedadmm

#endif  // FEDADMM_FL_INGEST_H_

/// \file types.h
/// \brief Shared value types of the federated simulation: update messages,
/// per-round records, and run histories.

#ifndef FEDADMM_FL_TYPES_H_
#define FEDADMM_FL_TYPES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace fedadmm {

/// \brief What a selected client uploads to the server in one round.
///
/// For FedAvg/FedProx/FedADMM the payload is a single vector in R^d
/// (`delta`); SCAFFOLD additionally uploads a control-variate delta
/// (`delta2`), doubling its upload size — the accounting reflects that.
struct UpdateMessage {
  int client_id = -1;
  /// Primary payload (model delta, gradient, or augmented-model delta Δ_i).
  std::vector<float> delta;
  /// Secondary payload (SCAFFOLD control delta); empty otherwise.
  std::vector<float> delta2;

  /// Diagnostics (not part of the transmitted payload).
  double train_loss = 0.0;
  int epochs_run = 0;
  int steps_run = 0;

  /// Bytes this update occupied on the wire after uplink encoding
  /// (src/comm); -1 when no codec ran and the raw fp32 size applies.
  int64_t wire_bytes = -1;

  /// Uncompressed float32 size of the payload vectors.
  int64_t RawBytes() const {
    return static_cast<int64_t>((delta.size() + delta2.size()) *
                                sizeof(float));
  }

  /// Bytes uploaded by this client: the encoded wire size when an uplink
  /// codec ran, the raw float32 size otherwise.
  int64_t UploadBytes() const {
    return wire_bytes >= 0 ? wire_bytes : RawBytes();
  }
};

/// \brief One row of a training run's history.
struct RoundRecord {
  int round = 0;
  int num_selected = 0;
  /// Mean training loss reported by the selected clients.
  double train_loss = 0.0;
  /// Global test metrics (NaN when evaluation was skipped this round).
  double test_accuracy = 0.0;
  double test_loss = 0.0;
  /// Communication this round: bytes that actually crossed the (simulated)
  /// network, i.e. codec wire sizes when codecs are attached.
  int64_t upload_bytes = 0;
  int64_t download_bytes = 0;
  /// The same traffic at uncompressed float32 size. Equal to the wire
  /// columns when no codec is attached; the ratio raw/wire is the round's
  /// compression factor.
  int64_t upload_bytes_raw = 0;
  int64_t download_bytes_raw = 0;
  /// Simulated deployment time elapsed at the end of this round, from the
  /// virtual clock (src/sys). 0 when no system model is attached.
  double sim_seconds = 0.0;
  /// Clients whose update missed the straggler deadline and was discarded.
  int num_dropped = 0;
  /// Clients admitted with only a fraction of their local work.
  int num_admitted_partial = 0;
  /// Staleness of the aggregated updates (server versions elapsed between
  /// an update's dispatch and its aggregation). Always 0 in sync mode —
  /// every update is fresh; NaN mean when the record aggregated nothing.
  double staleness_mean = 0.0;
  int staleness_max = 0;
  /// Bytes of server-visible per-client algorithm state resident at the
  /// end of this round (src/state ClientStateStore accounting; 0 for
  /// stateless methods). `lazy` tracks the touched population; `tiered`
  /// reports its resident pool frames.
  int64_t state_bytes_resident = 0;
};

/// \brief The full trajectory of one federated run.
class History {
 public:
  /// Appends a record.
  void Add(const RoundRecord& record) { records_.push_back(record); }

  /// All records.
  const std::vector<RoundRecord>& records() const { return records_; }
  /// Number of recorded rounds.
  int size() const { return static_cast<int>(records_.size()); }
  bool empty() const { return records_.empty(); }

  /// 1-based number of rounds needed to first reach `target` test accuracy;
  /// -1 if never reached (the paper prints this as "100+"). Rounds whose
  /// evaluation was skipped (NaN accuracy) are ignored.
  int RoundsToAccuracy(double target) const;

  /// Simulated seconds (virtual clock) at the end of the first round whose
  /// evaluated accuracy reaches `target`; -1 if never reached. Only
  /// meaningful when the run had a system model attached.
  double SimSecondsToAccuracy(double target) const;

  /// Simulated seconds at the end of the run (0 if empty / no system model).
  double TotalSimSeconds() const;

  /// Total clients dropped by the straggler policy across the run.
  int TotalDropped() const;

  /// Test accuracy of the last evaluated round (0 if none).
  double FinalAccuracy() const;

  /// Best test accuracy across the run (0 if none).
  double BestAccuracy() const;

  /// Total wire bytes uploaded across the run.
  int64_t TotalUploadBytes() const;
  /// Total wire bytes downloaded across the run.
  int64_t TotalDownloadBytes() const;
  /// Total uncompressed-equivalent bytes uploaded across the run.
  int64_t TotalUploadBytesRaw() const;
  /// Total uncompressed-equivalent bytes downloaded across the run.
  int64_t TotalDownloadBytesRaw() const;

  /// Writes the history as CSV with a header row.
  Status WriteCsv(const std::string& path) const;

 private:
  std::vector<RoundRecord> records_;
};

/// \brief Result of evaluating a model on held-out data.
struct EvalResult {
  /// Top-1 accuracy for classification; a monotone proxy in [0, 1] for
  /// synthetic convex problems (see QuadraticProblem).
  double accuracy = 0.0;
  /// Mean loss / objective value.
  double loss = 0.0;
};

}  // namespace fedadmm

#endif  // FEDADMM_FL_TYPES_H_

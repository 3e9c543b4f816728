/// \file client_executor.h
/// \brief The engine's client stage: thread-pool fan-out of ClientUpdate.
///
/// Runs the local work of a dispatch wave's clients across a fixed worker
/// pool. Per-client randomness is forked from the master stream keyed by
/// (wave, client) — tag 0xC11E47, exactly the old `Simulation::Run()`
/// scheme with `wave == round` — so trajectories are bitwise independent of
/// the thread count and of scheduling order. Clients within a wave all
/// train against the same θ snapshot, which is what makes the fan-out safe:
/// the algorithm's thread-safety contract only requires distinct client ids
/// per concurrent batch.

#ifndef FEDADMM_FL_CLIENT_EXECUTOR_H_
#define FEDADMM_FL_CLIENT_EXECUTOR_H_

#include <vector>

#include "fl/algorithm.h"
#include "fl/problem.h"
#include "fl/types.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fedadmm {

/// \brief Executes client updates for dispatch waves on a worker pool.
class ClientExecutor {
 public:
  /// Pointers are borrowed. `num_threads <= 0` picks the hardware default;
  /// the pool is clamped to the problem's worker-slot count.
  ClientExecutor(FederatedProblem* problem, FederatedAlgorithm* algorithm,
                 const Rng& master, int num_threads);

  /// Runs `algorithm->ClientUpdate` for every client in `clients` against
  /// `theta`, writing results into `*out` (resized, index-parallel to
  /// `clients`). Blocks until the wave completes. A one-client wave runs on
  /// the calling thread as worker 0, after the pool's queued tasks finish.
  void RunWave(int wave, const std::vector<int>& clients,
               const std::vector<float>& theta,
               std::vector<UpdateMessage>* out);

  int num_threads() const { return pool_.num_threads(); }

  /// The worker pool, idle between waves — the engine lends it to the
  /// algorithm for blocked server-side reductions (AlgorithmContext::
  /// reduce_pool).
  ThreadPool* pool() { return &pool_; }

 private:
  FederatedProblem* problem_;
  FederatedAlgorithm* algorithm_;
  Rng master_;
  ThreadPool pool_;
};

}  // namespace fedadmm

#endif  // FEDADMM_FL_CLIENT_EXECUTOR_H_

#include "fl/client_executor.h"

#include <algorithm>
#include <numeric>

#include "obs/trace.h"
#include "util/shard.h"

namespace fedadmm {
namespace {

constexpr uint64_t kClientTag = 0xC11E47;

// Pool sizing: no point in more threads than the problem has worker slots.
int ClampThreads(int requested, int num_workers) {
  int threads = requested;
  if (threads <= 0) threads = ThreadPool::DefaultNumThreads();
  threads = std::min(threads, num_workers);
  return std::max(threads, 1);
}

}  // namespace

ClientExecutor::ClientExecutor(FederatedProblem* problem,
                               FederatedAlgorithm* algorithm,
                               const Rng& master, int num_threads,
                               int num_shards)
    : problem_(problem),
      algorithm_(algorithm),
      master_(master),
      pool_(ClampThreads(num_threads, problem->num_workers())),
      num_shards_(std::max(1, num_shards)) {
  shard_event_hist_.reserve(static_cast<size_t>(num_shards_));
  for (int s = 0; s < num_shards_; ++s) {
    shard_event_hist_.push_back(obs::MetricsRegistry::Global().histogram(
        obs::ShardLabel("client/event_seconds", s)));
  }
}

void ClientExecutor::RunWave(int wave, const std::vector<int>& clients,
                             const std::vector<float>& theta,
                             std::vector<UpdateMessage>* out) {
  out->assign(clients.size(), UpdateMessage());
  auto run_client = [&](int idx, int worker) {
    const int client = clients[static_cast<size_t>(idx)];
    const int shard = ShardOfClient(client, num_shards_);
    // Per-event wall latency, keyed by the client's aggregation shard.
    // A no-op (never reads the clock) unless metrics or a trace
    // capture are on — the zero-perturbation contract of src/obs.
    obs::TraceScope scope("client_event", "client",
                          shard_event_hist_[static_cast<size_t>(shard)]);
    scope.set_arg("client", client);
    auto local = problem_->MakeLocalProblem(client, worker);
    // Per-(wave, client) stream: results do not depend on thread
    // scheduling.
    Rng client_rng = master_.Fork(kClientTag, static_cast<uint64_t>(wave),
                                  static_cast<uint64_t>(client));
    (*out)[static_cast<size_t>(idx)] =
        algorithm_->ClientUpdate(client, wave, theta, local.get(), client_rng);
  };
  // A one-client wave (every event-mode refill) runs on the calling thread
  // as worker 0: the caller blocks for the whole wave anyway and, outside
  // a wave, uses worker 0 only for Evaluate, so a handoff to the pool
  // would buy nothing. Queued tasks (store prefetch) finish first, as they
  // do ahead of the wave on a one-thread pool.
  if (clients.size() == 1) {
    pool_.Wait();
    run_client(0, 0);
    return;
  }
  // Shard-major execution order: under a sharded server, clients of the
  // same shard run back-to-back, so concurrent MutableView/Release calls
  // spread across the per-shard stores' locks instead of hammering one
  // store's stripes. Pure scheduling — each result lands at its original
  // index and every RNG stream is keyed by (wave, client), so trajectories
  // are bitwise identical for any order (and W = 1 keeps the natural
  // order: the sort below is a stable identity).
  std::vector<int> order(clients.size());
  std::iota(order.begin(), order.end(), 0);
  if (num_shards_ > 1) {
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return ShardOfClient(clients[static_cast<size_t>(a)], num_shards_) <
             ShardOfClient(clients[static_cast<size_t>(b)], num_shards_);
    });
  }
  pool_.ParallelFor(static_cast<int>(clients.size()), [&](int pos, int worker) {
    run_client(order[static_cast<size_t>(pos)], worker);
  });
}

}  // namespace fedadmm

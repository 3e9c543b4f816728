#include "fl/client_executor.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"

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

obs::Histogram* EventHist() {
  static obs::Histogram* hist =
      obs::MetricsRegistry::Global().histogram("client/event_seconds");
  return hist;
}

}  // namespace

ClientExecutor::ClientExecutor(FederatedProblem* problem,
                               FederatedAlgorithm* algorithm,
                               const Rng& master, int num_threads)
    : problem_(problem),
      algorithm_(algorithm),
      master_(master),
      pool_(ClampThreads(num_threads, problem->num_workers())) {}

void ClientExecutor::RunWave(int wave, const std::vector<int>& clients,
                             const std::vector<float>& theta,
                             std::vector<UpdateMessage>* out) {
  out->assign(clients.size(), UpdateMessage());
  auto run_client = [&](int idx, int worker) {
    const int client = clients[static_cast<size_t>(idx)];
    // Per-event wall latency. A no-op (never reads the clock) unless
    // metrics or a trace capture are on — the zero-perturbation contract
    // of src/obs.
    obs::TraceScope scope("client_event", "client", EventHist());
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
  pool_.ParallelFor(static_cast<int>(clients.size()), run_client);
}

}  // namespace fedadmm

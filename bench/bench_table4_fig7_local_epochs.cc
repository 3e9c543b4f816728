/// \file bench_table4_fig7_local_epochs.cc
/// \brief Reproduces Table IV and Fig. 7: the effect of the local epoch
/// budget E on FedADMM. More local work per round = fewer rounds to the
/// target (the strongly convex subproblems are solved more exactly, i.e.
/// smaller attained ε_i in Eq. (6)).
///
/// Paper reference (rounds to target): MNIST IID 27/10/6 and non-IID
/// 56/33/32 for E = 1/5/10; CIFAR-10 IID 24/12/10, non-IID 30/14/11.

#include <cstdio>

#include "bench/bench_common.h"

namespace {

using namespace fedadmm;
using namespace fedadmm::bench;

struct Cell {
  int rounds;
  double final_acc;
};

Cell RunWithEpochs(Scenario* scenario, int epochs, int budget, double target,
                   uint64_t seed) {
  FedAdmmOptions options = BenchAdmmOptions(kBenchRho, epochs);
  // Fixed epochs isolate the E effect (Table IV varies E directly).
  options.local.variable_epochs = false;
  FedAdmm algo(options);

  UniformFractionSelector selector(scenario->problem->num_clients(), 0.1);
  SimulationConfig config;
  config.max_rounds = budget;
  config.seed = seed;
  config.num_threads = 8;
  Simulation sim(scenario->problem.get(), &algo, &selector, config);
  const History h = std::move(sim.Run()).ValueOrDie();
  Cell cell;
  const int r = h.RoundsToAccuracy(target);
  cell.rounds = r < 0 ? budget + 1 : r;
  cell.final_acc = h.FinalAccuracy();
  return cell;
}

}  // namespace

int main() {
  PrintHeader("Table IV / Fig. 7 — effect of local epoch count E on FedADMM");

  const int budget = RoundBudget(40, 120);
  const std::vector<int> epoch_grid = {1, 5, 10};

  std::printf("%-10s %-8s %-8s %-10s %-10s\n", "task", "split", "E", "rounds",
              "final acc");
  for (TaskKind task : {TaskKind::kMnistLike, TaskKind::kCifarLike}) {
    for (bool iid : {true, false}) {
      Scenario scenario = MakeScenario(task, 100, iid, 6);
      const double target = TaskTarget(task);
      for (int epochs : epoch_grid) {
        const Cell cell =
            RunWithEpochs(&scenario, epochs, budget, target, 61);
        std::printf("%-10s %-8s %-8d %-10s %-10.3f\n", TaskName(task),
                    iid ? "IID" : "nIID", epochs,
                    FormatRounds(cell.rounds > budget ? -1 : cell.rounds,
                                 budget)
                        .c_str(),
                    cell.final_acc);
      }
    }
  }

  std::printf(
      "\npaper shape (Table IV): rounds decrease monotonically as E grows\n"
      "(27->10->6 on MNIST IID), with convergence always maintained at a\n"
      "fixed learning rate (Fig. 7).\n");
  PrintFootnote();
  return 0;
}

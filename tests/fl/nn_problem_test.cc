#include "fl/nn_problem.h"

#include <gtest/gtest.h>

#include <cmath>

#include "data/synthetic.h"
#include "tensor/vec.h"

namespace fedadmm {
namespace {

class NnProblemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    split_ = GenerateSynthetic(SyntheticBenchSpec(1, 8, 6, 3, 0.5f));
    Rng rng(1);
    partition_ = PartitionIid(split_.train.size(), 6, &rng).ValueOrDie();
  }
  ModelConfig Config() {
    ModelConfig c = BenchCnnConfig(1, 8);
    c.conv1_channels = 3;
    c.conv2_channels = 4;
    c.hidden = 12;
    return c;
  }
  DataSplit split_;
  Partition partition_;
};

TEST_F(NnProblemTest, ReportsGeometry) {
  NnFederatedProblem problem(Config(), &split_.train, &split_.test,
                             partition_, /*num_workers=*/2);
  EXPECT_EQ(problem.num_clients(), 6);
  EXPECT_EQ(problem.num_workers(), 2);
  EXPECT_EQ(problem.dim(), BuildModel(Config())->NumParameters());
}

TEST_F(NnProblemTest, InitialParametersAreDeterministicInSeed) {
  NnFederatedProblem p1(Config(), &split_.train, &split_.test, partition_, 1);
  NnFederatedProblem p2(Config(), &split_.train, &split_.test, partition_, 1);
  Rng a(7), b(7), c(8);
  EXPECT_EQ(p1.InitialParameters(&a), p2.InitialParameters(&b));
  EXPECT_NE(p1.InitialParameters(&c), p2.InitialParameters(&b));
}

TEST_F(NnProblemTest, LocalProblemComputesBatchGradients) {
  NnFederatedProblem problem(Config(), &split_.train, &split_.test,
                             partition_, 1);
  Rng rng(2);
  const std::vector<float> theta = problem.InitialParameters(&rng);
  auto local = problem.MakeLocalProblem(0, 0);
  EXPECT_EQ(local->dim(), problem.dim());
  EXPECT_EQ(local->num_samples(),
            static_cast<int>(partition_[0].size()));

  std::vector<float> grad(theta.size());
  const auto batches = local->EpochBatches(4, &rng);
  ASSERT_FALSE(batches.empty());
  const double loss = local->BatchLossGradient(theta, batches[0], grad);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_GT(vec::L2Norm(grad), 0.0);
}

TEST_F(NnProblemTest, WorkersAreIndependent) {
  // Two workers computing the same client's full gradient at the same
  // parameters must agree exactly.
  NnFederatedProblem problem(Config(), &split_.train, &split_.test,
                             partition_, 2);
  Rng rng(3);
  const std::vector<float> theta = problem.InitialParameters(&rng);
  auto l0 = problem.MakeLocalProblem(2, 0);
  auto l1 = problem.MakeLocalProblem(2, 1);
  std::vector<float> g0(theta.size()), g1(theta.size());
  const double loss0 = l0->FullLossGradient(theta, g0);
  const double loss1 = l1->FullLossGradient(theta, g1);
  EXPECT_DOUBLE_EQ(loss0, loss1);
  EXPECT_EQ(g0, g1);
}

TEST_F(NnProblemTest, EvaluateIsConsistentAcrossBatchSizes) {
  NnFederatedProblem problem(Config(), &split_.train, &split_.test,
                             partition_, 1);
  Rng rng(4);
  const std::vector<float> theta = problem.InitialParameters(&rng);
  const EvalResult big = problem.Evaluate(theta, 0);
  problem.set_eval_batch_size(7);  // odd size exercises the tail chunk
  const EvalResult small = problem.Evaluate(theta, 0);
  EXPECT_NEAR(big.accuracy, small.accuracy, 1e-9);
  EXPECT_NEAR(big.loss, small.loss, 1e-6);
}

TEST_F(NnProblemTest, EvaluateAccuracyInUnitInterval) {
  NnFederatedProblem problem(Config(), &split_.train, &split_.test,
                             partition_, 1);
  Rng rng(5);
  const EvalResult eval =
      problem.Evaluate(problem.InitialParameters(&rng), 0);
  EXPECT_GE(eval.accuracy, 0.0);
  EXPECT_LE(eval.accuracy, 1.0);
  EXPECT_GT(eval.loss, 0.0);
}

TEST_F(NnProblemTest, ClientViewsMatchPartition) {
  NnFederatedProblem problem(Config(), &split_.train, &split_.test,
                             partition_, 1);
  for (int i = 0; i < problem.num_clients(); ++i) {
    EXPECT_EQ(problem.client_view(i).indices(),
              partition_[static_cast<size_t>(i)]);
  }
}

}  // namespace
}  // namespace fedadmm

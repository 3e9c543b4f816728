#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

namespace fedadmm {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ClampsThreadCountToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  ThreadPool pool2(-3);
  EXPECT_EQ(pool2.num_threads(), 1);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndicesExactlyOnce) {
  ThreadPool pool(4);
  const int n = 1000;
  std::vector<std::atomic<int>> hits(n);
  pool.ParallelFor(n, [&hits](int i, int worker) {
    (void)worker;
    hits[static_cast<size_t>(i)].fetch_add(1);
  });
  for (int i = 0; i < n; ++i) EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1);
}

TEST(ThreadPoolTest, ParallelForWorkerSlotsAreInRange) {
  ThreadPool pool(3);
  std::atomic<bool> ok{true};
  pool.ParallelFor(200, [&ok](int i, int worker) {
    (void)i;
    if (worker < 0 || worker >= 3) ok.store(false);
  });
  EXPECT_TRUE(ok.load());
}

TEST(ThreadPoolTest, ParallelForZeroAndNegativeAreNoOps) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.ParallelFor(0, [&](int, int) { counter.fetch_add(1); });
  pool.ParallelFor(-5, [&](int, int) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 0);
}

TEST(ThreadPoolTest, ParallelForWithSingleThreadIsSequentialOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  pool.ParallelFor(10, [&order](int i, int) { order.push_back(i); });
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, SequentialParallelForsReusePool) {
  ThreadPool pool(4);
  std::atomic<long> total{0};
  for (int pass = 0; pass < 10; ++pass) {
    pool.ParallelFor(100, [&total](int i, int) { total.fetch_add(i); });
  }
  EXPECT_EQ(total.load(), 10L * (99 * 100 / 2));
}

TEST(ThreadPoolTest, UnevenWorkloadsComplete) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  pool.ParallelFor(32, [&done](int i, int) {
    // Simulated variable work (the heterogeneity pattern in the simulator).
    volatile double x = 0;
    for (int k = 0; k < (i % 7) * 10000; ++k) x = x + k;
    done.fetch_add(1);
  });
  EXPECT_EQ(done.load(), 32);
}

}  // namespace
}  // namespace fedadmm

/// Thread-stress tests for the parallel manager. These are the workload
/// scripts/check_tsan.sh runs under ThreadSanitizer: they deliberately drive
/// every concurrency path — parallel engines racing on the stop token, a
/// sibling's verdict cancelling an engine mid-flight, several managers at
/// once, the task pool's shared queue — with enough repetitions for a data
/// race to get a chance to interleave.
#include "check/manager.hpp"
#include "check/task_pool.hpp"
#include "circuits/benchmarks.hpp"
#include "ir/circuit.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace veriqc {
namespace {

check::Configuration stressConfig() {
  check::Configuration config;
  config.parallel = true;
  config.runAlternating = true;
  config.runSimulation = true;
  config.simulationRuns = 12;
  return config;
}

TEST(ThreadingStressTest, ParallelManagerOnEquivalentCircuits) {
  const auto a = circuits::qft(5);
  const auto b = circuits::qft(5);
  for (int repeat = 0; repeat < 3; ++repeat) {
    const auto result = check::checkEquivalence(a, b, stressConfig());
    EXPECT_TRUE(provedEquivalent(result.criterion)) << result.toString();
  }
}

TEST(ThreadingStressTest, ParallelManagerRacesToNonEquivalence) {
  // The simulation engine finds the counterexample and cancels the
  // alternating engine mid-flight — the interesting cross-thread path.
  auto a = circuits::qft(5);
  auto b = circuits::qft(5);
  b.z(2);
  for (int repeat = 0; repeat < 3; ++repeat) {
    const auto result = check::checkEquivalence(a, b, stressConfig());
    EXPECT_EQ(result.criterion, check::EquivalenceCriterion::NotEquivalent);
  }
}

TEST(ThreadingStressTest, ConcurrentManagersAreIndependent) {
  // Several managers running on their own threads at once: every DD package
  // is engine-local, so nothing may be shared between the managers.
  const auto a = circuits::qft(4);
  auto b = circuits::qft(4);
  std::vector<std::thread> threads;
  std::vector<check::EquivalenceCriterion> verdicts(4);
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    threads.emplace_back([&, i]() {
      verdicts[i] = check::checkEquivalence(a, b, stressConfig()).criterion;
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (const auto v : verdicts) {
    EXPECT_TRUE(provedEquivalent(v));
  }
}

TEST(ThreadingStressTest, TaskPoolGroupChurnUnderContention) {
  // Many short-lived groups on one pool from several submitting threads:
  // the TSan workload for the pool's shared queue, its group bookkeeping and
  // the wakeups of sleeping workers and waiters.
  check::TaskPool pool(4);
  std::vector<std::thread> submitters;
  std::atomic<int> total{0};
  for (int t = 0; t < 3; ++t) {
    submitters.emplace_back([&pool, &total] {
      for (int round = 0; round < 20; ++round) {
        check::TaskGroup group(pool);
        for (int i = 0; i < 16; ++i) {
          group.submit([&total] {
            total.fetch_add(1, std::memory_order_relaxed);
          });
        }
        group.wait();
      }
    });
  }
  for (auto& thread : submitters) {
    thread.join();
  }
  EXPECT_EQ(total.load(), 3 * 20 * 16);
}

} // namespace
} // namespace veriqc

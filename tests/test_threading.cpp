/// Thread-stress tests for the parallel manager and the multi-threaded
/// simulation checker. These are the workload scripts/check_tsan.sh runs
/// under ThreadSanitizer: they deliberately drive every concurrency path —
/// parallel engines racing on the stop token, worker pools claiming stimuli
/// from the shared counter, cancellation mid-simulation — with enough
/// repetitions for a data race to get a chance to interleave.
#include "check/manager.hpp"
#include "check/task_pool.hpp"
#include "circuits/benchmarks.hpp"
#include "dd/shared_cache.hpp"
#include "ir/circuit.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

namespace veriqc {
namespace {

check::Configuration stressConfig() {
  check::Configuration config;
  config.parallel = true;
  config.runAlternating = true;
  config.runSimulation = true;
  config.simulationThreads = 4;
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
  // The simulation workers find the counterexample and cancel the
  // alternating engine mid-flight — the interesting cross-thread path.
  auto a = circuits::qft(5);
  auto b = circuits::qft(5);
  b.z(2);
  for (int repeat = 0; repeat < 3; ++repeat) {
    const auto result = check::checkEquivalence(a, b, stressConfig());
    EXPECT_EQ(result.criterion, check::EquivalenceCriterion::NotEquivalent);
  }
}

TEST(ThreadingStressTest, SimulationWorkerPoolIsDeterministic) {
  // The first counterexample index must be a function of (seed, stimuli)
  // alone: every thread count has to report the same stimulus.
  auto a = circuits::ghz(6);
  auto b = circuits::ghz(6);
  b.x(3);
  std::vector<std::int64_t> witnesses;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, std::size_t{8}}) {
    check::Configuration config;
    config.runAlternating = false;
    config.runZX = false;
    config.simulationThreads = threads;
    config.simulationRuns = 16;
    const auto result = check::checkEquivalence(a, b, config);
    ASSERT_EQ(result.criterion, check::EquivalenceCriterion::NotEquivalent);
    witnesses.push_back(result.counterexampleStimulus);
  }
  for (const auto w : witnesses) {
    EXPECT_EQ(w, witnesses.front());
  }
}

TEST(ThreadingStressTest, OversubscribedWorkerPool) {
  // More workers than stimuli: surplus workers must terminate cleanly after
  // losing the claim race, and the verdict must be unaffected.
  const auto a = circuits::grover(4, 3);
  const auto b = circuits::grover(4, 3);
  check::Configuration config;
  config.runAlternating = false;
  config.simulationThreads = 8;
  config.simulationRuns = 4;
  const auto result = check::checkEquivalence(a, b, config);
  EXPECT_EQ(result.criterion,
            check::EquivalenceCriterion::ProbablyEquivalent);
  EXPECT_EQ(result.performedSimulations, 4U);
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
      auto config = stressConfig();
      config.simulationThreads = 2;
      verdicts[i] = check::checkEquivalence(a, b, config).criterion;
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

TEST(ThreadingStressTest, SharedGateCacheEpochChurn) {
  // Epoch-leasing contract of dd::SharedGateCache under churn: publishers
  // keep replacing the shape's snapshot (new epoch each time), a retirer
  // keeps dropping the whole map, and readers hold leases across all of it
  // and *use* them (warm-adopting packages that rebuild gates through the
  // lease). A snapshot destroyed while still leased, or a lease observing a
  // mutating package, is a use-after-free / data race for TSan; the epoch
  // counter must also come out exactly equal to the number of successful
  // publishes.
  constexpr std::size_t kQubits = 2;
  dd::SharedGateCache cache(4096);
  const double tolerance = dd::RealTable::kDefaultTolerance;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> successfulPublishes{0};
  std::atomic<std::uint64_t> retires{0};

  const Operation gates[] = {
      Operation(OpType::H, {}, {0}),
      Operation(OpType::X, {0}, {1}),
      Operation(OpType::T, {}, {1}),
      Operation(OpType::S, {}, {0}),
  };

  std::vector<std::thread> threads;
  // Publishers: donate ever-larger gate sets so most publishes install a new
  // epoch (copy-on-publish must never touch the snapshot readers lease).
  for (int p = 0; p < 2; ++p) {
    threads.emplace_back([&, p] {
      std::uint64_t phase = static_cast<std::uint64_t>(p);
      while (!stop.load(std::memory_order_acquire)) {
        dd::Package donor(kQubits, tolerance);
        for (std::uint64_t g = 0; g <= phase % 4; ++g) {
          (void)donor.makeOperationDD(gates[g]);
        }
        (void)donor.makeOperationDD(
            Operation(OpType::RZ, {}, {0},
                      {0.001 * static_cast<double>(++phase)}));
        if (cache.publish(donor) != 0) {
          successfulPublishes.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // Readers: lease the current snapshot and drive gate construction through
  // it — the warm-import path reads the leased package's tables, so a
  // retired-but-leased snapshot being destroyed would be caught here.
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const auto lease = cache.acquire(kQubits, tolerance);
        if (lease == nullptr) {
          std::this_thread::yield();
          continue;
        }
        dd::Package adopter(kQubits, tolerance);
        ASSERT_TRUE(adopter.adoptWarmGateSource(lease));
        for (const auto& gate : gates) {
          (void)adopter.makeOperationDD(gate);
        }
      }
    });
  }
  // Retirer: rip the whole map out from under everyone, repeatedly. Leases
  // held by readers must stay valid through their shared_ptrs.
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      cache.retireAll();
      retires.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true, std::memory_order_release);
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_GT(successfulPublishes.load(), 0U);
  EXPECT_GT(retires.load(), 0U);

  // Exact counter check, single-threaded epilogue: after a retire, epochs
  // restart from 1 and advance by exactly one per successful publish.
  cache.retireAll();
  EXPECT_EQ(cache.epoch(kQubits, tolerance), 0U);
  dd::Package donor(kQubits, tolerance);
  (void)donor.makeOperationDD(gates[0]);
  ASSERT_EQ(cache.publish(donor), 1U);
  EXPECT_EQ(cache.epoch(kQubits, tolerance), 1U);
  dd::Package donor2(kQubits, tolerance);
  (void)donor2.makeOperationDD(gates[0]);
  (void)donor2.makeOperationDD(gates[1]);
  ASSERT_EQ(cache.publish(donor2), 2U);
  EXPECT_EQ(cache.epoch(kQubits, tolerance), 2U);
  // A donor with nothing new keeps the epoch stable.
  dd::Package stale(kQubits, tolerance);
  (void)stale.makeOperationDD(gates[0]);
  EXPECT_EQ(cache.publish(stale), 0U);
  EXPECT_EQ(cache.epoch(kQubits, tolerance), 2U);
  EXPECT_GT(cache.totalEntries(), 0U);
}

} // namespace
} // namespace veriqc

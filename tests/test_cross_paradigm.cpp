/// Randomized agreement checks between the DD and ZX paradigms, plus the
/// manager's sequential-skip and the ZX checker's stop-attribution contracts.
#include "check/manager.hpp"
#include "check/task_pool.hpp"
#include "circuits/benchmarks.hpp"
#include "circuits/error_injection.hpp"
#include "compile/decompose.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <random>
#include <thread>
#include <vector>

namespace veriqc::check {
namespace {

Configuration quickConfig() {
  Configuration config;
  config.simulationRuns = 8;
  config.seed = 7;
  return config;
}

// --- cross-paradigm agreement ------------------------------------------------

TEST(CrossParadigmTest, ZXAndAlternatingAgreeOnCliffordTInverses) {
  // Composing a Clifford+T circuit with its own inverse lets the phases
  // cancel (Sec. 6.2), so both paradigms must prove equivalence.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto c = circuits::randomCliffordT(4, 10, 0.25, seed);
    const auto zx = zxCheck(c, c);
    EXPECT_EQ(zx.criterion, EquivalenceCriterion::EquivalentUpToGlobalPhase)
        << "seed " << seed << ": " << zx.toString();
    const auto dd = ddAlternatingCheck(c, c, quickConfig());
    EXPECT_TRUE(provedEquivalent(dd.criterion)) << "seed " << seed;
  }
}

TEST(CrossParadigmTest, SingleGateMutantsNeverProveEquivalent) {
  // The ZX engine is incomplete but sound: for a circuit damaged by either
  // error model it may fail to decide, but it must never certify
  // equivalence — and the DD checker must prove non-equivalence.
  std::mt19937_64 rng(17);
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto base = circuits::randomCliffordT(4, 12, 0.2, seed);
    const auto mutant = (seed % 2 == 0)
                            ? circuits::removeRandomGate(base, rng)
                            : circuits::flipRandomCnot(base, rng);
    ASSERT_TRUE(mutant.has_value()) << "seed " << seed;
    const auto dd = ddAlternatingCheck(base, *mutant, quickConfig());
    if (dd.criterion != EquivalenceCriterion::NotEquivalent) {
      // Rarely the mutation is a no-op (e.g. flipping a CNOT sandwiched in
      // a symmetric context); agreement is all that can be required then.
      continue;
    }
    const auto zx = zxCheck(base, *mutant);
    EXPECT_FALSE(provedEquivalent(zx.criterion))
        << "seed " << seed << ": " << zx.toString();
  }
}

// --- manager sequential skipping ---------------------------------------------

TEST(ManagerSequentialTest, SkipsRemainingEnginesAfterDefinitiveVerdict) {
  Configuration config = quickConfig();
  config.parallel = false;
  config.runZX = true;
  EquivalenceCheckingManager manager(circuits::ghz(3), circuits::ghz(3),
                                     config);
  const auto result = manager.run();
  EXPECT_TRUE(provedEquivalent(result.criterion)) << result.toString();
  const auto& slots = manager.engineResults();
  ASSERT_EQ(slots.size(), 3U);
  // The alternating checker settles the question immediately; everything
  // after it must be left untouched and honestly marked as skipped.
  EXPECT_TRUE(isDefinitive(slots[0].criterion)) << slots[0].toString();
  EXPECT_EQ(slots[1].criterion, EquivalenceCriterion::NotRun);
  EXPECT_EQ(slots[2].criterion, EquivalenceCriterion::NotRun);
  EXPECT_EQ(slots[2].method, "zx-calculus");
  EXPECT_EQ(slots[1].runtimeSeconds, 0.0);
}

TEST(ManagerSequentialTest, NotRunSlotsNeverWinTheCombinedVerdict) {
  Configuration config = quickConfig();
  config.parallel = false;
  config.runAlternating = false;
  config.runSimulation = false;
  config.runZX = true;
  // Arbitrary-angle optimized pairs can leave the (incomplete) ZX engine
  // with NoInformation; the combined verdict must still be that engine's
  // real outcome, never a synthetic NotRun.
  auto damaged = circuits::ghz(3);
  damaged.ops().pop_back();
  const auto result = checkEquivalence(circuits::ghz(3), damaged, config);
  EXPECT_EQ(result.criterion, EquivalenceCriterion::NoInformation)
      << result.toString();
}

// --- ZX checker stop attribution ---------------------------------------------

TEST(ZXStopAttributionTest, SiblingCancellationIsNotATimeout) {
  const auto c = circuits::randomCliffordT(4, 10, 0.2, 1);
  Configuration config; // no deadline configured
  const auto result = zxCheck(c, c, config, [] { return true; });
  EXPECT_EQ(result.criterion, EquivalenceCriterion::Cancelled)
      << result.toString();
}

TEST(ZXStopAttributionTest, DeadlineExpiryIsATimeout) {
  // The checker measures its deadline from its own start, so the workload
  // must reliably outlast the 1 ms budget (this reduction takes tens of
  // milliseconds even in Release builds).
  const auto c = circuits::randomClifford(16, 200, 2);
  Configuration config;
  config.timeout = std::chrono::milliseconds(1);
  const auto result = zxCheck(c, c, config);
  EXPECT_EQ(result.criterion, EquivalenceCriterion::Timeout)
      << result.toString();
}

TEST(ZXStopAttributionTest, CompletedRunReportsRuleStats) {
  const auto c = circuits::randomCliffordT(4, 10, 0.25, 3);
  const auto result = zxCheck(c, c);
  EXPECT_EQ(result.criterion, EquivalenceCriterion::EquivalentUpToGlobalPhase);
  EXPECT_GT(result.rewrites, 0U);
  // The structured per-rule stats include spider fusion. Their rewrite
  // counts are a subset of the engine total: toGraphLike() fuses spiders
  // during normalization, outside any attributed worklist pass.
  ASSERT_FALSE(result.zxRuleStats.empty());
  std::size_t total = 0;
  bool sawSpider = false;
  for (const auto& stat : result.zxRuleStats) {
    EXPECT_GT(stat.candidates, 0U) << stat.rule;
    EXPECT_GE(stat.candidates, stat.matches) << stat.rule;
    total += stat.rewrites;
    sawSpider = sawSpider || stat.rule == "spider";
  }
  EXPECT_TRUE(sawSpider);
  EXPECT_GT(total, 0U);
  EXPECT_LE(total, result.rewrites);
  // The text digest is rendered from the same data and reaches the
  // human-readable summary.
  EXPECT_NE(result.zxRuleDigest().find("spider"), std::string::npos)
      << result.zxRuleDigest();
  EXPECT_NE(result.toString().find("zx rules"), std::string::npos);
  // The engine also feeds the named counter registry.
  EXPECT_TRUE(result.counters.contains("zx.rewrites"));
}

// --- configuration knobs -----------------------------------------------------

TEST(ZXConfigTest, GadgetRulesOffStillProvesCliffordPairs) {
  Configuration config;
  config.zxGadgetRules = false;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const auto c = circuits::randomClifford(4, 12, seed);
    const auto result = zxCheck(c, c, config);
    EXPECT_EQ(result.criterion,
              EquivalenceCriterion::EquivalentUpToGlobalPhase)
        << "seed " << seed << ": " << result.toString();
  }
}

TEST(ZXConfigTest, PhaseSnapRecoversNoisyCliffordTAngles) {
  // Perturb every T phase by ~1e-13: with the default snap tolerance the
  // ZX engine sees exact PiRationals and still proves equivalence.
  const auto clean = circuits::randomCliffordT(4, 12, 0.3, 9);
  auto noisy = clean;
  for (auto& op : noisy.ops()) {
    if (op.type == OpType::T) {
      op.type = OpType::RZ;
      op.params = {PI / 4.0 + 1e-13};
    }
  }
  const auto snapped = zxCheck(clean, noisy);
  EXPECT_EQ(snapped.criterion,
            EquivalenceCriterion::EquivalentUpToGlobalPhase)
      << snapped.toString();
  // With snapping effectively disabled the noisy angles stay irrational,
  // the phases no longer cancel symbolically, and the sound engine must
  // refuse to certify (it may not claim non-equivalence either).
  Configuration strict;
  strict.zxPhaseSnapTolerance = 0.0;
  const auto unsnapped = zxCheck(clean, noisy, strict);
  EXPECT_NE(unsnapped.criterion, EquivalenceCriterion::NotEquivalent);
}

// --- DD checker stop attribution ---------------------------------------------
//
// The same contract zxCheck already honors: a tripped stop token before the
// locally tracked deadline can only mean a sibling engine's definitive
// verdict, so the slot must read Cancelled; only past the deadline is it a
// Timeout. Both DD gate-application checkers used to stamp Timeout
// unconditionally.

TEST(DDStopAttributionTest, AlternatingSiblingCancellationIsNotATimeout) {
  const auto c = circuits::randomCircuit(6, 200, 1);
  Configuration config = quickConfig(); // no deadline configured
  const auto result = ddAlternatingCheck(c, c, config, [] { return true; });
  EXPECT_EQ(result.criterion, EquivalenceCriterion::Cancelled)
      << result.toString();
}

TEST(DDStopAttributionTest, AlternatingDeadlineExpiryIsATimeout) {
  const auto c = circuits::randomCircuit(6, 200, 1);
  Configuration config = quickConfig();
  config.timeout = std::chrono::milliseconds(1);
  // The token itself outwaits the 1 ms budget before tripping, so by the
  // time the checker attributes the stop the deadline has provably passed —
  // deterministic regardless of how fast the gate loop runs.
  const auto result = ddAlternatingCheck(c, c, config, [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return true;
  });
  EXPECT_EQ(result.criterion, EquivalenceCriterion::Timeout)
      << result.toString();
}

TEST(DDStopAttributionTest, AbortedAlternatingRunKeepsTruncatedTrace) {
  const auto c = circuits::randomCircuit(6, 200, 1);
  Configuration config = quickConfig();
  config.recordTrace = true;
  // Let a few gates through before tripping so there is a prefix to keep.
  std::size_t polls = 0;
  const auto result =
      ddAlternatingCheck(c, c, config, [&polls] { return ++polls > 8; });
  EXPECT_EQ(result.criterion, EquivalenceCriterion::Cancelled)
      << result.toString();
  EXPECT_FALSE(result.sizeTrace.empty())
      << "early-return path dropped the requested size trace";
  EXPECT_GT(result.peakNodes, 0U);
}

TEST(DDStopAttributionTest, CompilationFlowSiblingCancellationIsNotATimeout) {
  const auto original = circuits::ghz(3);
  const auto compiled = original;
  const std::vector<std::size_t> counts(original.size(), 1);
  const auto result = ddCompilationFlowCheck(original, compiled, counts,
                                             quickConfig(),
                                             [] { return true; });
  EXPECT_EQ(result.criterion, EquivalenceCriterion::Cancelled)
      << result.toString();
}

TEST(DDStopAttributionTest, CompilationFlowPollsInsideLargeGroups) {
  // One original gate expanding into a huge compiled group: a checker that
  // polls only once per group would apply the whole group — and with it the
  // entire (equivalent) circuit — before ever seeing the second token call,
  // returning Equivalent instead of honoring the stop.
  QuantumCircuit original(1);
  original.h(0);
  QuantumCircuit compiled(1);
  compiled.h(0);
  for (int i = 0; i < 300; ++i) {
    compiled.x(0);
    compiled.x(0);
  }
  const std::vector<std::size_t> counts = {compiled.size()};
  std::size_t polls = 0;
  const auto result = ddCompilationFlowCheck(
      original, compiled, counts, quickConfig(),
      [&polls] { return ++polls > 1; });
  EXPECT_EQ(result.criterion, EquivalenceCriterion::Cancelled)
      << result.toString();
}

TEST(ManagerCancellationTest, SiblingVerdictRecordsCancelledSlot) {
  // Parallel manager with no deadline: the alternating checker proves the
  // pair equivalent in milliseconds while the simulation engine faces far
  // more runs than it can finish; its slot must then read Cancelled — with
  // no timeout configured, Timeout would be a misattribution.
  Configuration config;
  config.parallel = true;
  config.simulationRuns = 100000;
  config.seed = 7;
  EquivalenceCheckingManager manager(circuits::qft(10), circuits::qft(10),
                                     config);
  const auto combined = manager.run();
  EXPECT_TRUE(provedEquivalent(combined.criterion)) << combined.toString();
  const auto& slots = manager.engineResults();
  ASSERT_EQ(slots.size(), 2U);
  EXPECT_TRUE(isDefinitive(slots[0].criterion)) << slots[0].toString();
  EXPECT_NE(slots[1].criterion, EquivalenceCriterion::Timeout)
      << slots[1].toString();
  // The slot either got cancelled mid-flight or — on a very fast machine —
  // never observed the flag between two runs; both are honest, Timeout is
  // not. On every realistic schedule 100k runs cannot complete, so also
  // assert the cancellation actually happened.
  EXPECT_EQ(slots[1].criterion, EquivalenceCriterion::Cancelled)
      << slots[1].toString();
}

TEST(ManagerCancellationTest, DeadlineRecordsTimeoutOnEverySlot) {
  // Engines that run one after another, on a 1-slot pool (as veriqcd queues
  // them on its shared pool) or on the sequential path. The naive oracle
  // keeps the alternating check far past the 20 ms deadline (it needs about
  // a second), so the run's deadline stops it. The simulation engine starts
  // only after the deadline has passed; its set-up takes about 1 ms, so it
  // polls long before its own deadline, taken when it started, would stop
  // it. No verdict and no requestCancel() raised the cancel flag, so every
  // slot, and the combined verdict, must read Timeout, not Cancelled.
  const auto c = compile::decomposeToCnot(circuits::grover(6, 13));
  Configuration config = quickConfig();
  config.oracle = OracleStrategy::Naive;
  config.simulationRuns = 1000000;
  config.timeout = std::chrono::milliseconds(20);
  for (const bool onPool : {true, false}) {
    config.parallel = onPool;
    TaskPool pool(1);
    EquivalenceCheckingManager manager(c, c, config);
    manager.useTaskPool(&pool);
    const auto combined = manager.run();
    EXPECT_EQ(combined.criterion, EquivalenceCriterion::Timeout)
        << "onPool=" << onPool << ": " << combined.toString();
    const auto& slots = manager.engineResults();
    ASSERT_EQ(slots.size(), 2U);
    for (const auto& slot : slots) {
      EXPECT_EQ(slot.criterion, EquivalenceCriterion::Timeout)
          << "onPool=" << onPool << ": " << slot.toString();
    }
  }
}

// --- simulation checker stimulus accounting ----------------------------------

TEST(SimulationAccountingTest, PreTrippedStopClaimsNoStimuli) {
  // The stop token is polled before each stimulus, so a pre-tripped token
  // simulates nothing and counts nothing.
  const auto c = circuits::randomCliffordT(4, 12, 0.2, 5);
  Configuration config = quickConfig();
  config.simulationRuns = 64;
  const auto result = ddSimulationCheck(c, c, config, [] { return true; });
  EXPECT_EQ(result.criterion, EquivalenceCriterion::Cancelled)
      << result.toString();
  EXPECT_EQ(result.performedSimulations, 0U);
  ASSERT_TRUE(result.counters.contains("sim.stimuli.performed"));
  EXPECT_EQ(result.counters.value("sim.stimuli.performed"), 0.0);
}

TEST(SimulationAccountingTest, CompletedRunClaimsExactlyTheConfiguredRuns) {
  const auto c = circuits::randomCliffordT(4, 12, 0.2, 6);
  Configuration config = quickConfig();
  config.simulationRuns = 8;
  const auto result = ddSimulationCheck(c, c, config);
  EXPECT_EQ(result.criterion, EquivalenceCriterion::ProbablyEquivalent)
      << result.toString();
  EXPECT_EQ(result.counters.value("sim.stimuli.performed"), 8.0);
  EXPECT_EQ(result.performedSimulations, 8U);
  EXPECT_GT(result.computeCacheStats.lookups, 0U);
}

TEST(SimulationAccountingTest, MidRunCancellationNeverOverclaims) {
  // Trip the token after a few polls: only stimuli whose simulation
  // finished count, and never more than the configured run count.
  const auto c = circuits::randomCliffordT(4, 16, 0.2, 7);
  Configuration config = quickConfig();
  config.simulationRuns = 32;
  std::size_t polls = 0;
  const auto result = ddSimulationCheck(c, c, config,
                                        [&polls] { return polls++ >= 6; });
  EXPECT_EQ(result.criterion, EquivalenceCriterion::Cancelled)
      << result.toString();
  const auto performed = result.counters.value("sim.stimuli.performed");
  EXPECT_LE(performed, 32.0);
  EXPECT_EQ(static_cast<double>(result.performedSimulations), performed);
}

} // namespace
} // namespace veriqc::check

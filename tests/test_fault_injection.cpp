/// Deterministic fault-injection coverage: every injection point fires at
/// least once against the cross-paradigm corpus, and firing never crashes,
/// corrupts a structure past its exception-safety contract, or flips a
/// definitive verdict. The degradation-ladder tests then check that the
/// manager converts contained failures back into verdicts.
#include "check/manager.hpp"
#include "check/report.hpp"
#include "check/task_pool.hpp"
#include "circuits/benchmarks.hpp"
#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <new>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

using namespace veriqc;
using namespace veriqc::check;

namespace {

fault::Registry& registry() { return fault::Registry::instance(); }

/// A 1-qubit circuit with `count` distinct RZ angles: each angle interns two
/// fresh reals, so a large ladder overflows the package's real table and
/// walks its growth path (kInitialSlots = 4096, grown at 3/4 load).
QuantumCircuit rzLadder(const std::size_t count) {
  QuantumCircuit c(1);
  for (std::size_t i = 0; i < count; ++i) {
    c.rz(0, 0.1 + 1e-3 * static_cast<double>(i));
  }
  return c;
}

/// Configurations that steer a run through a specific injection point.
Configuration alternatingOnly() {
  Configuration config;
  config.runSimulation = false;
  config.parallel = false;
  return config;
}

} // namespace

// --- fault library -----------------------------------------------------------

TEST(FaultPlanTest, DisarmedPointIsANoOp) {
  auto& point = registry().point("test.noop", fault::FaultKind::Runtime);
  for (int i = 0; i < 100; ++i) {
    point.hit();
  }
  EXPECT_FALSE(point.armed());
  EXPECT_EQ(point.fired(), 0U);
}

TEST(FaultPlanTest, AfterDelaysTheFirstFiring) {
  fault::ScopedPlan plan("test.after:after=3");
  auto& point = registry().point("test.after", fault::FaultKind::Runtime);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NO_THROW(point.hit()) << "hit " << i;
  }
  EXPECT_THROW(point.hit(), fault::FaultInjectedError);
  EXPECT_EQ(point.fired(), 1U);
  EXPECT_EQ(point.suppressed(), 3U);
}

TEST(FaultPlanTest, TimesBoundsTotalFirings) {
  fault::ScopedPlan plan("test.times:times=2");
  auto& point = registry().point("test.times", fault::FaultKind::Runtime);
  std::size_t thrown = 0;
  for (int i = 0; i < 10; ++i) {
    try {
      point.hit();
    } catch (const fault::FaultInjectedError&) {
      ++thrown;
    }
  }
  EXPECT_EQ(thrown, 2U);
  EXPECT_EQ(point.fired(), 2U);
  EXPECT_EQ(point.suppressed(), 8U);
}

TEST(FaultPlanTest, ProbabilityModeIsDeterministicInTheSeed) {
  const auto pattern = [](const std::string& planText) {
    fault::ScopedPlan plan(planText);
    auto& point = registry().point("test.prob", fault::FaultKind::Runtime);
    std::vector<bool> fired;
    for (int i = 0; i < 200; ++i) {
      try {
        point.hit();
        fired.push_back(false);
      } catch (const fault::FaultInjectedError&) {
        fired.push_back(true);
      }
    }
    return fired;
  };
  const auto a = pattern("test.prob:p=0.25:seed=7:times=0");
  const auto b = pattern("test.prob:p=0.25:seed=7:times=0");
  EXPECT_EQ(a, b);
  const auto c = pattern("test.prob:p=0.25:seed=8:times=0");
  EXPECT_NE(a, c);
  const auto firedCount =
      static_cast<std::size_t>(std::count(a.begin(), a.end(), true));
  EXPECT_GT(firedCount, 20U);
  EXPECT_LT(firedCount, 80U);
}

TEST(FaultPlanTest, KindOverrideSelectsTheException) {
  {
    fault::ScopedPlan plan("test.kind:throw=resource_limit");
    EXPECT_THROW(
        registry().point("test.kind", fault::FaultKind::Runtime).hit(),
        ResourceLimitError);
  }
  {
    fault::ScopedPlan plan("test.kind:throw=bad_alloc");
    EXPECT_THROW(registry().point("test.kind", fault::FaultKind::Runtime).hit(),
                 std::bad_alloc);
  }
}

TEST(FaultPlanTest, MalformedPlansAreRejectedUpFront) {
  for (const char* bad :
       {"test.bad:after=x", "test.bad:p=2.0", "test.bad:p=nope",
        ":after=1", "test.bad:unknown=1", "test.bad:throw=segfault"}) {
    EXPECT_THROW(registry().armPlan(bad), std::invalid_argument) << bad;
  }
  // A rejected plan must not leave anything armed.
  EXPECT_FALSE(registry().point("test.bad", fault::FaultKind::Runtime).armed());
}

TEST(FaultPlanTest, ScopedPlanDisarmsOnDestruction) {
  auto& point = registry().point("test.scoped", fault::FaultKind::Runtime);
  {
    fault::ScopedPlan plan("test.scoped");
    EXPECT_TRUE(point.armed());
  }
  EXPECT_FALSE(point.armed());
  EXPECT_NO_THROW(point.hit());
}

TEST(FaultPlanTest, AnyArmedTracksArmAndDisarm) {
  ASSERT_FALSE(registry().anyArmed());
  {
    fault::ScopedPlan plan("test.any_armed");
    EXPECT_TRUE(registry().anyArmed());
  }
  EXPECT_FALSE(registry().anyArmed());
  // disarmAll (the daemon's stale-VERIQC_FAULT guard) clears armed plans too.
  registry().armPlan("test.any_armed:after=5");
  ASSERT_TRUE(registry().anyArmed());
  registry().disarmAll();
  EXPECT_FALSE(registry().anyArmed());
}

// --- injection sweep ---------------------------------------------------------

namespace {

/// One sweep case: a plan arming `point` and a configuration whose run is
/// guaranteed to hit it. The pairs under check are equivalent, so the only
/// *wrong* definitive verdict is NotEquivalent.
struct SweepCase {
  const char* point;
  std::string plan;
  Configuration config;
  QuantumCircuit c1;
  QuantumCircuit c2;
};

std::vector<SweepCase> sweepCases() {
  std::vector<SweepCase> cases;
  const auto rnd = circuits::randomCircuit(6, 160, 11);
  {
    SweepCase c{fault::points::kDDSlabGrow, "dd.slab_grow:times=1",
                alternatingOnly(), rnd, rnd};
    cases.push_back(std::move(c));
  }
  {
    SweepCase c{fault::points::kDDUniqueRebuild, "dd.unique_rebuild:times=1",
                alternatingOnly(), rnd, rnd};
    cases.push_back(std::move(c));
  }
  {
    SweepCase c{fault::points::kDDRealGrow, "dd.real_grow:times=1",
                alternatingOnly(), rzLadder(2500), rzLadder(2500)};
    cases.push_back(std::move(c));
  }
  {
    SweepCase c{fault::points::kDDComputeAlloc, "dd.compute_alloc:times=1",
                alternatingOnly(), circuits::ghz(4), circuits::ghz(4)};
    cases.push_back(std::move(c));
  }
  {
    SweepCase c{fault::points::kDDGc, "dd.gc:after=2:times=1",
                alternatingOnly(), circuits::ghz(4), circuits::ghz(4)};
    cases.push_back(std::move(c));
  }
  {
    Configuration config;
    config.runAlternating = false;
    config.runSimulation = false;
    config.runZX = true;
    config.parallel = false;
    SweepCase c{fault::points::kZXDrain, "zx.drain:times=1", config,
                circuits::qft(4), circuits::qft(4)};
    cases.push_back(std::move(c));
  }
  {
    // The manager's parallel engine group starts its tasks through the pool.
    Configuration config;
    config.simulationRuns = 4;
    config.parallel = true;
    SweepCase c{fault::points::kPoolTaskStart, "pool.task_start:times=1",
                config, circuits::ghz(3), circuits::ghz(3)};
    cases.push_back(std::move(c));
  }
  return cases;
}

} // namespace

TEST(FaultSweepTest, EveryEnginePointFiresAndNeverFlipsAVerdict) {
  for (auto& sweep : sweepCases()) {
    SCOPED_TRACE(sweep.point);
    auto config = sweep.config;
    config.faultPlan = sweep.plan;
    const auto result = checkEquivalence(sweep.c1, sweep.c2, config);
    // The point must actually have been walked...
    EXPECT_GE(registry().firedCount(sweep.point), 1U) << sweep.point;
    // ... and at worst cost the verdict, never inverted it: the pairs are
    // equivalent, so NotEquivalent would be a corruption escaping the
    // failure containment.
    EXPECT_NE(result.criterion, EquivalenceCriterion::NotEquivalent)
        << sweep.point;
  }
}

TEST(FaultSweepTest, EveryKnownPointHasASweepCase) {
  // With the test above, this keeps every known point on live code: a point
  // with no case, or whose site is gone, fails one of the two. check.report
  // fires after the run, in the report layer, and has its own test
  // (ReportSerializationFaultLosesOnlyTheReport).
  std::set<std::string> swept;
  for (const auto& sweep : sweepCases()) {
    swept.insert(sweep.point);
  }
  for (const char* point : fault::kKnownPoints) {
    if (std::string(point) != fault::points::kCheckReport) {
      EXPECT_TRUE(swept.contains(point)) << point;
    }
  }
}

TEST(FaultSweepTest, FiredFaultsAreCountedInTheRunReport) {
  auto config = alternatingOnly();
  config.faultPlan = "dd.gc:after=1:times=1:throw=resource_limit";
  EquivalenceCheckingManager manager(circuits::ghz(3), circuits::ghz(3),
                                     config);
  const auto combined = manager.run();
  EXPECT_EQ(combined.criterion, EquivalenceCriterion::ResourceExhausted);
  EXPECT_TRUE(combined.counters.contains("fault/dd.gc.fired"));
  EXPECT_DOUBLE_EQ(combined.counters.value("fault/dd.gc.fired"), 1.0);
  const auto report = buildRunReport(manager, combined, config);
  EXPECT_TRUE(validateRunReport(report).empty());
  EXPECT_NE(report.at("counters").find("fault/dd.gc.fired"), nullptr);
}

TEST(FaultSweepTest, ReportSerializationFaultLosesOnlyTheReport) {
  Configuration config;
  config.simulationRuns = 2;
  config.runAlternating = false;
  config.parallel = false;
  EquivalenceCheckingManager manager(circuits::ghz(3), circuits::ghz(3),
                                     config);
  const auto combined = manager.run();
  {
    fault::ScopedPlan plan("check.report");
    EXPECT_THROW(buildRunReport(manager, combined, config),
                 fault::FaultInjectedError);
  }
  // The verdict the caller already holds is unaffected, and a disarmed
  // retry produces the report.
  EXPECT_EQ(combined.criterion, EquivalenceCriterion::ProbablyEquivalent);
  const auto report = buildRunReport(manager, combined, config);
  EXPECT_TRUE(validateRunReport(report).empty());
}

// --- degradation ladder ------------------------------------------------------

TEST(DegradationLadderTest, RetryConvertsResourceExhaustedIntoDefinitive) {
  auto config = alternatingOnly();
  config.faultPlan = "dd.gc:after=2:times=1:throw=resource_limit";
  config.engineRetryLimit = 2;
  EquivalenceCheckingManager manager(circuits::ghz(4), circuits::ghz(4),
                                     config);
  const auto combined = manager.run();
  EXPECT_EQ(combined.criterion, EquivalenceCriterion::Equivalent);
  // The lineage shows the failed first attempt and the degraded recovery.
  ASSERT_EQ(manager.engineResults().size(), 1U);
  const auto& slot = manager.engineResults()[0];
  ASSERT_EQ(slot.attempts.size(), 2U);
  EXPECT_EQ(slot.attempts[0].attempt, 0U);
  EXPECT_EQ(slot.attempts[0].degradation, "");
  EXPECT_EQ(slot.attempts[0].criterion, "resource_exhausted");
  EXPECT_EQ(slot.attempts[1].attempt, 1U);
  EXPECT_EQ(slot.attempts[1].degradation, "gc-tight");
  EXPECT_EQ(slot.attempts[1].criterion, "equivalent");
  EXPECT_EQ(slot.degradation, "gc-tight");
  EXPECT_EQ(combined.attempts.size(), 2U);
  // The recovered run is not resource-limited any more.
  EXPECT_TRUE(combined.resourceLimitedEngines.empty());
  // The report carries the lineage and still validates.
  const auto report = buildRunReport(manager, combined, config);
  EXPECT_TRUE(validateRunReport(report).empty());
  EXPECT_NE(report.at("verdict").find("attempts"), nullptr);
}

TEST(DegradationLadderTest, SimulationSlotFaultRetriesUnderGcTight) {
  // A simulation-only slot that runs out of budget retries under the first
  // rung, gc-tight, and recovers its verdict.
  Configuration config;
  config.runAlternating = false;
  config.parallel = false;
  config.simulationRuns = 8;
  config.faultPlan = "dd.gc:after=2:times=1:throw=resource_limit";
  config.engineRetryLimit = 1;
  EquivalenceCheckingManager manager(circuits::qft(5), circuits::qft(5),
                                     config);
  const auto combined = manager.run();
  EXPECT_EQ(combined.criterion, EquivalenceCriterion::ProbablyEquivalent);
  const auto& slot = manager.engineResults()[0];
  ASSERT_EQ(slot.attempts.size(), 2U);
  EXPECT_EQ(slot.attempts[0].criterion, "resource_exhausted");
  EXPECT_EQ(slot.attempts[1].degradation, "gc-tight");
  EXPECT_EQ(slot.attempts[1].criterion, "probably_equivalent");
}

TEST(DegradationLadderTest, AlternatingFallsBackToSimulation) {
  auto config = alternatingOnly();
  // gc-tight is already in effect, so the ladder's next rung for a failed
  // alternating slot is the simulation fallback.
  config.aggressiveGC = true;
  config.faultPlan = "dd.slab_grow:times=1";
  config.engineRetryLimit = 2;
  config.simulationRuns = 4;
  config.runSimulation = false; // the fallback must come from the ladder
  EquivalenceCheckingManager manager(circuits::ghz(3), circuits::ghz(3),
                                     config);
  const auto combined = manager.run();
  const auto& slot = manager.engineResults()[0];
  ASSERT_EQ(slot.attempts.size(), 2U);
  EXPECT_EQ(slot.attempts[0].criterion, "resource_exhausted");
  EXPECT_EQ(slot.attempts[1].degradation, "sim-fallback");
  EXPECT_EQ(slot.attempts[1].engine.rfind("dd-simulation", 0), 0U);
  EXPECT_EQ(combined.criterion, EquivalenceCriterion::ProbablyEquivalent);
}

TEST(DegradationLadderTest, RetryBudgetBoundsTheLadder) {
  auto config = alternatingOnly();
  config.faultPlan = "dd.gc:times=0:throw=resource_limit";
  config.engineRetryLimit = 1;
  EquivalenceCheckingManager manager(circuits::ghz(3), circuits::ghz(3),
                                     config);
  const auto combined = manager.run();
  EXPECT_EQ(combined.criterion, EquivalenceCriterion::ResourceExhausted);
  const auto& slot = manager.engineResults()[0];
  ASSERT_EQ(slot.attempts.size(), 2U);
  EXPECT_EQ(slot.attempts[1].criterion, "resource_exhausted");
  ASSERT_EQ(combined.resourceLimitedEngines.size(), 1U);
}

TEST(DegradationLadderTest, ParallelGroupPoisoningIsRetried) {
  // Engine tasks die at task start (before the per-engine firewall can
  // engage): the group is poisoned, wait() rethrows, and the manager must
  // convert the never-started slots into retryable EngineError records.
  // Which sibling fires first is a scheduling race, so the assertions cover
  // the invariants that hold under every interleaving: the run terminates
  // within the retry budget, at least one start failure was recorded, no
  // slot is left NotRun, and the verdict is still sound.
  Configuration config;
  config.simulationRuns = 4;
  config.parallel = true;
  config.faultPlan = "pool.task_start:times=2";
  config.engineRetryLimit = 3;
  EquivalenceCheckingManager manager(circuits::ghz(3), circuits::ghz(3),
                                     config);
  const auto combined = manager.run();
  EXPECT_TRUE(combined.criterion == EquivalenceCriterion::Equivalent ||
              combined.criterion == EquivalenceCriterion::ProbablyEquivalent)
      << toString(combined.criterion);
  EXPECT_GE(combined.counters.value("fault/pool.task_start.fired"), 1.0);
  bool sawStartFailure = false;
  for (const auto& slot : manager.engineResults()) {
    EXPECT_NE(slot.criterion, EquivalenceCriterion::NotRun) << slot.method;
    if (slot.errorMessage.find("failed to start") != std::string::npos) {
      sawStartFailure = true;
    }
    for (const auto& attempt : slot.attempts) {
      if (attempt.errorMessage.find("failed to start") != std::string::npos) {
        sawStartFailure = true;
      }
      // A poisoned round must consume retry budget: attempt indices stay
      // within the configured ladder depth.
      EXPECT_LE(attempt.attempt, config.engineRetryLimit);
    }
  }
  EXPECT_TRUE(sawStartFailure);
}

TEST(DegradationLadderTest, NoRetryAfterDefinitiveVerdict) {
  auto config = alternatingOnly();
  config.engineRetryLimit = 3;
  EquivalenceCheckingManager manager(circuits::ghz(3), circuits::ghz(3),
                                     config);
  const auto combined = manager.run();
  EXPECT_EQ(combined.criterion, EquivalenceCriterion::Equivalent);
  EXPECT_TRUE(manager.engineResults()[0].attempts.empty());
  EXPECT_TRUE(combined.attempts.empty());
}

// --- task-pool exception accounting ------------------------------------------

TEST(TaskPoolFaultTest, SecondaryExceptionsAreCountedNotDropped) {
  TaskPool pool(6);
  TaskGroup group(pool);
  // Barrier: every task starts before any throws, so none is skipped by the
  // group cancellation the first exception triggers.
  std::atomic<int> started{0};
  for (int i = 0; i < 4; ++i) {
    group.submit([&started] {
      started.fetch_add(1);
      while (started.load() < 4) {
        std::this_thread::yield();
      }
      throw std::runtime_error("task failed");
    });
  }
  EXPECT_THROW(group.wait(), std::runtime_error);
  EXPECT_EQ(group.suppressedExceptions(), 3U);
  EXPECT_EQ(group.skippedTasks(), 0U);
}

TEST(TaskPoolFaultTest, SubmitFailureRollsBackPendingCount) {
  // submit() counts a task as pending in the same critical section that
  // queues it, and only after the push succeeded, so a failed push leaves
  // nothing for wait() to block on. A push failure cannot be injected; the
  // observable contract is that wait() returns after the successful tasks.
  TaskPool pool(2);
  TaskGroup group(pool);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    group.submit([&ran] { ran.fetch_add(1); });
  }
  group.wait();
  EXPECT_EQ(ran.load(), 8);
}

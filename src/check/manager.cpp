#include "check/manager.hpp"

#include "check/report.hpp"
#include "check/task_pool.hpp"
#include "dd/package.hpp"
#include "fault/fault.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <new>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <utility>

namespace veriqc::check {

namespace {

using Clock = std::chrono::steady_clock;

/// Exception firewall around one engine: whatever an engine throws is
/// converted into a per-slot Result instead of unwinding into the manager
/// (where a raw std::thread would std::terminate the process). Resource
/// budgets (and allocation failure, their unplanned cousin) degrade to
/// ResourceExhausted; everything else becomes EngineError. The captured
/// diagnostic is preserved so Result::toString can surface it.
Result runGuarded(const std::function<Result()>& engine,
                  const std::string& name) {
  const auto start = Clock::now();
  const auto failed = [&](const EquivalenceCriterion criterion,
                          std::string message) {
    Result result;
    result.method = name;
    result.criterion = criterion;
    result.errorMessage = std::move(message);
    result.runtimeSeconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    return result;
  };
  try {
    return engine();
  } catch (const ResourceLimitError& e) {
    return failed(EquivalenceCriterion::ResourceExhausted, e.what());
  } catch (const std::bad_alloc& e) {
    return failed(EquivalenceCriterion::ResourceExhausted, e.what());
  } catch (const std::exception& e) {
    return failed(EquivalenceCriterion::EngineError, e.what());
  } catch (...) {
    return failed(EquivalenceCriterion::EngineError, "unknown exception");
  }
}

/// True for slots whose outcome is an abnormal termination rather than an
/// analysis result — exactly the outcomes the degradation ladder retries.
bool isFailureSlot(const EquivalenceCriterion criterion) {
  return criterion == EquivalenceCriterion::ResourceExhausted ||
         criterion == EquivalenceCriterion::EngineError;
}

/// The engines the manager can schedule into a slot. A slot's kind can
/// change across retries (sim-fallback turns an Alternating slot into a
/// Simulation one).
enum class EngineKind : std::uint8_t { Alternating, Simulation, ZX, Dense };

std::string engineName(const EngineKind kind, const Configuration& config) {
  switch (kind) {
  case EngineKind::Alternating:
    return "dd-alternating(" + toString(config.oracle) + ")";
  case EngineKind::Simulation:
    return "dd-simulation(" + toString(config.stimuliKind) + ")";
  case EngineKind::ZX:
    return "zx-calculus";
  case EngineKind::Dense:
    return "dense";
  }
  return "unknown";
}

/// Walk one rung down the degradation ladder for a failed slot, mutating its
/// configuration (and possibly its kind) in place. Rungs, first-applicable:
///  - "gc-tight" (DD engines): collect eagerly from a small threshold and
///    halve a finite node budget — trades throughput for a tight memory
///    band, the right response to bad_alloc/budget failures.
///  - "sim-fallback": replace the alternating scheme by random-stimuli
///    simulation, whose diagrams are vectors instead of matrices.
///  - "retry": nothing left to degrade; try again as-is (the failure may
///    have been transient, e.g. a bounded injected fault).
std::string degradeStep(EngineKind& kind, Configuration& config) {
  const bool ddEngine =
      kind == EngineKind::Alternating || kind == EngineKind::Simulation;
  if (ddEngine && !config.aggressiveGC) {
    config.aggressiveGC = true;
    if (config.maxDDNodes > 0) {
      config.maxDDNodes = std::max<std::size_t>(1024, config.maxDDNodes / 2);
    }
    return "gc-tight";
  }
  if (kind == EngineKind::Alternating) {
    kind = EngineKind::Simulation;
    return "sim-fallback";
  }
  return "retry";
}

/// Combine per-engine outcomes into one verdict: a definitive answer wins
/// (ties broken by runtime), then ProbablyEquivalent, then Timeout, then the
/// first engine that at least ran and terminated normally. Only when every
/// surviving slot failed does a failure outcome become the verdict —
/// ResourceExhausted (a budget did its job) before EngineError (a genuine
/// fault). The combined record also lists which engines ran out of budget,
/// so graceful degradation stays visible even when a sibling's verdict wins.
Result combine(const std::vector<Result>& results, const double elapsed) {
  const Result* best = nullptr;
  for (const auto& r : results) {
    if (isDefinitive(r.criterion) &&
        (best == nullptr || r.runtimeSeconds < best->runtimeSeconds)) {
      best = &r;
    }
  }
  const auto firstWith = [&results](const auto& pred) -> const Result* {
    for (const auto& r : results) {
      if (pred(r)) {
        return &r;
      }
    }
    return nullptr;
  };
  if (best == nullptr) {
    best = firstWith([](const Result& r) {
      return r.criterion == EquivalenceCriterion::ProbablyEquivalent;
    });
  }
  if (best == nullptr) {
    best = firstWith([](const Result& r) {
      return r.criterion == EquivalenceCriterion::Timeout;
    });
  }
  if (best == nullptr) {
    best = firstWith([](const Result& r) {
      return r.criterion != EquivalenceCriterion::NotRun &&
             r.criterion != EquivalenceCriterion::Cancelled &&
             !isFailureSlot(r.criterion);
    });
  }
  if (best == nullptr) {
    best = firstWith([](const Result& r) {
      return r.criterion == EquivalenceCriterion::ResourceExhausted;
    });
  }
  if (best == nullptr) {
    best = firstWith([](const Result& r) {
      return r.criterion == EquivalenceCriterion::EngineError;
    });
  }
  if (best == nullptr && !results.empty()) {
    best = &results.front();
  }
  Result combined = best != nullptr ? *best : Result{};
  // The winner's kernel counters stay in its own engine record: the combined
  // record only carries what the manager itself measures, so report and
  // daemon totals count every engine exactly once.
  combined.counters = {};
  for (const auto& r : results) {
    if (r.criterion == EquivalenceCriterion::ResourceExhausted) {
      combined.resourceLimitedEngines.push_back(r.method);
    }
  }
  combined.runtimeSeconds = elapsed;
  return combined;
}

} // namespace

EquivalenceCheckingManager::EquivalenceCheckingManager(QuantumCircuit c1,
                                                       QuantumCircuit c2,
                                                       Configuration config)
    : c1_(std::move(c1)), c2_(std::move(c2)), config_(std::move(config)) {}

Result EquivalenceCheckingManager::run() {
  engineResults_.clear();
  // Arm the configured fault plan for exactly this run. An empty plan leaves
  // whatever VERIQC_FAULT armed untouched (ScopedPlan would replace it).
  std::optional<fault::ScopedPlan> faultPlan;
  if (!config_.faultPlan.empty()) {
    faultPlan.emplace(config_.faultPlan);
  }
  auto& phases = activePhases();
  auto prepareSpan = phases.scope("prepare");
  const auto start = Clock::now();
  // Watermark at run start: the per-run peakResidentSetKB is the growth this
  // run caused, so under a multi-job daemon a small job no longer inherits
  // the largest job's process-wide high-water mark.
  const auto rssBaselineKB = dd::Package::peakResidentSetKB();
  const auto deadline = deadlineFor(config_, start);
  std::atomic<bool> cancel{false};
  if (externalCancel_.load(std::memory_order_acquire)) {
    cancel.store(true, std::memory_order_release);
  }

  std::vector<EngineKind> kinds;
  if (config_.runAlternating) {
    kinds.push_back(EngineKind::Alternating);
  }
  if (config_.runSimulation && config_.simulationRuns > 0) {
    kinds.push_back(EngineKind::Simulation);
  }
  if (config_.runZX) {
    kinds.push_back(EngineKind::ZX);
  }
  if (config_.runDense) {
    kinds.push_back(EngineKind::Dense);
  }
  if (kinds.empty()) {
    prepareSpan.finish();
    Result none;
    none.method = "none";
    return none;
  }
  const std::size_t n = kinds.size();

  // Per-slot ladder state: the configuration (and kind) a slot currently
  // runs under, the rung applied before its current attempt, and the full
  // attempt lineage. Each slot's state is touched only by the task running
  // that slot (parallel rounds) or the manager thread (between rounds).
  std::vector<Configuration> slotConfig(n, config_);
  std::vector<EngineKind> slotKind = kinds;
  std::vector<std::string> slotRung(n);
  std::vector<std::vector<AttemptRecord>> lineage(n);

  // Pre-fill every slot as "never started" so that a run which stops early
  // leaves an honest record for the skipped engines.
  engineResults_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    engineResults_[i] = Result{};
    engineResults_[i].criterion = EquivalenceCriterion::NotRun;
    engineResults_[i].method = engineName(slotKind[i], slotConfig[i]);
  }

  // One token for every slot. Acquire pairs with the release store of a
  // winning engine, so an engine that observes the flag also observes
  // everything written before it was raised (the winner's result slot in
  // particular).
  const StopToken stop([this, &cancel, deadline] {
    return cancel.load(std::memory_order_acquire) ||
           externalCancel_.load(std::memory_order_acquire) ||
           Clock::now() >= deadline;
  });

  // One attempt of one slot; runs on the manager thread (sequential path)
  // or a pool task (parallel path) — but never concurrently for one slot.
  const auto runAttempt = [&](const std::size_t i) {
    const std::string name = engineName(slotKind[i], slotConfig[i]);
    const std::size_t attempt = lineage[i].size();
    std::string spanName = "engine:" + name;
    if (attempt > 0) {
      spanName += "#retry" + std::to_string(attempt);
    }
    // PhaseTimer is internally synchronized, so concurrent engine spans may
    // be opened from worker threads directly.
    auto span = phases.scope(spanName);
    auto result = runGuarded(
        [this, &stop, i, &slotKind, &slotConfig]() -> Result {
          const auto& cfg = slotConfig[i];
          switch (slotKind[i]) {
          case EngineKind::Alternating:
            return ddAlternatingCheck(c1_, c2_, cfg, stop);
          case EngineKind::Simulation:
            return ddSimulationCheck(c1_, c2_, cfg, stop);
          case EngineKind::ZX:
            return zxCheck(c1_, c2_, cfg, stop);
          case EngineKind::Dense:
            // Brute-force cross-check; throws CircuitError past
            // denseMaxQubits, which the firewall turns into an EngineError
            // slot rather than a crash.
            return denseCheck(c1_, c2_, cfg, cfg.denseMaxQubits);
          }
          throw std::logic_error("unknown engine kind");
        },
        name);
    // The cancel flags' only writers are a definitive verdict and
    // requestCancel(), so a Cancelled slot with neither raised was stopped
    // by this run's deadline. The engine judged that stop against its own
    // deadline, which starts with the engine and so falls after the run's.
    if (result.criterion == EquivalenceCriterion::Cancelled &&
        !cancel.load(std::memory_order_acquire) &&
        !externalCancel_.load(std::memory_order_acquire)) {
      result.criterion = EquivalenceCriterion::Timeout;
    }
    // Close the span before publishing the result so its duration never
    // includes sibling bookkeeping — the sequential path finishes its span
    // at the same point.
    span.finish();
    AttemptRecord record;
    record.engine = name;
    record.attempt = attempt;
    record.degradation = slotRung[i];
    record.criterion = criterionKey(result.criterion);
    record.runtimeSeconds = result.runtimeSeconds;
    record.errorMessage = result.errorMessage;
    lineage[i].push_back(std::move(record));
    engineResults_[i] = std::move(result);
    // A definitive verdict terminates the other engines early;
    // release-publish so siblings that observe the flag also observe the
    // stored result.
    if (isDefinitive(engineResults_[i].criterion)) {
      cancel.store(true, std::memory_order_release);
    }
  };

  prepareSpan.finish();

  // Attempt rounds: round 0 runs every configured engine; each later round
  // retries the slots that failed, one ladder rung further degraded. Rounds
  // end when no slot failed, the retry budget is spent, or the question is
  // already settled (cancel/deadline).
  std::vector<std::size_t> pending(n);
  std::iota(pending.begin(), pending.end(), 0);
  std::size_t suppressedExceptions = 0;
  while (!pending.empty()) {
    // Lineage length at round start, per pending slot. Any pending slot
    // whose lineage did not grow this round never reached the engine
    // firewall (its pool task died at start or was skipped by a poisoned
    // group); it must still be charged an attempt or a persistent start-up
    // fault would drain ladder rungs without ever consuming retry budget.
    std::vector<std::size_t> attemptsBefore(n, 0);
    for (const auto i : pending) {
      attemptsBefore[i] = lineage[i].size();
    }
    if (config_.parallel && pending.size() > 1) {
      // One slot per pending engine: the calling thread runs one engine
      // itself inside wait() while the spawned workers run the rest. An
      // injected pool (useTaskPool) is shared across managers — the daemon
      // case — and its sizing is the owner's business; otherwise a private
      // per-round pool is sized to the pending slots.
      std::optional<TaskPool> ownedPool;
      if (externalPool_ == nullptr) {
        ownedPool.emplace(pending.size());
      }
      TaskPool& pool = externalPool_ != nullptr ? *externalPool_ : *ownedPool;
      // No group-level stop token here: every engine must *start* even when
      // a sibling finishes first, so its slot records Cancelled (an honest
      // "was started, then yielded") instead of being skipped outright.
      TaskGroup group(pool);
      for (const auto i : pending) {
        group.submit([&runAttempt, i] { runAttempt(i); });
      }
      try {
        group.wait();
      } catch (const std::exception& e) {
        // A task failed before the engine firewall could engage (e.g. an
        // injected pool.task_start fault). The group is poisoned: siblings
        // that never started were skipped; their slots read NotRun (round
        // 0) or still hold the previous round's failure. Record the aborted
        // attempt on every such slot so it stays retryable by the ladder —
        // and so the round provably consumed retry budget.
        for (const auto i : pending) {
          if (lineage[i].size() != attemptsBefore[i]) {
            continue;  // runAttempt completed for this slot.
          }
          const std::string name = engineName(slotKind[i], slotConfig[i]);
          Result failure;
          failure.method = name;
          failure.criterion = EquivalenceCriterion::EngineError;
          failure.errorMessage =
              std::string("engine task failed to start: ") + e.what();
          AttemptRecord record;
          record.engine = name;
          record.attempt = lineage[i].size();
          record.degradation = slotRung[i];
          record.criterion = criterionKey(failure.criterion);
          record.errorMessage = failure.errorMessage;
          lineage[i].push_back(std::move(record));
          engineResults_[i] = std::move(failure);
        }
      }
      suppressedExceptions += group.suppressedExceptions();
    } else {
      for (const auto i : pending) {
        runAttempt(i);
        if (cancel.load(std::memory_order_acquire)) {
          // The question is settled — skip the remaining engines instead of
          // running them against a tripped stop token (their aborted
          // partial results would be meaningless and cost time).
          break;
        }
      }
    }
    std::vector<std::size_t> retry;
    const bool settled = cancel.load(std::memory_order_acquire) ||
                         externalCancel_.load(std::memory_order_acquire) ||
                         Clock::now() >= deadline;
    if (!settled) {
      for (const auto i : pending) {
        if (isFailureSlot(engineResults_[i].criterion) &&
            lineage[i].size() <= config_.engineRetryLimit) {
          slotRung[i] = degradeStep(slotKind[i], slotConfig[i]);
          retry.push_back(i);
        }
      }
    }
    pending = std::move(retry);
  }

  auto combineSpan = phases.scope("combine");
  // Attach lineage to the slots that were retried; slots settled on the
  // first attempt stay lineage-free, keeping their records (and the golden
  // reports built from them) byte-identical to pre-ladder runs.
  for (std::size_t i = 0; i < n; ++i) {
    if (lineage[i].size() > 1) {
      engineResults_[i].degradation = slotRung[i];
      engineResults_[i].attempts = lineage[i];
    }
  }
  auto combined =
      combine(engineResults_,
              std::chrono::duration<double>(Clock::now() - start).count());
  // The combined record carries the lineage of every retried slot, so the
  // whole ladder walk is visible even when an undegraded sibling won.
  combined.attempts.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (lineage[i].size() > 1) {
      combined.attempts.insert(combined.attempts.end(), lineage[i].begin(),
                               lineage[i].end());
    }
  }
  if (suppressedExceptions > 0) {
    combined.counters.add("task_pool/suppressed_exceptions",
                          static_cast<double>(suppressedExceptions));
  }
  // Nonzero fired/suppressed totals of armed injection points; silent (and
  // golden-stable) when no plan was armed.
  fault::Registry::instance().exportCounters(combined.counters);
  // Resident-set accounting on the combined result only: the absolute
  // process-wide high watermark under its explicit name, and the growth
  // this run caused (watermark delta; a run that never pushed the peak —
  // e.g. a small daemon job after a large one — honestly reports 0).
  const auto processPeakKB = dd::Package::peakResidentSetKB();
  combined.processPeakResidentSetKB = processPeakKB;
  combined.peakResidentSetKB =
      processPeakKB > rssBaselineKB ? processPeakKB - rssBaselineKB : 0;
  return combined;
}

Result checkEquivalence(const QuantumCircuit& c1, const QuantumCircuit& c2,
                        const Configuration& config) {
  EquivalenceCheckingManager manager(c1, c2, config);
  return manager.run();
}

} // namespace veriqc::check

#include "check/dd_checkers.hpp"

#include "audit/checkpoint.hpp"
#include "dd/package.hpp"
#include "opt/optimizer.hpp"
#include "sim/dd_simulator.hpp"
#include "sim/dense.hpp"

#include <array>
#include <chrono>
#include <cmath>
#include <random>

namespace veriqc::check {

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(const Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Poll the stop token inside tight gate loops only every this many
/// iterations — cheap enough to keep deadlines honest on huge gate groups
/// without a per-gate std::function call.
constexpr std::size_t kStopPollStride = 16;

/// Attribute an early stop (the discipline zxCheck established in PR 2):
/// past the local deadline it is a Timeout; before it, the only other source
/// of a tripped stop token is a sibling engine's definitive verdict —
/// Cancelled, which combine() never ranks above a normally-completed slot.
EquivalenceCriterion stopAttribution(const Clock::time_point deadline) {
  return Clock::now() >= deadline ? EquivalenceCriterion::Timeout
                                  : EquivalenceCriterion::Cancelled;
}

/// Copy a package's cache counters into the result record and feed the
/// named-counter registry the run report serializes.
void recordCacheStats(const dd::Package& package, Result& result) {
  const auto stats = package.stats();
  result.computeCacheStats += stats.computeTotal();
  result.gateCacheStats += stats.gateCache;
  package.exportCounters(result.counters);
}

/// Package sizing/budget knobs derived from the checker configuration: the
/// resource governor's DD-node and memory budgets apply to every package an
/// engine creates.
dd::PackageConfig packageConfigFor(const Configuration& config) {
  dd::PackageConfig packageConfig;
  packageConfig.maxNodes = config.maxDDNodes;
  packageConfig.maxMemoryMB = config.maxMemoryMB;
  if (config.aggressiveGC) {
    // Degraded mode (ladder rung "gc-tight"): collect from a small initial
    // threshold so the live-node band stays tight at the cost of throughput.
    packageConfig.gcInitialThreshold = 1024;
  }
  return packageConfig;
}

/// Independent seed for stimulus `run` (splitmix64 mix of seed and index):
/// makes the generated stimulus a function of (seed, run) alone.
std::uint64_t stimulusSeed(const std::uint64_t seed, const std::uint64_t run) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (run + 1);
  z = (z ^ (z >> 30U)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27U)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31U);
}

/// Align the two circuits and optionally reconstruct SWAP gates so the
/// alternating checker can absorb them.
std::pair<QuantumCircuit, QuantumCircuit>
prepare(const QuantumCircuit& c1, const QuantumCircuit& c2,
        const Configuration& config) {
  auto [a, b] = alignCircuits(c1, c2);
  if (config.reconstructSwaps) {
    opt::reconstructSwaps(a);
    opt::reconstructSwaps(b);
  }
  return {std::move(a), std::move(b)};
}

/// Final verdict from the accumulated diagram E (which should resemble the
/// identity for equivalent circuits).
EquivalenceCriterion classify(dd::Package& package, const dd::mEdge& e,
                              const Configuration& config, Result& result) {
  const auto ident = package.makeIdent();
  if (e.n == ident.n) {
    result.hilbertSchmidtFidelity = 1.0;
    if (std::abs(e.w - std::complex<double>{1.0, 0.0}) <
        config.checkTolerance) {
      return EquivalenceCriterion::Equivalent;
    }
    if (std::abs(std::abs(e.w) - 1.0) < config.checkTolerance) {
      return EquivalenceCriterion::EquivalentUpToGlobalPhase;
    }
    return EquivalenceCriterion::NotEquivalent;
  }
  const double fidelity = package.traceFidelity(e);
  result.hilbertSchmidtFidelity = fidelity;
  if (std::abs(fidelity - 1.0) < config.checkTolerance) {
    return EquivalenceCriterion::EquivalentUpToGlobalPhase;
  }
  return EquivalenceCriterion::NotEquivalent;
}

/// Wraps the accumulator diagram with reference management and statistics.
class Accumulator {
public:
  explicit Accumulator(dd::Package& package, const bool recordTrace = false)
      : package_(package), recordTrace_(recordTrace) {
    edge_ = package_.makeIdent();
    package_.incRef(edge_);
  }

  void replace(const dd::mEdge& next) {
    package_.incRef(next);
    package_.decRef(edge_);
    edge_ = next;
    package_.garbageCollect();
    peak_ = std::max(peak_, package_.stats().matrixNodes);
    if (recordTrace_) {
      trace_.push_back(package_.nodeCount(edge_));
    }
  }

  void applyLeft(const dd::mEdge& gate) {
    replace(package_.multiply(gate, edge_));
  }
  void applyRight(const dd::mEdge& gate) {
    replace(package_.multiply(edge_, gate));
  }

  [[nodiscard]] const dd::mEdge& edge() const noexcept { return edge_; }
  [[nodiscard]] std::size_t peak() const noexcept { return peak_; }
  [[nodiscard]] std::vector<std::size_t> takeTrace() {
    return std::move(trace_);
  }

private:
  dd::Package& package_;
  bool recordTrace_;
  dd::mEdge edge_{};
  std::size_t peak_ = 0;
  std::vector<std::size_t> trace_;
};

/// One side of the alternating scheme: a gate queue plus the tracked
/// wire-to-logical permutation.
class TaskSide {
public:
  TaskSide(const QuantumCircuit& circuit, const bool invert)
      : perm_(circuit.initialLayout()), invert_(invert) {
    for (const auto& op : circuit.ops()) {
      if (!op.isNonUnitary()) {
        ops_.push_back(&op);
      }
    }
  }

  [[nodiscard]] bool done() const noexcept { return next_ >= ops_.size(); }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return ops_.size() - next_;
  }
  [[nodiscard]] std::size_t total() const noexcept { return ops_.size(); }

  /// Absorb any pending SWAP gates into the permutation tracker. Returns
  /// true if a non-SWAP gate is pending afterwards.
  bool absorbSwaps() {
    while (!done() && ops_[next_]->isBareSwap()) {
      perm_.swapImages(ops_[next_]->targets[0], ops_[next_]->targets[1]);
      ++next_;
    }
    return !done();
  }

  /// DD of the next gate (inverted for the right-hand side), consuming it.
  dd::mEdge takeGateDD(dd::Package& package) {
    const Operation* op = ops_[next_++];
    if (invert_) {
      return package.makeOperationDD(op->inverse(), perm_);
    }
    return package.makeOperationDD(*op, perm_);
  }

  /// DD of the next gate without consuming it (for the lookahead oracle).
  dd::mEdge peekGateDD(dd::Package& package) {
    const Operation* op = ops_[next_];
    if (invert_) {
      return package.makeOperationDD(op->inverse(), perm_);
    }
    return package.makeOperationDD(*op, perm_);
  }

  void consume() { ++next_; }

  [[nodiscard]] const Permutation& trackedPermutation() const noexcept {
    return perm_;
  }

private:
  std::vector<const Operation*> ops_;
  std::size_t next_ = 0;
  Permutation perm_;
  bool invert_;
};

/// Finish `result` for an engine that tripped a resource budget: graceful
/// degradation keeps the cache/peak statistics gathered so far and captures
/// the diagnostic, so a manager (or caller) can report what ran out and
/// retry with a larger budget.
Result resourceExhausted(Result result, const dd::Package& package,
                         const ResourceLimitError& e,
                         const Clock::time_point start) {
  result.criterion = EquivalenceCriterion::ResourceExhausted;
  result.errorMessage = e.what();
  recordCacheStats(package, result);
  result.peakNodes =
      std::max(result.peakNodes, package.stats().peakMatrixNodes);
  result.runtimeSeconds = secondsSince(start);
  return result;
}

} // namespace

Result denseCheck(const QuantumCircuit& c1, const QuantumCircuit& c2,
                  const Configuration& config, const std::size_t maxQubits) {
  const auto start = Clock::now();
  Result result;
  result.method = "dense";
  const auto [a, b] = alignCircuits(c1, c2);
  if (a.numQubits() > maxQubits) {
    throw CircuitError("denseCheck: circuit too large for dense comparison");
  }
  const auto ua = sim::circuitUnitary(a);
  const auto ub = sim::circuitUnitary(b);
  const auto overlap = ua.adjoint().multiply(ub).trace();
  const auto dim = static_cast<double>(std::size_t{1} << a.numQubits());
  result.hilbertSchmidtFidelity = std::abs(overlap) / dim;
  if (ua.equals(ub, config.checkTolerance)) {
    result.criterion = EquivalenceCriterion::Equivalent;
  } else if (std::abs(std::abs(overlap) - dim) < config.checkTolerance * dim) {
    result.criterion = EquivalenceCriterion::EquivalentUpToGlobalPhase;
  } else {
    result.criterion = EquivalenceCriterion::NotEquivalent;
  }
  result.runtimeSeconds = secondsSince(start);
  return result;
}

Result ddConstructionCheck(const QuantumCircuit& c1, const QuantumCircuit& c2,
                           const Configuration& config, const StopToken& stop) {
  const auto start = Clock::now();
  const auto deadline = deadlineFor(config, start);
  Result result;
  result.method = "dd-construction";
  const auto [a, b] = prepare(c1, c2, config);
  dd::Package package(a.numQubits(), config.numericalTolerance,
                      packageConfigFor(config));
  audit::DDCheckpoint checkpoint(config.auditLevel,
                                 "dd-construction checkpoint");

  // `pinned` carries edges the engine keeps referenced outside the
  // accumulator (the finished first diagram while the second one builds), so
  // the audit's refcount recount sees every external root.
  const auto build = [&](const QuantumCircuit& circuit, bool& aborted,
                         const dd::mEdge* pinned) -> dd::mEdge {
    const auto explicitCircuit = circuit.withExplicitPermutations();
    Accumulator acc(package);
    for (const auto& op : explicitCircuit.ops()) {
      if (op.isNonUnitary()) {
        continue;
      }
      if (stop && stop()) {
        aborted = true;
        break;
      }
      acc.applyLeft(package.makeOperationDD(op));
      if (checkpoint.enabled()) {
        std::vector<dd::mEdge> roots{acc.edge()};
        if (pinned != nullptr) {
          roots.push_back(*pinned);
        }
        checkpoint.postGate(package, roots);
      }
    }
    result.peakNodes = std::max(result.peakNodes, acc.peak());
    if (explicitCircuit.globalPhase() != 0.0 && !aborted) {
      const auto& e = acc.edge();
      acc.replace({e.n, e.w * std::exp(std::complex<double>{
                             0.0, explicitCircuit.globalPhase()})});
    }
    return acc.edge();
  };

  try {
    bool aborted = false;
    const auto e1 = build(a, aborted, nullptr);
    const auto e2 = aborted ? package.makeIdent() : build(b, aborted, &e1);
    if (!aborted && checkpoint.enabled()) {
      const std::array roots{e1, e2};
      checkpoint.boundary(package, roots);
    }
    if (aborted) {
      result.criterion = stopAttribution(deadline);
      recordCacheStats(package, result);
      result.runtimeSeconds = secondsSince(start);
      return result;
    }
    // Canonicity: equal functionality implies equal root nodes.
    if (e1.n == e2.n) {
      result.hilbertSchmidtFidelity = 1.0;
      if (std::abs(e1.w - e2.w) < config.checkTolerance) {
        result.criterion = EquivalenceCriterion::Equivalent;
      } else if (std::abs(std::abs(e1.w) - std::abs(e2.w)) <
                 config.checkTolerance) {
        result.criterion = EquivalenceCriterion::EquivalentUpToGlobalPhase;
      } else {
        result.criterion = EquivalenceCriterion::NotEquivalent;
      }
    } else {
      const auto product =
          package.multiply(package.conjugateTranspose(e1), e2);
      const double fidelity = package.traceFidelity(product);
      result.hilbertSchmidtFidelity = fidelity;
      result.criterion = std::abs(fidelity - 1.0) < config.checkTolerance
                             ? EquivalenceCriterion::EquivalentUpToGlobalPhase
                             : EquivalenceCriterion::NotEquivalent;
    }
  } catch (const ResourceLimitError& e) {
    return resourceExhausted(std::move(result), package, e, start);
  }
  recordCacheStats(package, result);
  result.runtimeSeconds = secondsSince(start);
  return result;
}

Result ddAlternatingCheck(const QuantumCircuit& c1, const QuantumCircuit& c2,
                          const Configuration& config, const StopToken& stop) {
  const auto start = Clock::now();
  const auto deadline = deadlineFor(config, start);
  Result result;
  result.method = "dd-alternating(" + toString(config.oracle) + ")";
  const auto [a, b] = prepare(c1, c2, config);
  dd::Package package(a.numQubits(), config.numericalTolerance,
                      packageConfigFor(config));

  TaskSide right(a, /*invert=*/true); // G^dagger, multiplied from the right
  TaskSide left(b, /*invert=*/false); // G', multiplied from the left
  Accumulator acc(package, config.recordTrace);
  audit::DDCheckpoint checkpoint(config.auditLevel,
                                 "dd-alternating checkpoint");
  // The accumulator edge is the engine's only external root at quiescent
  // points, so every checkpoint hands exactly it to the refcount recount.
  const auto auditGate = [&]() {
    if (checkpoint.enabled()) {
      const std::array roots{acc.edge()};
      checkpoint.postGate(package, roots);
    }
  };

  const auto stopped = [&]() { return stop && stop(); };

  try {
    // Gate-application loop driven by the configured oracle.
    while (true) {
      const bool leftPending = left.absorbSwaps();
      const bool rightPending = right.absorbSwaps();
      if (!leftPending && !rightPending) {
        break;
      }
      if (stopped()) {
        result.criterion = stopAttribution(deadline);
        recordCacheStats(package, result);
        result.runtimeSeconds = secondsSince(start);
        result.peakNodes = acc.peak();
        // Keep the truncated size trajectory: a partial Fig. 4 curve is
        // exactly what one wants to see from an aborted run.
        result.sizeTrace = acc.takeTrace();
        return result;
      }
      if (!leftPending) {
        acc.applyRight(right.takeGateDD(package));
        auditGate();
        continue;
      }
      if (!rightPending) {
        acc.applyLeft(left.takeGateDD(package));
        auditGate();
        continue;
      }
      switch (config.oracle) {
      case OracleStrategy::Naive:
        // Finish the left side first, then unwind the right side.
        acc.applyLeft(left.takeGateDD(package));
        break;
      case OracleStrategy::Proportional: {
        // Choose the side that lags behind its proportional schedule.
        const double progressLeft =
            static_cast<double>(left.total() - left.remaining()) /
            static_cast<double>(left.total());
        const double progressRight =
            static_cast<double>(right.total() - right.remaining()) /
            static_cast<double>(right.total());
        if (progressLeft <= progressRight) {
          acc.applyLeft(left.takeGateDD(package));
        } else {
          acc.applyRight(right.takeGateDD(package));
        }
        break;
      }
      case OracleStrategy::Lookahead: {
        const auto gateLeft = left.peekGateDD(package);
        const auto gateRight = right.peekGateDD(package);
        const auto candidateLeft = package.multiply(gateLeft, acc.edge());
        const auto candidateRight = package.multiply(acc.edge(), gateRight);
        const bool takeLeft = package.nodeCount(candidateLeft) <=
                              package.nodeCount(candidateRight);
        if (takeLeft) {
          left.consume();
        } else {
          right.consume();
        }
        // Reference the winner before reclaiming the loser so subdiagrams
        // shared between the two candidates survive the release.
        acc.replace(takeLeft ? candidateLeft : candidateRight);
        package.release(takeLeft ? candidateRight : candidateLeft);
        break;
      }
      }
      auditGate();
    }

    // Global phases: E accumulates G'.G^dagger, so the relative phase is
    // phase(b) - phase(a).
    const double relativePhase = b.globalPhase() - a.globalPhase();
    if (relativePhase != 0.0) {
      const auto& e = acc.edge();
      acc.replace(
          {e.n, e.w * std::exp(std::complex<double>{0.0, relativePhase})});
    }

    // Equalize the tracked permutations against the output permutations:
    // E should equal R(tau) with tau = L o O^-1 o O' o L'^-1.
    const auto tau = right.trackedPermutation()
                         .compose(a.outputPermutation().inverse())
                         .compose(b.outputPermutation())
                         .compose(left.trackedPermutation().inverse());
    for (const auto& [x, y] : tau.transpositions()) {
      acc.applyRight(package.makeSwapDD(x, y));
      auditGate();
    }
    if (checkpoint.enabled()) {
      const std::array roots{acc.edge()};
      checkpoint.boundary(package, roots);
    }

    result.criterion = classify(package, acc.edge(), config, result);
  } catch (const ResourceLimitError& e) {
    // The diagram outgrew its budget mid-check: degrade to a cooperative
    // abort so a sibling engine's verdict can still decide the question.
    result.peakNodes = acc.peak();
    result.sizeTrace = acc.takeTrace();
    return resourceExhausted(std::move(result), package, e, start);
  }
  recordCacheStats(package, result);
  result.peakNodes = acc.peak();
  result.sizeTrace = acc.takeTrace();
  result.runtimeSeconds = secondsSince(start);
  return result;
}

Result ddCompilationFlowCheck(const QuantumCircuit& original,
                              const QuantumCircuit& compiled,
                              const std::vector<std::size_t>& expansionCounts,
                              const Configuration& config,
                              const StopToken& stop) {
  const auto start = Clock::now();
  const auto deadline = deadlineFor(config, start);
  Result result;
  result.method = "dd-alternating(compilation-flow)";
  if (expansionCounts.size() != original.size()) {
    throw CircuitError(
        "ddCompilationFlowCheck: one expansion count per original gate "
        "required");
  }
  std::size_t totalCompiled = 0;
  for (const auto c : expansionCounts) {
    totalCompiled += c;
  }
  if (totalCompiled != compiled.size()) {
    throw CircuitError(
        "ddCompilationFlowCheck: expansion counts do not cover the compiled "
        "circuit");
  }
  Configuration flowConfig = config;
  flowConfig.reconstructSwaps = false; // counts refer to the raw gate lists
  const auto [a, b] = alignCircuits(original, compiled);
  dd::Package package(a.numQubits(), flowConfig.numericalTolerance,
                      packageConfigFor(flowConfig));
  TaskSide right(a, /*invert=*/true);
  TaskSide left(b, /*invert=*/false);
  Accumulator acc(package, flowConfig.recordTrace);
  audit::DDCheckpoint checkpoint(config.auditLevel,
                                 "dd-compilation-flow checkpoint");
  const auto auditGate = [&]() {
    if (checkpoint.enabled()) {
      const std::array roots{acc.edge()};
      checkpoint.postGate(package, roots);
    }
  };

  // Fill the result record for an early abort, attributing the stop to the
  // local deadline (Timeout) or a sibling's verdict (Cancelled) and keeping
  // the truncated size trace.
  const auto stoppedResult = [&]() -> Result {
    result.criterion = stopAttribution(deadline);
    recordCacheStats(package, result);
    result.runtimeSeconds = secondsSince(start);
    result.peakNodes = acc.peak();
    result.sizeTrace = acc.takeTrace();
    return result;
  };

  try {
    for (const auto count : expansionCounts) {
      if (stop && stop()) {
        return stoppedResult();
      }
      for (std::size_t i = 0; i < count; ++i) {
        // A single original gate can expand into arbitrarily many compiled
        // gates (SWAP chains from routing), so the deadline must also be
        // polled inside the group — throttled, to keep the common small
        // groups free of per-gate token calls.
        if (i % kStopPollStride == kStopPollStride - 1 && stop && stop()) {
          return stoppedResult();
        }
        if (left.absorbSwaps()) {
          acc.applyLeft(left.takeGateDD(package));
          auditGate();
        }
      }
      if (right.absorbSwaps()) {
        acc.applyRight(right.takeGateDD(package));
        auditGate();
      }
    }
    for (std::size_t i = 0; left.absorbSwaps(); ++i) {
      if (i % kStopPollStride == kStopPollStride - 1 && stop && stop()) {
        return stoppedResult();
      }
      acc.applyLeft(left.takeGateDD(package));
      auditGate();
    }
    for (std::size_t i = 0; right.absorbSwaps(); ++i) {
      if (i % kStopPollStride == kStopPollStride - 1 && stop && stop()) {
        return stoppedResult();
      }
      acc.applyRight(right.takeGateDD(package));
      auditGate();
    }

    const auto tau = right.trackedPermutation()
                         .compose(a.outputPermutation().inverse())
                         .compose(b.outputPermutation())
                         .compose(left.trackedPermutation().inverse());
    for (const auto& [x, y] : tau.transpositions()) {
      acc.applyRight(package.makeSwapDD(x, y));
      auditGate();
    }
    const double relativePhase = b.globalPhase() - a.globalPhase();
    if (relativePhase != 0.0) {
      const auto& e = acc.edge();
      acc.replace(
          {e.n, e.w * std::exp(std::complex<double>{0.0, relativePhase})});
    }
    if (checkpoint.enabled()) {
      const std::array roots{acc.edge()};
      checkpoint.boundary(package, roots);
    }
    result.criterion = classify(package, acc.edge(), flowConfig, result);
  } catch (const ResourceLimitError& e) {
    result.peakNodes = acc.peak();
    result.sizeTrace = acc.takeTrace();
    return resourceExhausted(std::move(result), package, e, start);
  }
  recordCacheStats(package, result);
  result.peakNodes = acc.peak();
  result.sizeTrace = acc.takeTrace();
  result.runtimeSeconds = secondsSince(start);
  return result;
}

Result ddSimulationCheck(const QuantumCircuit& c1, const QuantumCircuit& c2,
                         const Configuration& config, const StopToken& stop) {
  const auto start = Clock::now();
  const auto deadline = deadlineFor(config, start);
  Result result;
  result.method = "dd-simulation(" + toString(config.stimuliKind) + ")";
  result.criterion = EquivalenceCriterion::ProbablyEquivalent;
  const auto [a, b] = alignCircuits(c1, c2);
  dd::Package package(a.numQubits(), config.numericalTolerance,
                      packageConfigFor(config));
  audit::DDCheckpoint checkpoint(config.auditLevel, "dd-simulation checkpoint");
  const auto countPerformed = [&result] {
    result.counters.add("sim.stimuli.performed",
                        static_cast<double>(result.performedSimulations));
  };

  try {
    // Runs go in index order and stop at the first counterexample, so the
    // reported index is the smallest failing one and depends only on
    // (seed, run), not on how many runs are configured.
    for (std::size_t run = 0; run < config.simulationRuns; ++run) {
      if (stop && stop()) {
        result.criterion = stopAttribution(deadline);
        break;
      }
      std::mt19937_64 rng(stimulusSeed(config.seed, run));
      const auto stimulus =
          sim::generateStimulus(config.stimuliKind, a.numQubits(), rng);
      const auto input =
          sim::simulate(package, stimulus, package.makeZeroState(), stop);
      const auto out1 = sim::simulate(package, a, input, stop);
      const auto out2 = sim::simulate(package, b, input, stop);
      const bool stopped = stop && stop();
      if (!stopped && checkpoint.enabled()) {
        // The three state vectors are the only externally referenced edges
        // at this point (matrix gate DDs live in the gate cache, which the
        // audit treats as an internal root).
        const std::array vectorRoots{input, out1, out2};
        checkpoint.postGate(package, {}, vectorRoots);
      }
      const double fidelity = stopped ? 1.0 : package.fidelity(out1, out2);
      package.decRef(input);
      package.decRef(out1);
      package.decRef(out2);
      package.garbageCollect();
      if (stopped) {
        result.criterion = stopAttribution(deadline);
        break;
      }
      ++result.performedSimulations;
      const auto stats = package.stats();
      result.peakNodes =
          std::max(result.peakNodes, stats.matrixNodes + stats.vectorNodes);
      if (std::abs(fidelity - 1.0) > config.checkTolerance) {
        result.criterion = EquivalenceCriterion::NotEquivalent;
        result.counterexampleStimulus = static_cast<std::int64_t>(run);
        break;
      }
    }
    // Quiescent point: every state vector has been decRef'ed, so the
    // recount expects no external roots at all.
    checkpoint.boundary(package);
  } catch (const ResourceLimitError& e) {
    countPerformed();
    return resourceExhausted(std::move(result), package, e, start);
  }
  countPerformed();
  recordCacheStats(package, result);
  result.runtimeSeconds = secondsSince(start);
  return result;
}

} // namespace veriqc::check

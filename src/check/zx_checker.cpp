#include "check/zx_checker.hpp"

#include "audit/checkpoint.hpp"
#include "compile/decompose.hpp"
#include "zx/circuit_to_zx.hpp"
#include "zx/simplify.hpp"

#include <chrono>
#include <string>

namespace veriqc::check {

Result zxCheck(const QuantumCircuit& c1, const QuantumCircuit& c2,
               const Configuration& config, const StopToken& stop) {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  Result result;
  result.method = "zx-calculus";
  const auto elapsed = [&start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  // Track the configured deadline locally so an early abort can be
  // attributed correctly: past the deadline it is a Timeout, before it the
  // only other source of `stop` is a sibling engine's definitive verdict
  // (Cancelled).
  const auto deadline = deadlineFor(config, start);
  const auto shouldStop = [&stop, deadline] {
    return (stop && stop()) || Clock::now() >= deadline;
  };

  const auto [a, b] = alignCircuits(c1, c2);
  auto diagram =
      zx::circuitToZX(compile::decomposeForZX(a), config.zxPhaseSnapTolerance)
          .compose(zx::circuitToZX(compile::decomposeForZX(b),
                                   config.zxPhaseSnapTolerance)
                       .adjoint());
  zx::SimplifierOptions options;
  options.gadgetRules = config.zxGadgetRules;
  options.maxVertices = config.maxZXVertices;
  zx::Simplifier simplifier(diagram, shouldStop, options);

  // Engine observability: structured per-rule scheduler stats plus the named
  // counters the run report aggregates.
  const auto recordStats = [&] {
    result.rewrites = simplifier.stats().total();
    result.remainingSpiders = diagram.spiderCount();
    for (const auto& [rule, stats] : simplifier.stats().activeRules()) {
      result.zxRuleStats.push_back(
          {rule, stats.candidates, stats.matches, stats.rewrites,
           stats.seconds});
      const std::string base = std::string("zx.rule.") + rule;
      result.counters.add(base + ".candidates",
                          static_cast<double>(stats.candidates));
      result.counters.add(base + ".matches",
                          static_cast<double>(stats.matches));
      result.counters.add(base + ".rewrites",
                          static_cast<double>(stats.rewrites));
    }
    result.counters.add("zx.rewrites", static_cast<double>(result.rewrites));
    result.counters.max("zx.spiders.remaining",
                        static_cast<double>(result.remainingSpiders));
    result.runtimeSeconds = elapsed();
  };

  bool completed = false;
  try {
    // The simplifier checks the vertex budget itself, including against the
    // freshly composed diagram (construction is what blows up on huge gate
    // counts), so an over-budget input aborts before any rewriting starts.
    completed = simplifier.fullReduce();
  } catch (const ResourceLimitError& e) {
    result.criterion = EquivalenceCriterion::ResourceExhausted;
    result.errorMessage = e.what();
    recordStats();
    return result;
  }
  // Post-pass checkpoint: audit the reduced diagram and the drained worklist
  // before trusting them for a verdict. An AuditError propagates to the
  // manager's exception firewall (EngineError).
  audit::zxCheckpoint(config.auditLevel, diagram, simplifier,
                      "zx-calculus post-reduce checkpoint");
  recordStats();
  if (!completed) {
    result.criterion = Clock::now() >= deadline
                           ? EquivalenceCriterion::Timeout
                           : EquivalenceCriterion::Cancelled;
    return result;
  }
  // Both diagrams were built over logical qubits, so equivalence requires
  // the identity permutation on the wires.
  const auto perm = zx::extractWirePermutation(diagram);
  if (perm.has_value() && perm->isIdentity()) {
    result.criterion = EquivalenceCriterion::EquivalentUpToGlobalPhase;
  } else {
    result.criterion = EquivalenceCriterion::NoInformation;
  }
  return result;
}

} // namespace veriqc::check

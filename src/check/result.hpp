/// \file result.hpp
/// \brief Verdicts, configuration and result records for equivalence checking.
#pragma once

#include "dd/compute_table.hpp"
#include "dd/real_table.hpp"
#include "obs/counters.hpp"
#include "sim/stimuli.hpp"

#include <chrono>
#include <vector>
#include <cstdint>
#include <string>

namespace veriqc::check {

/// The possible outcomes of an equivalence check.
enum class EquivalenceCriterion : std::uint8_t {
  Equivalent,                 ///< U = U' exactly (within tolerance)
  EquivalentUpToGlobalPhase,  ///< U = e^{i theta} U'
  NotEquivalent,              ///< a discrepancy was proven
  ProbablyEquivalent,         ///< all random stimuli agreed (no proof)
  NoInformation,              ///< the method terminated without a verdict
  Timeout,                    ///< the deadline was hit
  Cancelled,                  ///< stopped because a sibling engine finished
  ResourceExhausted,          ///< a configured resource budget was exceeded
  EngineError,                ///< the engine failed with an error
  NotRun,                     ///< the engine was never started
};

[[nodiscard]] std::string toString(EquivalenceCriterion criterion);

/// True for verdicts that settle the question.
[[nodiscard]] constexpr bool isDefinitive(const EquivalenceCriterion c) {
  return c == EquivalenceCriterion::Equivalent ||
         c == EquivalenceCriterion::EquivalentUpToGlobalPhase ||
         c == EquivalenceCriterion::NotEquivalent;
}

/// True for the two positive verdicts.
[[nodiscard]] constexpr bool provedEquivalent(const EquivalenceCriterion c) {
  return c == EquivalenceCriterion::Equivalent ||
         c == EquivalenceCriterion::EquivalentUpToGlobalPhase;
}

/// Gate-application strategy of the alternating checker (Sec. 4.1's oracle).
enum class OracleStrategy : std::uint8_t {
  Naive,        ///< one side completely, then the other
  Proportional, ///< keep applied-gate counts proportional to circuit sizes
  Lookahead,    ///< greedily pick the side yielding the smaller diagram
};

[[nodiscard]] std::string toString(OracleStrategy strategy);

struct Configuration {
  /// Tolerance of the DD package's value interning.
  double numericalTolerance = dd::RealTable::kDefaultTolerance;
  /// Threshold on | |tr(E)|/2^n - 1 | for the Hilbert-Schmidt criterion and
  /// on 1 - fidelity for simulation runs.
  double checkTolerance = 1e-9;
  /// Oracle for the alternating scheme.
  OracleStrategy oracle = OracleStrategy::Proportional;
  /// Reconstruct CX-triples into SWAPs so they can be absorbed into the
  /// permutation tracker.
  bool reconstructSwaps = true;
  /// Number of random-stimuli simulation runs (the paper uses 16).
  std::size_t simulationRuns = 16;
  /// Classical (basis-state) stimuli by default: they keep the simulated
  /// decision diagrams small on entangling circuits, while random product
  /// or entangled inputs can blow the vector DD up exponentially.
  sim::StimuliKind stimuliKind = sim::StimuliKind::Classical;
  std::uint64_t seed = 42;
  /// Wall-clock budget; zero means unlimited.
  std::chrono::milliseconds timeout{0};
  /// Which engines the manager launches.
  bool runAlternating = true;
  bool runSimulation = true;
  bool runZX = false;
  /// Enable the non-Clifford phase-gadget rule families in the ZX engine
  /// (gadget pivoting and phase-gadget fusion). Disabling them stops the
  /// reduction at the Clifford fixed point — still sound, possibly weaker.
  bool zxGadgetRules = true;
  /// Tolerance for snapping rotation angles to small-denominator multiples
  /// of pi when converting circuits to ZX-diagrams.
  double zxPhaseSnapTolerance = 1e-12;
  /// Run the engines on parallel threads (first definitive verdict wins).
  bool parallel = true;
  /// Also run the dense brute-force baseline as a manager engine. Only
  /// sensible for small circuits; past `denseMaxQubits` the engine fails
  /// with EngineError (contained by the manager's exception firewall).
  bool runDense = false;
  /// Qubit cap of the dense baseline engine.
  std::size_t denseMaxQubits = 12;
  /// Resource governor: live DD nodes a single package may hold
  /// (0 = unlimited). Checked at the garbage-collection boundary, i.e.
  /// after every gate application; exceeding it aborts the engine with
  /// ResourceExhausted instead of exhausting memory.
  std::size_t maxDDNodes = 0;
  /// Resource governor: live ZX-diagram vertices (0 = unlimited). Checked
  /// after diagram construction and inside the simplifier's worklist drain.
  std::size_t maxZXVertices = 0;
  /// Resource governor: peak resident set size in MB (0 = unlimited).
  /// Process-wide high-watermark via getrusage, polled at a throttle from
  /// the DD garbage-collection boundary.
  std::size_t maxMemoryMB = 0;
  /// Record the diagram size after every gate application (alternating
  /// checker) — the instrumentation behind the paper's Fig. 4 intuition.
  bool recordTrace = false;
  /// Invariant-audit level of the veriqc_audit layer: 0 = off (checkpoints
  /// reduce to one integer compare), 1 = audit DD/ZX structures at throttled
  /// post-gate checkpoints and at pass boundaries, 2 = audit every
  /// checkpoint. The VERIQC_AUDIT environment variable raises the effective
  /// level (max of both). Violations abort the engine with EngineError via
  /// the exception firewall — a corrupted structure must never produce a
  /// verdict.
  int auditLevel = 0;
  /// Fault-injection plan armed for the duration of run() (same syntax as
  /// the VERIQC_FAULT environment variable, e.g. "dd.slab_grow:after=3");
  /// empty leaves whatever plan the environment armed untouched.
  std::string faultPlan;
  /// Retries the manager grants each engine slot beyond its first attempt
  /// (0 = fail fast). Every retry runs under a configuration degraded one
  /// rung further down the ladder (gc-tight, sim-fallback, plain retry) and
  /// is recorded in the result's attempt lineage.
  std::size_t engineRetryLimit = 0;
  /// Degraded-mode knob (set by the ladder's "gc-tight" rung, settable
  /// directly too): start DD garbage collection at a small initial
  /// threshold so packages trade throughput for a tighter live-node band.
  bool aggressiveGC = false;
};

/// When a run that started at `start` must stop under `config.timeout`:
/// time_point::max() when the timeout is zero (unlimited), and also when
/// `start + timeout` would reach past the clock's range, so a huge timeout
/// never wraps into a deadline that has already passed.
[[nodiscard]] std::chrono::steady_clock::time_point
deadlineFor(const Configuration& config,
            std::chrono::steady_clock::time_point start);

/// Scheduler statistics of one ZX rule family, as recorded by the
/// simplifier's worklist passes. Replaces the former stringly rule digest;
/// Result::toString still renders the compact text form from these.
struct ZXRuleStat {
  std::string rule;           ///< rule family name ("spider", "pivot", ...)
  std::size_t candidates = 0; ///< worklist entries examined
  std::size_t matches = 0;    ///< candidates where the pattern matched
  std::size_t rewrites = 0;   ///< rewrites applied (cascades count each)
  double seconds = 0.0;       ///< wall time spent inside the rule's passes
};

/// One execution of an engine slot under the manager's degradation ladder:
/// the first run or a degraded retry. Chained per slot into the attempt
/// lineage the run report serializes.
struct AttemptRecord {
  std::string engine;       ///< engine name as attempted (may change: sim-fallback)
  std::size_t attempt = 0;  ///< 0 = first run, 1.. = retries
  /// Ladder rung applied before this attempt ("" for the first run):
  /// "gc-tight", "sim-fallback" or "retry".
  std::string degradation;
  std::string criterion;    ///< outcome of this attempt (toString form)
  double runtimeSeconds = 0.0;
  std::string errorMessage; ///< failure diagnostic, empty otherwise
};

/// Outcome record of one checker (or of the whole manager).
struct Result {
  EquivalenceCriterion criterion = EquivalenceCriterion::NoInformation;
  double runtimeSeconds = 0.0;
  std::string method;                 ///< engine that produced the verdict
  std::size_t performedSimulations = 0;
  double hilbertSchmidtFidelity = -1.0; ///< |tr(E)|/2^n when computed
  std::size_t peakNodes = 0;            ///< DD engines: max live node count
  std::size_t rewrites = 0;             ///< ZX engine: rewrite count
  std::size_t remainingSpiders = 0;     ///< ZX engine: spiders at the end
  /// ZX engine: per-rule scheduler statistics (one entry per rule family
  /// that examined at least one candidate), empty when the ZX engine did
  /// not run.
  std::vector<ZXRuleStat> zxRuleStats;
  /// Index of the stimulus that proved non-equivalence (-1 = none).
  std::int64_t counterexampleStimulus = -1;
  /// Diagnostic captured when the engine failed (EngineError) or tripped a
  /// resource budget (ResourceExhausted); empty otherwise.
  std::string errorMessage;
  /// Manager verdicts only: engines that aborted on a resource budget this
  /// run. Retrying with larger Configuration::max* budgets may let them
  /// produce a (stronger) verdict.
  std::vector<std::string> resourceLimitedEngines;
  /// Aggregated DD compute-table counters (summed over all packages used).
  dd::CacheStats computeCacheStats;
  /// Aggregated gate-DD construction cache counters.
  dd::CacheStats gateCacheStats;
  /// Diagram node count after each gate application (when recordTrace).
  /// Early-stopped runs keep the truncated prefix — exactly the Fig. 4
  /// evidence one wants from an aborted check.
  std::vector<std::size_t> sizeTrace;
  /// Named kernel counters fed by the engine (DD cache traffic, ZX rewrite
  /// totals, node peaks); serialized into the run report's counters object.
  obs::CounterRegistry counters;
  /// Manager verdicts only: growth of the process peak resident set over
  /// this run (end watermark minus start watermark, KB; 0 when unavailable).
  /// Under a multi-job daemon this attributes memory to the job instead of
  /// every report inheriting the largest job's process-wide high-water mark.
  std::size_t peakResidentSetKB = 0;
  /// Manager verdicts only: the absolute process-wide peak resident set at
  /// the end of the run (the old meaning of peakResidentSetKB, now under an
  /// explicit name; 0 when unavailable).
  std::size_t processPeakResidentSetKB = 0;
  /// Attempt lineage across the degradation ladder. Per-engine records list
  /// every attempt of that slot; the combined record concatenates all slots'
  /// lineages. Empty when every engine settled on its first attempt — the
  /// common case, which keeps reports byte-identical to pre-ladder ones.
  std::vector<AttemptRecord> attempts;
  /// Ladder rung that produced this record's outcome ("" when the first,
  /// undegraded attempt did).
  std::string degradation;

  /// Compact text form of zxRuleStats ("spider r12/m8/c40 0.10ms; ...");
  /// empty when the ZX engine did not run.
  [[nodiscard]] std::string zxRuleDigest() const;

  [[nodiscard]] std::string toString() const;
};

} // namespace veriqc::check

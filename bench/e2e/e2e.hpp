/// \file e2e.hpp
/// \brief Shared pieces of the veriqc_e2e benchmark harness: run options,
///        the metric sink, summary statistics, known-answer bookkeeping and
///        the in-memory span log the traced run exports as Chrome Trace
///        Event JSON.
///
/// The harness drives only public library entry points and reads only what
/// the library already exports (results, counters, run reports, service
/// metrics). Every span it records is opened and closed here, around calls
/// into the library.
#pragma once

#include "../table_common.hpp"

#include "check/result.hpp"
#include "ir/circuit.hpp"
#include "obs/json.hpp"
#include "support/mutex.hpp"
#include "zx/simplify.hpp"

#include <array>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace veriqc::e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double msBetween(const Clock::time_point start,
                                      const Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

[[nodiscard]] inline double msSince(const Clock::time_point start) {
  return msBetween(start, Clock::now());
}

/// What one harness process runs. --seed orders the cells of each round and
/// the serve jobs; circuit pairs and stimuli are fixed (README).
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Wall-clock budget of the timed loop (set-up and warm-up excluded); the
  /// round in progress when it runs out is finished.
  double seconds = 20.0;
  /// Record spans and replay the layers one call at a time.
  bool trace = false;
  /// One instance (or 20 jobs), one repetition: keeps the harness honest in
  /// the test suite without measuring anything.
  bool smoke = false;
  /// Scratch directory for generated inputs (the serve workload's QASM).
  std::filesystem::path workDir = "build-rel/bench-e2e/work";
};

/// Per-cell engine deadline: at least 5x the slowest cell measured, so no
/// cell runs near it and the decided shares stay deterministic.
inline constexpr std::chrono::milliseconds kCellTimeout{20000};

/// Set-up is repeated this many times per run and setup_s is the median:
/// one set-up takes only 6-100 ms, so fewer repeats leave it at the mercy
/// of single hiccups.
inline constexpr int kSetupRepeats = 11;

/// Insertion-ordered metric sink.
class Metrics {
public:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const Entry* find(const std::string& name) const;
  [[nodiscard]] const std::vector<Entry>& entries() const noexcept {
    return entries_;
  }

private:
  std::vector<Entry> entries_;
};

// --- summary statistics (empty input yields 0) ------------------------------

[[nodiscard]] double mean(const std::vector<double>& values);
[[nodiscard]] double median(std::vector<double> values);
/// Linear-interpolation quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> values, double q);
/// Geometric mean of positive values (non-positive entries are skipped).
[[nodiscard]] double geomean(const std::vector<double>& values);
[[nodiscard]] inline double ratio(const double num, const double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Process high-water resident set (getrusage ru_maxrss) in MB.
[[nodiscard]] double peakRssMB();

// --- inputs and engine configurations ----------------------------------------

using bench::ErrorKind;
inline constexpr std::array<ErrorKind, 3> kErrorKinds = {
    ErrorKind::None, ErrorKind::GateMissing, ErrorKind::FlippedCnot};

/// bench::injectError, except that a removed gate which only contributes a
/// global phase is redrawn with the next seed: such a removal would leave
/// the pair equivalent, and every injected pair must be non-equivalent by
/// construction. The first draw is the table1_* binaries' own.
[[nodiscard]] QuantumCircuit
injectNonPhaseError(const QuantumCircuit& gPrime, ErrorKind kind,
                    std::uint64_t seed);

/// Cells whose aligned width is at most this get their known answer from
/// check::denseCheck.
inline constexpr std::size_t kDenseOracleQubits = 10;

/// t_dd: bench::runQcecStyle's configuration (the alternating checker
/// racing 16 classical simulations) with the e2e deadline.
[[nodiscard]] check::Configuration ddConfiguration();
/// t_zx: bench::runZxStyle's configuration (zxCheck alone) with the e2e
/// deadline.
[[nodiscard]] check::Configuration zxConfiguration();

// --- verdict bookkeeping ------------------------------------------------------

/// Classification of one engine call against the cell's known answer.
struct Judgement {
  bool wrong = false;   ///< a verdict that contradicts the known answer
  bool failed = false;  ///< timeout, error, resource exhaustion, not run
  bool decided = false; ///< the known definitive answer was returned
};

/// DD portfolio verdicts: a definitive answer must match the known one.
[[nodiscard]] Judgement judgeDD(check::EquivalenceCriterion verdict,
                                bool expectEquivalent);
/// ZX verdicts: only "equivalent" is definitive, and NotEquivalent is never
/// a legal ZX answer (failure to reduce is no proof).
[[nodiscard]] Judgement judgeZX(check::EquivalenceCriterion verdict,
                                bool expectEquivalent);

/// Everything one workload run produces.
struct Outcome {
  Metrics metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Wrong verdicts, engine disagreements, replay mismatches and violated
  /// paper-shape assertions, each naming its cell or job.
  std::vector<std::string> problems;
  /// Per-cell Table-1 rows (table workloads) or per-pair rows (serve).
  obs::Json rows = obs::Json::array();
  /// Per-layer metrics whose layer this workload never enters; reported
  /// as 0.
  std::vector<std::string> notApplicable;
};

/// What the end-to-end metrics are computed from, gathered the same way by
/// every workload.
struct EndToEndSamples {
  /// Per-cell (table) or per-pair (serve) median times, ms.
  std::vector<double> ddEq, ddNeq, zxEq, zxNeq;
  std::size_t ddCalls = 0;
  std::size_t ddDecided = 0;
  std::size_t zxEqCalls = 0;
  std::size_t zxProved = 0;
  /// The latencies the job percentiles are taken over, ms.
  std::vector<double> jobMs;
  double jobsPerSecond = 0.0;
  std::vector<double> setupSeconds;
};

/// Set every end-to-end metric of `out` (completed_share from its
/// attempted/failed counts).
void emitEndToEnd(const EndToEndSamples& samples, Outcome& out);

// --- tracing -------------------------------------------------------------------

/// In-memory span log. Disabled logs drop every record, so call sites need
/// no branches. Thread-safe: the serve workload records from report sinks.
class TraceLog {
public:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  explicit TraceLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Open a span at `start` under `id` (the cell or job it serves); returns
  /// its index for children and end(), or kNoParent when disabled.
  std::size_t begin(const std::string& name, const std::string& id,
                    std::size_t parent, Clock::time_point start, int tid = 0);
  void end(std::size_t span, Clock::time_point end);
  /// A closed span [start, end).
  std::size_t record(const std::string& name, const std::string& id,
                     std::size_t parent, Clock::time_point start,
                     Clock::time_point end, int tid = 0) {
    const auto span = begin(name, id, parent, start, tid);
    this->end(span, end);
    return span;
  }

  /// Chrome Trace Event JSON ("X" complete events, microseconds).
  [[nodiscard]] obs::Json toChromeJson() const;

private:
  struct Span {
    std::string name;
    std::string id;
    std::size_t parent = kNoParent;
    int tid = 0;
    double startUs = 0.0;
    double durationUs = 0.0;
  };

  bool enabled_;
  Clock::time_point origin_;
  mutable support::Mutex mutex_;
  std::vector<Span> spans_ VERIQC_GUARDED_BY(mutex_);
};

/// Aggregates the per-layer counters of veriqc-report/v1 documents — the
/// same accounting for direct library calls and veriqcd jobs.
class LayerStats {
public:
  /// A DD portfolio run (alternating || simulation).
  void addDDReport(const obs::Json& report, bool expectEquivalent);
  /// A ZX-only run.
  void addZXReport(const obs::Json& report, bool expectEquivalent);
  /// Emit the check.*, sim.*, dd.* and zx.rule-derived metrics.
  void emit(Metrics& metrics) const;

private:
  std::vector<double> alternatingMs_;
  std::vector<double> simulationMs_;
  std::vector<double> cancelWaitMs_;
  std::vector<double> prepareMs_;
  std::vector<double> combineMs_;
  std::vector<double> stimuliPerNeq_;
  std::size_t ddRuns_ = 0;
  std::size_t simWins_ = 0;
  // Alternating-slot dd.* counters over equivalent runs.
  double nodesPeak_ = 0.0;
  double multiplyHits_ = 0.0, multiplyLookups_ = 0.0;
  double addHits_ = 0.0, addLookups_ = 0.0;
  double gateHits_ = 0.0, gateLookups_ = 0.0;
  double probeSteps_ = 0.0, uniqueLookups_ = 0.0;
  std::vector<double> gcRuns_, nodesAllocated_, realsInterned_;
  // ZX rule statistics.
  std::array<double, zx::kSimplifyRuleCount> ruleSeconds_{};
  double candidates_ = 0.0;
  std::vector<double> rewrites_;
  std::vector<double> spidersRemainingNeq_;
};

// --- workloads ---------------------------------------------------------------

[[nodiscard]] bool isTableWorkload(const std::string& name);
[[nodiscard]] Outcome runTableWorkload(const Options& options,
                                       TraceLog& trace);
[[nodiscard]] Outcome runServeWorkload(const Options& options,
                                       TraceLog& trace);

} // namespace veriqc::e2e

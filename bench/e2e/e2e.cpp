#include "e2e.hpp"

#include "check/report.hpp"
#include "sim/dense.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string_view>

namespace veriqc::e2e {

void Metrics::set(const std::string& name, const double value,
                  const std::string& unit) {
  for (auto& entry : entries_) {
    if (entry.name == name) {
      entry.value = value;
      entry.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

const Metrics::Entry* Metrics::find(const std::string& name) const {
  for (const auto& entry : entries_) {
    if (entry.name == name) {
      return &entry;
    }
  }
  return nullptr;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, const double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double geomean(const std::vector<double>& values) {
  double logSum = 0.0;
  std::size_t count = 0;
  for (const double v : values) {
    if (v > 0.0) {
      logSum += std::log(v);
      ++count;
    }
  }
  return count == 0 ? 0.0 : std::exp(logSum / static_cast<double>(count));
}

double peakRssMB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0; // ru_maxrss is KB
}

namespace {

/// True when `op` is the identity up to a global phase.
bool isPhaseOnly(const Operation& op) {
  Operation local = op;
  Qubit next = 0;
  for (auto& q : local.controls) {
    q = next++;
  }
  for (auto& q : local.targets) {
    q = next++;
  }
  QuantumCircuit single(next);
  single.append(std::move(local));
  const auto u = sim::circuitUnitary(single);
  return u.equalsUpToGlobalPhase(sim::Matrix::identity(u.dim()));
}

} // namespace

QuantumCircuit injectNonPhaseError(const QuantumCircuit& gPrime,
                                   const ErrorKind kind, std::uint64_t seed) {
  for (;; ++seed) {
    auto damaged = bench::injectError(gPrime, kind, seed);
    if (!damaged.has_value()) {
      throw std::runtime_error(gPrime.name() + ": no gate to inject \"" +
                               bench::toString(kind) + "\" into");
    }
    if (kind != ErrorKind::GateMissing) {
      return *std::move(damaged);
    }
    std::size_t removed = 0;
    while (removed < damaged->size() &&
           damaged->ops()[removed] == gPrime.ops()[removed]) {
      ++removed;
    }
    if (!isPhaseOnly(gPrime.ops()[removed])) {
      return *std::move(damaged);
    }
  }
}

check::Configuration ddConfiguration() {
  check::Configuration config;
  config.timeout = kCellTimeout;
  config.runAlternating = true;
  config.runSimulation = true;
  config.simulationRuns = 16;
  return config;
}

check::Configuration zxConfiguration() {
  check::Configuration config;
  config.timeout = kCellTimeout;
  return config;
}

namespace {

bool isFailure(const check::EquivalenceCriterion verdict) {
  using C = check::EquivalenceCriterion;
  return verdict == C::Timeout || verdict == C::Cancelled ||
         verdict == C::ResourceExhausted || verdict == C::EngineError ||
         verdict == C::NotRun;
}

} // namespace

Judgement judgeDD(const check::EquivalenceCriterion verdict,
                  const bool expectEquivalent) {
  Judgement j;
  j.failed = isFailure(verdict);
  const bool saysEquivalent = check::provedEquivalent(verdict);
  const bool saysNot = verdict == check::EquivalenceCriterion::NotEquivalent;
  j.decided = expectEquivalent ? saysEquivalent : saysNot;
  j.wrong = expectEquivalent ? saysNot : saysEquivalent;
  return j;
}

Judgement judgeZX(const check::EquivalenceCriterion verdict,
                  const bool expectEquivalent) {
  Judgement j;
  j.failed = isFailure(verdict);
  const bool saysEquivalent = check::provedEquivalent(verdict);
  j.decided = expectEquivalent && saysEquivalent;
  j.wrong = verdict == check::EquivalenceCriterion::NotEquivalent ||
            (!expectEquivalent && saysEquivalent);
  return j;
}

void emitEndToEnd(const EndToEndSamples& s, Outcome& out) {
  auto& m = out.metrics;
  m.set("t_dd_eq_ms", geomean(s.ddEq), "ms");
  m.set("t_dd_neq_ms", geomean(s.ddNeq), "ms");
  m.set("t_zx_eq_ms", geomean(s.zxEq), "ms");
  m.set("t_zx_neq_ms", geomean(s.zxNeq), "ms");
  m.set("dd_decided_share",
        ratio(static_cast<double>(s.ddDecided), static_cast<double>(s.ddCalls)),
        "1");
  m.set("zx_proved_share",
        ratio(static_cast<double>(s.zxProved),
              static_cast<double>(s.zxEqCalls)),
        "1");
  m.set("job_p50_ms", quantile(s.jobMs, 0.50), "ms");
  m.set("job_p99_ms", quantile(s.jobMs, 0.99), "ms");
  m.set("jobs_per_s", s.jobsPerSecond, "1/s");
  m.set("completed_share",
        1.0 - ratio(static_cast<double>(out.failed),
                    static_cast<double>(out.attempted)),
        "1");
  m.set("setup_s", median(s.setupSeconds), "s");
  m.set("peak_rss_mb", peakRssMB(), "MB");
}

std::size_t TraceLog::begin(const std::string& name, const std::string& id,
                            const std::size_t parent,
                            const Clock::time_point start, const int tid) {
  if (!enabled_) {
    return kNoParent;
  }
  const double startUs =
      std::chrono::duration<double, std::micro>(start - origin_).count();
  const support::LockGuard lock(mutex_);
  spans_.push_back({name, id, parent, tid, startUs, 0.0});
  return spans_.size() - 1;
}

void TraceLog::end(const std::size_t span, const Clock::time_point end) {
  if (span == kNoParent) {
    return;
  }
  const double endUs =
      std::chrono::duration<double, std::micro>(end - origin_).count();
  const support::LockGuard lock(mutex_);
  spans_[span].durationUs = endUs - spans_[span].startUs;
}

obs::Json TraceLog::toChromeJson() const {
  auto events = obs::Json::array();
  {
    const support::LockGuard lock(mutex_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& span = spans_[i];
      auto args = obs::Json::object();
      args["id"] = span.id;
      args["span"] = i;
      args["parent"] = span.parent == kNoParent
                           ? std::int64_t{-1}
                           : static_cast<std::int64_t>(span.parent);
      auto event = obs::Json::object();
      event["name"] = span.name;
      event["cat"] = "veriqc_e2e";
      event["ph"] = "X";
      event["ts"] = span.startUs;
      event["dur"] = span.durationUs;
      event["pid"] = 1;
      event["tid"] = span.tid;
      event["args"] = std::move(args);
      events.push_back(std::move(event));
    }
  }
  auto doc = obs::Json::object();
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = "ms";
  return doc;
}

namespace {

double counter(const obs::Json& record, const std::string& name) {
  const auto* counters = record.find("counters");
  const auto* value = counters != nullptr ? counters->find(name) : nullptr;
  return value != nullptr ? value->asDouble() : 0.0;
}

check::EquivalenceCriterion verdictOf(const obs::Json& record) {
  return check::criterionFromKey(record.at("verdict").asString())
      .value_or(check::EquivalenceCriterion::NoInformation);
}

bool startsWith(const std::string& s, const std::string_view prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

} // namespace

void LayerStats::addDDReport(const obs::Json& report,
                             const bool expectEquivalent) {
  const auto& combined = report.at("verdict");
  const obs::Json* alternating = nullptr;
  const obs::Json* simulation = nullptr;
  const obs::Json* decider = nullptr;
  const bool definitive = check::isDefinitive(verdictOf(combined));
  for (const auto& engine : report.at("engines").asArray()) {
    const auto& method = engine.at("method").asString();
    if (startsWith(method, "dd-alternating")) {
      alternating = &engine;
    } else if (startsWith(method, "dd-simulation")) {
      simulation = &engine;
    }
    if (definitive && method == combined.at("method").asString()) {
      decider = &engine;
    }
  }
  ++ddRuns_;
  if (decider != nullptr && decider == simulation) {
    ++simWins_;
  }
  if (alternating != nullptr && expectEquivalent &&
      check::provedEquivalent(verdictOf(*alternating))) {
    alternatingMs_.push_back(alternating->at("runtimeSeconds").asDouble() * 1e3);
    const auto& a = *alternating;
    nodesPeak_ = std::max(nodesPeak_, counter(a, "dd.nodes.peak"));
    multiplyHits_ += counter(a, "dd.multiply.hits");
    multiplyLookups_ += counter(a, "dd.multiply.lookups");
    addHits_ += counter(a, "dd.add.hits");
    addLookups_ += counter(a, "dd.add.lookups");
    gateHits_ += counter(a, "dd.gate_cache.hits");
    gateLookups_ += counter(a, "dd.gate_cache.lookups");
    probeSteps_ += counter(a, "dd.unique.probe_steps");
    uniqueLookups_ += counter(a, "dd.unique.lookups");
    gcRuns_.push_back(counter(a, "dd.gc.runs"));
    nodesAllocated_.push_back(counter(a, "dd.nodes.allocations"));
    realsInterned_.push_back(counter(a, "dd.reals.interned"));
  }
  if (!expectEquivalent && simulation != nullptr &&
      verdictOf(*simulation) == check::EquivalenceCriterion::NotEquivalent) {
    simulationMs_.push_back(simulation->at("runtimeSeconds").asDouble() * 1e3);
    stimuliPerNeq_.push_back(counter(*simulation, "sim.stimuli.performed"));
  }
  if (!expectEquivalent && decider != nullptr) {
    cancelWaitMs_.push_back(
        std::max(0.0, combined.at("runtimeSeconds").asDouble() -
                          decider->at("runtimeSeconds").asDouble()) *
        1e3);
  }
  for (const auto& phase : report.at("phases").asArray()) {
    const auto& name = phase.at("name").asString();
    const double ms = phase.at("durationSeconds").asDouble() * 1e3;
    if (name == "prepare") {
      prepareMs_.push_back(ms);
    } else if (name == "combine") {
      combineMs_.push_back(ms);
    }
  }
}

void LayerStats::addZXReport(const obs::Json& report,
                             const bool expectEquivalent) {
  const auto& engines = report.at("engines").asArray();
  const auto& record = engines.empty() ? report.at("verdict") : engines.front();
  const auto& zx = record.at("zx");
  for (const auto& rule : zx.at("rules").asArray()) {
    const auto& name = rule.at("rule").asString();
    for (std::size_t i = 0; i < zx::kSimplifyRuleCount; ++i) {
      if (name == zx::kSimplifyRuleNames[i]) {
        ruleSeconds_[i] += rule.at("seconds").asDouble();
      }
    }
    candidates_ += rule.at("candidates").asDouble();
  }
  rewrites_.push_back(zx.at("rewrites").asDouble());
  if (!expectEquivalent) {
    spidersRemainingNeq_.push_back(zx.at("remainingSpiders").asDouble());
  }
}

void LayerStats::emit(Metrics& m) const {
  m.set("check.alternating_ms", mean(alternatingMs_), "ms");
  m.set("check.simulation_ms", mean(simulationMs_), "ms");
  m.set("check.cancel_wait_ms", mean(cancelWaitMs_), "ms");
  m.set("check.sim_win_share",
        ratio(static_cast<double>(simWins_), static_cast<double>(ddRuns_)),
        "1");
  m.set("check.prepare_ms", mean(prepareMs_), "ms");
  m.set("check.combine_ms", mean(combineMs_), "ms");
  m.set("sim.stimuli_per_neq", mean(stimuliPerNeq_), "count");
  m.set("dd.nodes_peak", nodesPeak_, "count");
  m.set("dd.multiply_hit_rate", ratio(multiplyHits_, multiplyLookups_), "1");
  m.set("dd.add_hit_rate", ratio(addHits_, addLookups_), "1");
  m.set("dd.gate_cache_hit_rate", ratio(gateHits_, gateLookups_), "1");
  m.set("dd.unique_probe_len", ratio(probeSteps_, uniqueLookups_), "1");
  m.set("dd.gc_runs", mean(gcRuns_), "count");
  m.set("dd.nodes_allocated", mean(nodesAllocated_), "count");
  m.set("dd.reals_interned", mean(realsInterned_), "count");
  const double ruleTotal =
      std::accumulate(ruleSeconds_.begin(), ruleSeconds_.end(), 0.0);
  for (std::size_t i = 0; i < zx::kSimplifyRuleCount; ++i) {
    m.set(std::string("zx.rule.") + zx::kSimplifyRuleNames[i] + ".share",
          ratio(ruleSeconds_[i], ruleTotal), "1");
  }
  const double rewriteTotal =
      std::accumulate(rewrites_.begin(), rewrites_.end(), 0.0);
  m.set("zx.candidates_per_rewrite", ratio(candidates_, rewriteTotal), "1");
  m.set("zx.rewrites", mean(rewrites_), "count");
  m.set("zx.spiders_remaining_neq", mean(spidersRemainingNeq_), "count");
}

} // namespace veriqc::e2e

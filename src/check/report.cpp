#include "check/report.hpp"

#include "fault/fault.hpp"

#include <array>
#include <fstream>
#include <utility>

namespace veriqc::check {

namespace {

/// Key table in enum order; criterionKey/criterionFromKey are generated from
/// this single source so the two directions cannot drift apart.
constexpr std::array<std::pair<EquivalenceCriterion, const char*>, 10>
    kCriterionKeys = {{
        {EquivalenceCriterion::Equivalent, "equivalent"},
        {EquivalenceCriterion::EquivalentUpToGlobalPhase,
         "equivalent_up_to_global_phase"},
        {EquivalenceCriterion::NotEquivalent, "not_equivalent"},
        {EquivalenceCriterion::ProbablyEquivalent, "probably_equivalent"},
        {EquivalenceCriterion::NoInformation, "no_information"},
        {EquivalenceCriterion::Timeout, "timeout"},
        {EquivalenceCriterion::Cancelled, "cancelled"},
        {EquivalenceCriterion::ResourceExhausted, "resource_exhausted"},
        {EquivalenceCriterion::EngineError, "engine_error"},
        {EquivalenceCriterion::NotRun, "not_run"},
    }};

obs::Json serializeCacheStats(const dd::CacheStats& stats) {
  auto j = obs::Json::object();
  j["lookups"] = stats.lookups;
  j["hits"] = stats.hits;
  j["hitRate"] = stats.hitRate();
  j["collisions"] = stats.collisions;
  j["inserts"] = stats.inserts;
  j["invalidations"] = stats.invalidations;
  return j;
}

obs::Json serializeConfiguration(const Configuration& config) {
  auto j = obs::Json::object();
  j["numericalTolerance"] = config.numericalTolerance;
  j["checkTolerance"] = config.checkTolerance;
  j["oracle"] = toString(config.oracle);
  j["reconstructSwaps"] = config.reconstructSwaps;
  j["simulationRuns"] = config.simulationRuns;
  j["stimuliKind"] = sim::toString(config.stimuliKind);
  j["seed"] = static_cast<std::int64_t>(config.seed);
  j["timeoutMilliseconds"] =
      static_cast<std::int64_t>(config.timeout.count());
  j["runAlternating"] = config.runAlternating;
  j["runSimulation"] = config.runSimulation;
  j["runZX"] = config.runZX;
  j["zxGadgetRules"] = config.zxGadgetRules;
  j["zxPhaseSnapTolerance"] = config.zxPhaseSnapTolerance;
  j["parallel"] = config.parallel;
  j["runDense"] = config.runDense;
  j["denseMaxQubits"] = config.denseMaxQubits;
  j["maxDDNodes"] = config.maxDDNodes;
  j["maxZXVertices"] = config.maxZXVertices;
  j["maxMemoryMB"] = config.maxMemoryMB;
  j["recordTrace"] = config.recordTrace;
  j["auditLevel"] = static_cast<std::int64_t>(config.auditLevel);
  j["faultPlan"] = config.faultPlan;
  j["engineRetryLimit"] = config.engineRetryLimit;
  j["aggressiveGC"] = config.aggressiveGC;
  return j;
}

obs::Json serializeAttempt(const AttemptRecord& attempt) {
  auto j = obs::Json::object();
  j["engine"] = attempt.engine;
  j["attempt"] = attempt.attempt;
  j["degradation"] = attempt.degradation;
  j["criterion"] = attempt.criterion;
  j["runtimeSeconds"] = attempt.runtimeSeconds;
  j["errorMessage"] = attempt.errorMessage;
  return j;
}

/// Validation helpers: each records problems into `errors` with a JSON-ish
/// path prefix so a failing report pinpoints the offending field.
void requireKind(const obs::Json& value, const obs::Json::Kind kind,
                 const std::string& path, std::vector<std::string>& errors) {
  const auto name = [](const obs::Json::Kind k) {
    switch (k) {
    case obs::Json::Kind::Null:
      return "null";
    case obs::Json::Kind::Boolean:
      return "boolean";
    case obs::Json::Kind::Integer:
      return "integer";
    case obs::Json::Kind::Double:
      return "number";
    case obs::Json::Kind::String:
      return "string";
    case obs::Json::Kind::Array:
      return "array";
    case obs::Json::Kind::Object:
      return "object";
    }
    return "?";
  };
  const bool ok = kind == obs::Json::Kind::Double
                      ? value.isNumber() // integers satisfy "number"
                      : value.kind() == kind;
  if (!ok) {
    errors.push_back(path + ": expected " + name(kind) + ", got " +
                     name(value.kind()));
  }
}

const obs::Json* requireMember(const obs::Json& object,
                               const std::string& path, const char* key,
                               const obs::Json::Kind kind,
                               std::vector<std::string>& errors) {
  if (!object.isObject()) {
    return nullptr;
  }
  const auto* member = object.find(key);
  if (member == nullptr) {
    errors.push_back(path + ": missing required key \"" + key + "\"");
    return nullptr;
  }
  requireKind(*member, kind, path + "." + key, errors);
  return member;
}

void validateEngineRecord(const obs::Json& record, const std::string& path,
                          std::vector<std::string>& errors) {
  requireKind(record, obs::Json::Kind::Object, path, errors);
  if (!record.isObject()) {
    return;
  }
  using K = obs::Json::Kind;
  if (const auto* verdict =
          requireMember(record, path, "verdict", K::String, errors);
      verdict != nullptr && verdict->isString() &&
      !criterionFromKey(verdict->asString()).has_value()) {
    errors.push_back(path + ".verdict: unknown verdict key \"" +
                     verdict->asString() + "\"");
  }
  requireMember(record, path, "method", K::String, errors);
  requireMember(record, path, "runtimeSeconds", K::Double, errors);
  requireMember(record, path, "performedSimulations", K::Integer, errors);
  requireMember(record, path, "hilbertSchmidtFidelity", K::Double, errors);
  requireMember(record, path, "counterexampleStimulus", K::Integer, errors);
  requireMember(record, path, "errorMessage", K::String, errors);
  if (const auto* zx = requireMember(record, path, "zx", K::Object, errors);
      zx != nullptr && zx->isObject()) {
    requireMember(*zx, path + ".zx", "rewrites", K::Integer, errors);
    requireMember(*zx, path + ".zx", "remainingSpiders", K::Integer, errors);
    if (const auto* rules =
            requireMember(*zx, path + ".zx", "rules", K::Array, errors);
        rules != nullptr && rules->isArray()) {
      for (std::size_t i = 0; i < rules->size(); ++i) {
        const auto rulePath =
            path + ".zx.rules[" + std::to_string(i) + "]";
        const auto& rule = rules->asArray()[i];
        requireKind(rule, K::Object, rulePath, errors);
        if (rule.isObject()) {
          requireMember(rule, rulePath, "rule", K::String, errors);
          requireMember(rule, rulePath, "candidates", K::Integer, errors);
          requireMember(rule, rulePath, "matches", K::Integer, errors);
          requireMember(rule, rulePath, "rewrites", K::Integer, errors);
          requireMember(rule, rulePath, "seconds", K::Double, errors);
        }
      }
    }
  }
  if (const auto* dd = requireMember(record, path, "dd", K::Object, errors);
      dd != nullptr && dd->isObject()) {
    requireMember(*dd, path + ".dd", "peakNodes", K::Integer, errors);
    for (const char* cache : {"computeCache", "gateCache"}) {
      if (const auto* stats =
              requireMember(*dd, path + ".dd", cache, K::Object, errors);
          stats != nullptr && stats->isObject()) {
        const auto cachePath = path + ".dd." + cache;
        requireMember(*stats, cachePath, "lookups", K::Integer, errors);
        requireMember(*stats, cachePath, "hits", K::Integer, errors);
        requireMember(*stats, cachePath, "hitRate", K::Double, errors);
        requireMember(*stats, cachePath, "collisions", K::Integer, errors);
        requireMember(*stats, cachePath, "inserts", K::Integer, errors);
        requireMember(*stats, cachePath, "invalidations", K::Integer,
                      errors);
      }
    }
  }
  if (const auto* trace =
          requireMember(record, path, "sizeTrace", K::Array, errors);
      trace != nullptr && trace->isArray()) {
    for (std::size_t i = 0; i < trace->size(); ++i) {
      requireKind(trace->asArray()[i], K::Integer,
                  path + ".sizeTrace[" + std::to_string(i) + "]", errors);
    }
  }
  if (const auto* counters =
          requireMember(record, path, "counters", K::Object, errors);
      counters != nullptr && counters->isObject()) {
    for (const auto& [name, value] : counters->asObject()) {
      requireKind(value, K::Double, path + ".counters." + name, errors);
    }
  }
  // Degradation-ladder fields are optional (reports predating the ladder
  // lack them) but type-checked when present.
  if (const auto* degradation = record.find("degradation");
      degradation != nullptr) {
    requireKind(*degradation, K::String, path + ".degradation", errors);
  }
  if (const auto* attempts = record.find("attempts"); attempts != nullptr) {
    requireKind(*attempts, K::Array, path + ".attempts", errors);
    if (attempts->isArray()) {
      for (std::size_t i = 0; i < attempts->size(); ++i) {
        const auto attemptPath = path + ".attempts[" + std::to_string(i) + "]";
        const auto& attempt = attempts->asArray()[i];
        requireKind(attempt, K::Object, attemptPath, errors);
        if (attempt.isObject()) {
          requireMember(attempt, attemptPath, "engine", K::String, errors);
          requireMember(attempt, attemptPath, "attempt", K::Integer, errors);
          requireMember(attempt, attemptPath, "degradation", K::String,
                        errors);
          requireMember(attempt, attemptPath, "criterion", K::String, errors);
          requireMember(attempt, attemptPath, "runtimeSeconds", K::Double,
                        errors);
          requireMember(attempt, attemptPath, "errorMessage", K::String,
                        errors);
        }
      }
    }
  }
}

} // namespace

std::string criterionKey(const EquivalenceCriterion criterion) {
  for (const auto& [value, key] : kCriterionKeys) {
    if (value == criterion) {
      return key;
    }
  }
  return "unknown";
}

obs::Json serializeCounters(const obs::CounterRegistry& counters) {
  auto j = obs::Json::object();
  // entries() is a std::map, so the member order is sorted and stable.
  for (const auto& [name, counter] : counters.entries()) {
    j[name] = counter.value;
  }
  return j;
}

std::optional<EquivalenceCriterion> criterionFromKey(std::string_view key) {
  for (const auto& [value, name] : kCriterionKeys) {
    if (key == name) {
      return value;
    }
  }
  return std::nullopt;
}

obs::Json serializeResult(const Result& result) {
  auto j = obs::Json::object();
  j["method"] = result.method;
  j["verdict"] = criterionKey(result.criterion);
  j["runtimeSeconds"] = result.runtimeSeconds;
  j["performedSimulations"] = result.performedSimulations;
  j["hilbertSchmidtFidelity"] = result.hilbertSchmidtFidelity;
  j["counterexampleStimulus"] = result.counterexampleStimulus;
  j["errorMessage"] = result.errorMessage;
  auto zx = obs::Json::object();
  zx["rewrites"] = result.rewrites;
  zx["remainingSpiders"] = result.remainingSpiders;
  auto rules = obs::Json::array();
  for (const auto& stat : result.zxRuleStats) {
    auto rule = obs::Json::object();
    rule["rule"] = stat.rule;
    rule["candidates"] = stat.candidates;
    rule["matches"] = stat.matches;
    rule["rewrites"] = stat.rewrites;
    rule["seconds"] = stat.seconds;
    rules.push_back(std::move(rule));
  }
  zx["rules"] = std::move(rules);
  j["zx"] = std::move(zx);
  auto dd = obs::Json::object();
  dd["peakNodes"] = result.peakNodes;
  dd["computeCache"] = serializeCacheStats(result.computeCacheStats);
  dd["gateCache"] = serializeCacheStats(result.gateCacheStats);
  j["dd"] = std::move(dd);
  auto trace = obs::Json::array();
  for (const auto size : result.sizeTrace) {
    trace.push_back(size);
  }
  j["sizeTrace"] = std::move(trace);
  j["counters"] = serializeCounters(result.counters);
  // Ladder fields are additive and only-when-present: records of runs that
  // settled on the first attempt stay identical to pre-ladder reports.
  if (!result.degradation.empty()) {
    j["degradation"] = result.degradation;
  }
  if (!result.attempts.empty()) {
    auto attempts = obs::Json::array();
    for (const auto& attempt : result.attempts) {
      attempts.push_back(serializeAttempt(attempt));
    }
    j["attempts"] = std::move(attempts);
  }
  return j;
}

obs::Json buildRunReport(const Result& combined,
                         const std::vector<Result>& engines,
                         const Configuration& config,
                         const std::vector<obs::PhaseSpan>& phases) {
  // Reporting is the last failure domain of a run: a throw here must lose
  // only the report, never the verdict the caller already holds.
  VERIQC_FAULT_POINT(fault::points::kCheckReport, fault::FaultKind::Runtime);
  auto report = obs::Json::object();
  report["schema"] = kReportSchemaId;
  report["generator"] = "veriqc";
  report["configuration"] = serializeConfiguration(config);
  report["verdict"] = serializeResult(combined);
  auto engineArray = obs::Json::array();
  // The top-level counters are the run-wide totals: the manager's own
  // counters plus every engine's, each counted once (Sum counters add up,
  // Max counters take the run-wide maximum). The per-engine view is each
  // engine record's own counters object.
  obs::CounterRegistry aggregated;
  aggregated.merge(combined.counters);
  for (const auto& result : engines) {
    engineArray.push_back(serializeResult(result));
    aggregated.merge(result.counters);
  }
  report["engines"] = std::move(engineArray);
  auto phaseArray = obs::Json::array();
  for (const auto& span : phases) {
    auto phase = obs::Json::object();
    phase["name"] = span.name;
    phase["startSeconds"] = span.startSeconds;
    phase["durationSeconds"] = span.durationSeconds;
    phaseArray.push_back(std::move(phase));
  }
  report["phases"] = std::move(phaseArray);
  report["counters"] = serializeCounters(aggregated);
  auto resources = obs::Json::object();
  resources["peakResidentSetKB"] = combined.peakResidentSetKB;
  resources["processPeakResidentSetKB"] = combined.processPeakResidentSetKB;
  auto limited = obs::Json::array();
  for (const auto& engine : combined.resourceLimitedEngines) {
    limited.push_back(engine);
  }
  resources["resourceLimitedEngines"] = std::move(limited);
  report["resources"] = std::move(resources);
  return report;
}

obs::Json buildRunReport(const EquivalenceCheckingManager& manager,
                         const Result& combined, const Configuration& config) {
  return buildRunReport(combined, manager.engineResults(), config,
                        manager.phases().spans());
}

std::vector<std::string> validateRunReport(const obs::Json& report) {
  std::vector<std::string> errors;
  using K = obs::Json::Kind;
  requireKind(report, K::Object, "$", errors);
  if (!report.isObject()) {
    return errors;
  }
  if (const auto* schema =
          requireMember(report, "$", "schema", K::String, errors);
      schema != nullptr && schema->isString() &&
      schema->asString() != kReportSchemaId) {
    errors.push_back("$.schema: expected \"" + std::string(kReportSchemaId) +
                     "\", got \"" + schema->asString() + "\"");
  }
  requireMember(report, "$", "generator", K::String, errors);
  requireMember(report, "$", "configuration", K::Object, errors);
  if (const auto* verdict =
          requireMember(report, "$", "verdict", K::Object, errors);
      verdict != nullptr) {
    validateEngineRecord(*verdict, "$.verdict", errors);
  }
  if (const auto* engines =
          requireMember(report, "$", "engines", K::Array, errors);
      engines != nullptr && engines->isArray()) {
    for (std::size_t i = 0; i < engines->size(); ++i) {
      validateEngineRecord(engines->asArray()[i],
                           "$.engines[" + std::to_string(i) + "]", errors);
    }
  }
  if (const auto* phases =
          requireMember(report, "$", "phases", K::Array, errors);
      phases != nullptr && phases->isArray()) {
    for (std::size_t i = 0; i < phases->size(); ++i) {
      const auto path = "$.phases[" + std::to_string(i) + "]";
      const auto& span = phases->asArray()[i];
      requireKind(span, K::Object, path, errors);
      if (span.isObject()) {
        requireMember(span, path, "name", K::String, errors);
        requireMember(span, path, "startSeconds", K::Double, errors);
        requireMember(span, path, "durationSeconds", K::Double, errors);
      }
    }
  }
  if (const auto* counters =
          requireMember(report, "$", "counters", K::Object, errors);
      counters != nullptr && counters->isObject()) {
    for (const auto& [name, value] : counters->asObject()) {
      requireKind(value, K::Double, "$.counters." + name, errors);
    }
  }
  if (const auto* resources =
          requireMember(report, "$", "resources", K::Object, errors);
      resources != nullptr && resources->isObject()) {
    requireMember(*resources, "$.resources", "peakResidentSetKB", K::Integer,
                  errors);
    // Additive within v1 (older reports lack it): type-checked when present.
    if (const auto* processPeak =
            resources->find("processPeakResidentSetKB");
        processPeak != nullptr) {
      requireKind(*processPeak, K::Integer,
                  "$.resources.processPeakResidentSetKB", errors);
    }
    if (const auto* limited =
            requireMember(*resources, "$.resources",
                          "resourceLimitedEngines", K::Array, errors);
        limited != nullptr && limited->isArray()) {
      for (std::size_t i = 0; i < limited->size(); ++i) {
        requireKind(limited->asArray()[i], K::String,
                    "$.resources.resourceLimitedEngines[" +
                        std::to_string(i) + "]",
                    errors);
      }
    }
  }
  // The veriqcd front-end attaches a "job" object naming the submitted job
  // and its admission outcome. Optional (CLI reports lack it) but fully
  // shape-checked when present.
  if (const auto* job = report.find("job"); job != nullptr) {
    requireKind(*job, K::Object, "$.job", errors);
    if (job->isObject()) {
      requireMember(*job, "$.job", "id", K::String, errors);
      requireMember(*job, "$.job", "admitted", K::Boolean, errors);
      requireMember(*job, "$.job", "reason", K::String, errors);
      requireMember(*job, "$.job", "detail", K::String, errors);
    }
  }
  return errors;
}

void writeRunReport(const obs::Json& report, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("cannot open report file for writing: " + path);
  }
  out << report.dump(2) << '\n';
  if (!out) {
    throw std::runtime_error("failed writing report file: " + path);
  }
}

} // namespace veriqc::check

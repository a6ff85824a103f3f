#include "check/result.hpp"

#include <iomanip>
#include <sstream>

namespace veriqc::check {

std::string toString(const EquivalenceCriterion criterion) {
  switch (criterion) {
  case EquivalenceCriterion::Equivalent:
    return "equivalent";
  case EquivalenceCriterion::EquivalentUpToGlobalPhase:
    return "equivalent up to global phase";
  case EquivalenceCriterion::NotEquivalent:
    return "not equivalent";
  case EquivalenceCriterion::ProbablyEquivalent:
    return "probably equivalent";
  case EquivalenceCriterion::NoInformation:
    return "no information";
  case EquivalenceCriterion::Timeout:
    return "timeout";
  case EquivalenceCriterion::Cancelled:
    return "cancelled";
  case EquivalenceCriterion::ResourceExhausted:
    return "resource exhausted";
  case EquivalenceCriterion::EngineError:
    return "engine error";
  case EquivalenceCriterion::NotRun:
    return "not run";
  }
  return "unknown";
}

std::chrono::steady_clock::time_point
deadlineFor(const Configuration& config,
            const std::chrono::steady_clock::time_point start) {
  using TimePoint = std::chrono::steady_clock::time_point;
  // Compare in milliseconds: converting the timeout to the clock's
  // nanoseconds first could itself overflow.
  const auto room = std::chrono::duration_cast<std::chrono::milliseconds>(
      TimePoint::max() - start);
  if (config.timeout.count() <= 0 || config.timeout >= room) {
    return TimePoint::max();
  }
  return start + config.timeout;
}

std::string toString(const OracleStrategy strategy) {
  switch (strategy) {
  case OracleStrategy::Naive:
    return "naive";
  case OracleStrategy::Proportional:
    return "proportional";
  case OracleStrategy::Lookahead:
    return "lookahead";
  }
  return "unknown";
}

std::string Result::zxRuleDigest() const {
  std::ostringstream os;
  bool first = true;
  for (const auto& rule : zxRuleStats) {
    if (!first) {
      os << "; ";
    }
    first = false;
    os << rule.rule << " r" << rule.rewrites << "/m" << rule.matches << "/c"
       << rule.candidates << " " << std::fixed << std::setprecision(2)
       << rule.seconds * 1e3 << "ms";
  }
  return os.str();
}

std::string Result::toString() const {
  std::ostringstream os;
  os << veriqc::check::toString(criterion) << " [" << method << ", "
     << runtimeSeconds << " s";
  if (performedSimulations > 0) {
    os << ", " << performedSimulations << " simulations";
  }
  if (hilbertSchmidtFidelity >= 0.0) {
    os << ", HS fidelity " << hilbertSchmidtFidelity;
  }
  if (counterexampleStimulus >= 0) {
    os << ", counterexample stimulus #" << counterexampleStimulus;
  }
  if (rewrites > 0) {
    os << ", " << rewrites << " rewrites";
  }
  if (!zxRuleStats.empty()) {
    os << ", zx rules {" << zxRuleDigest() << "}";
  }
  if (computeCacheStats.lookups > 0) {
    os << ", compute-cache hit rate " << computeCacheStats.hitRate();
  }
  if (gateCacheStats.lookups > 0) {
    os << ", gate-cache hit rate " << gateCacheStats.hitRate();
  }
  if (!errorMessage.empty()) {
    os << ", error: " << errorMessage;
  }
  if (!resourceLimitedEngines.empty()) {
    os << ", resource-limited engines:";
    for (const auto& engine : resourceLimitedEngines) {
      os << " " << engine;
    }
  }
  os << "]";
  return os.str();
}

} // namespace veriqc::check

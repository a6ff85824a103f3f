#include "serve/job.hpp"

#include "audit/finding.hpp"
#include "obs/json.hpp"

#include <chrono>
#include <functional>
#include <unordered_map>

namespace veriqc::serve {

namespace {

/// Thrown internally by the config appliers; converted to a
/// MalformedRequest rejection before parseJobLine returns.
struct ProtocolError {
  std::string detail;
};

std::size_t asSize(const obs::Json& value, const std::string& key) {
  if (!value.isInteger() || value.asInt() < 0) {
    throw ProtocolError{"config." + key + ": expected a non-negative integer"};
  }
  return static_cast<std::size_t>(value.asInt());
}

bool asBool(const obs::Json& value, const std::string& key) {
  if (!value.isBool()) {
    throw ProtocolError{"config." + key + ": expected a boolean"};
  }
  return value.asBool();
}

const std::string& asString(const obs::Json& value, const std::string& key) {
  if (!value.isString()) {
    throw ProtocolError{"config." + key + ": expected a string"};
  }
  return value.asString();
}

/// Apply one whitelisted config key to the job's configuration. Every knob a
/// client may set is listed here; anything else is a protocol error.
void applyConfigKey(check::Configuration& config, const std::string& key,
                    const obs::Json& value) {
  using check::OracleStrategy;
  if (key == "timeoutMilliseconds") {
    config.timeout = std::chrono::milliseconds(
        static_cast<std::int64_t>(asSize(value, key)));
  } else if (key == "simulationRuns") {
    config.simulationRuns = asSize(value, key);
  } else if (key == "seed") {
    config.seed = static_cast<std::uint64_t>(asSize(value, key));
  } else if (key == "runAlternating") {
    config.runAlternating = asBool(value, key);
  } else if (key == "runSimulation") {
    config.runSimulation = asBool(value, key);
  } else if (key == "runZX") {
    config.runZX = asBool(value, key);
  } else if (key == "runDense") {
    config.runDense = asBool(value, key);
  } else if (key == "parallel") {
    config.parallel = asBool(value, key);
  } else if (key == "maxDDNodes") {
    config.maxDDNodes = asSize(value, key);
  } else if (key == "maxZXVertices") {
    config.maxZXVertices = asSize(value, key);
  } else if (key == "maxMemoryMB") {
    config.maxMemoryMB = asSize(value, key);
  } else if (key == "engineRetryLimit") {
    config.engineRetryLimit = asSize(value, key);
  } else if (key == "recordTrace") {
    config.recordTrace = asBool(value, key);
  } else if (key == "auditLevel") {
    // Bounded before the narrowing cast: a wrapped value could turn a
    // requested audit into none.
    const auto level = asSize(value, key);
    if (level > static_cast<std::size_t>(audit::kAuditEveryCheckpoint)) {
      throw ProtocolError{"config.auditLevel: expected 0, 1 or 2"};
    }
    config.auditLevel = static_cast<int>(level);
  } else if (key == "faultPlan") {
    config.faultPlan = asString(value, key);
  } else if (key == "oracle") {
    const auto& name = asString(value, key);
    if (name == "naive") {
      config.oracle = OracleStrategy::Naive;
    } else if (name == "proportional") {
      config.oracle = OracleStrategy::Proportional;
    } else if (name == "lookahead") {
      config.oracle = OracleStrategy::Lookahead;
    } else {
      throw ProtocolError{"config.oracle: unknown strategy \"" + name + "\""};
    }
  } else {
    // Strict whitelist: silently ignoring a typo'd budget key would run an
    // unbudgeted check — fail the job instead.
    throw ProtocolError{"config." + key + ": unknown configuration key"};
  }
}

const std::string& requireString(const obs::Json& object, const char* key) {
  const auto* member = object.find(key);
  if (member == nullptr) {
    throw ProtocolError{std::string("missing required key \"") + key + "\""};
  }
  if (!member->isString() || member->asString().empty()) {
    throw ProtocolError{std::string("\"") + key +
                        "\": expected a non-empty string"};
  }
  return member->asString();
}

} // namespace

std::string toString(const RejectReason reason) {
  switch (reason) {
  case RejectReason::None:
    return "";
  case RejectReason::MalformedRequest:
    return "malformed_request";
  case RejectReason::OversizedRequest:
    return "oversized_request";
  case RejectReason::QueueFull:
    return "queue_full";
  case RejectReason::MemoryBudget:
    return "memory_budget";
  case RejectReason::BudgetExceedsLimit:
    return "budget_exceeds_limit";
  case RejectReason::FaultPlanForbidden:
    return "fault_plan_forbidden";
  case RejectReason::ShuttingDown:
    return "shutting_down";
  }
  return "unknown";
}

ParsedJob parseJobLine(const std::string_view line,
                       const check::Configuration& defaults) {
  ParsedJob parsed;
  parsed.request.config = defaults;
  const auto reject = [&parsed](std::string detail) {
    parsed.reason = RejectReason::MalformedRequest;
    parsed.detail = std::move(detail);
    return parsed;
  };
  obs::Json job;
  try {
    job = obs::Json::parse(line);
  } catch (const obs::JsonError& e) {
    return reject(std::string("invalid JSON: ") + e.what());
  }
  if (!job.isObject()) {
    return reject("expected a JSON object per line");
  }
  try {
    parsed.request.id = requireString(job, "id");
    parsed.request.file1 = requireString(job, "file1");
    parsed.request.file2 = requireString(job, "file2");
    for (const auto& [key, value] : job.asObject()) {
      if (key == "id" || key == "file1" || key == "file2") {
        continue;
      }
      if (key != "config") {
        throw ProtocolError{"\"" + key + "\": unknown request key"};
      }
      if (!value.isObject()) {
        throw ProtocolError{"\"config\": expected an object"};
      }
      for (const auto& [configKey, configValue] : value.asObject()) {
        applyConfigKey(parsed.request.config, configKey, configValue);
      }
    }
  } catch (const ProtocolError& e) {
    // Keep whatever id survived parsing so the rejection line still names
    // the job when possible.
    return reject(e.detail);
  }
  return parsed;
}

} // namespace veriqc::serve

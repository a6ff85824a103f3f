/// \file check_qasm.cpp
/// \brief Command-line equivalence checker for OpenQASM 2.0 files —
///        the "few lines of code" out-of-the-box usage of Sec. 6.
///
/// Usage: check_qasm <a.qasm> <b.qasm> [--method dd|zx|both]
///                   [--timeout <seconds>] [--sims <n>]
///                   [--json <path>] [--trace]
///                   [--retries <n>] [--fault-plan <plan>]
///        check_qasm --validate-report <path>
///
/// Exit code: 0 = equivalent, 1 = not equivalent, 2 = undecided, 3 = error.
#include "check/manager.hpp"
#include "check/report.hpp"
#include "numeric_flag.hpp"
#include "obs/json.hpp"
#include "obs/phase_timer.hpp"
#include "qasm/parser.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

namespace {

void usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s <a.qasm> <b.qasm> [--method dd|zx|both] "
               "[--timeout <seconds>] [--sims <n>] [--json <path>] "
               "[--trace] [--retries <n>] [--fault-plan <plan>]\n"
               "       %s --validate-report <path>\n",
               prog, prog);
}

/// Parse and schema-check an existing veriqc-report/v1 file. Exit code 0 on
/// a valid report, 3 otherwise — this is what lets the bench harness (and
/// any CI consumer) assert report integrity without a JSON toolchain.
int validateReportFile(const char* path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", path);
    return 3;
  }
  std::ostringstream text;
  text << in.rdbuf();
  try {
    const auto report = veriqc::obs::Json::parse(text.str());
    const auto problems = veriqc::check::validateRunReport(report);
    if (!problems.empty()) {
      for (const auto& problem : problems) {
        std::fprintf(stderr, "invalid report: %s\n", problem.c_str());
      }
      return 3;
    }
  } catch (const veriqc::obs::JsonError& e) {
    std::fprintf(stderr, "invalid report: %s\n", e.what());
    return 3;
  }
  std::printf("%s: valid %s\n", path,
              std::string(veriqc::check::kReportSchemaId).c_str());
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  using namespace veriqc;
  if (argc == 3 && std::strcmp(argv[1], "--validate-report") == 0) {
    return validateReportFile(argv[2]);
  }
  if (argc < 3) {
    usage(argv[0]);
    return 3;
  }
  std::string method = "both";
  std::string jsonPath;
  check::Configuration config;
  config.simulationRuns = 16;
  config.timeout = std::chrono::seconds(60);
  std::chrono::seconds::rep timeoutSeconds = 0;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--method") == 0 && i + 1 < argc) {
      method = argv[++i];
      if (method != "dd" && method != "zx" && method != "both") {
        usage(argv[0]);
        return 3;
      }
    } else if (std::strcmp(argv[i], "--timeout") == 0) {
      examples::readNumericFlag(i, argc, argv, timeoutSeconds, usage);
      // Saturate: seconds past the range of milliseconds overflow on
      // conversion.
      constexpr auto kMaxSeconds =
          std::chrono::duration_cast<std::chrono::seconds>(
              std::chrono::milliseconds::max())
              .count();
      config.timeout = timeoutSeconds >= kMaxSeconds
                           ? std::chrono::milliseconds::max()
                           : std::chrono::seconds(timeoutSeconds);
    } else if (std::strcmp(argv[i], "--sims") == 0) {
      examples::readNumericFlag(i, argc, argv, config.simulationRuns, usage);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      jsonPath = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      config.recordTrace = true;
    } else if (std::strcmp(argv[i], "--retries") == 0) {
      examples::readNumericFlag(i, argc, argv, config.engineRetryLimit, usage);
    } else if (std::strcmp(argv[i], "--fault-plan") == 0 && i + 1 < argc) {
      config.faultPlan = argv[++i];
    } else {
      usage(argv[0]);
      return 3;
    }
  }

  try {
    // One timer collects the frontend's parse phase together with the
    // manager's prepare/engine/combine spans, so the report's phase list
    // covers the whole invocation.
    obs::PhaseTimer phases;
    auto parseSpan = phases.scope("parse");
    const auto a = qasm::parseFile(argv[1]);
    const auto b = qasm::parseFile(argv[2]);
    parseSpan.finish();
    std::printf("%s: %zu qubits, %zu gates\n", argv[1], a.numQubits(),
                a.gateCount());
    std::printf("%s: %zu qubits, %zu gates\n", argv[2], b.numQubits(),
                b.gateCount());

    config.runAlternating = config.runSimulation = (method != "zx");
    config.runZX = (method == "zx" || method == "both");
    check::EquivalenceCheckingManager manager(a, b, config);
    manager.usePhaseTimer(&phases);
    const auto result = manager.run();
    std::printf("verdict: %s\n", result.toString().c_str());

    if (!jsonPath.empty()) {
      const auto report = check::buildRunReport(manager, result, config);
      check::writeRunReport(report, jsonPath);
      std::printf("report: %s\n", jsonPath.c_str());
    }

    if (check::provedEquivalent(result.criterion)) {
      return 0;
    }
    if (result.criterion == check::EquivalenceCriterion::NotEquivalent) {
      return 1;
    }
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 3;
  }
}

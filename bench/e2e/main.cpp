/// \file main.cpp
/// \brief veriqc_e2e: runs one workload of the end-to-end benchmark (or all
///        of them in --smoke mode) and prints every metric BENCHMARK.json
///        names, ending with one JSON result line.
///
///   veriqc_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
///              [--benchmark BENCHMARK.json] [--work-dir DIR]
///              [--out results.json] [--trace-out trace.json] [--commit REV]
///   veriqc_e2e --smoke [--benchmark BENCHMARK.json] [--work-dir DIR]
///
/// Exit status: 0 when every verdict matched its known answer and the
/// paper's shape held, 1 otherwise, 2 on usage or set-up errors.
#include "e2e.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#ifndef VERIQC_E2E_BUILD_TYPE
#define VERIQC_E2E_BUILD_TYPE "unknown"
#endif

namespace {

using namespace veriqc;
using namespace veriqc::e2e;

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// The metric and workload names of BENCHMARK.json: the single list the
/// result line must cover.
struct BenchmarkSpec {
  std::vector<std::string> workloads;
  std::vector<MetricSpec> endToEnd;
  std::vector<MetricSpec> perLayer;
};

BenchmarkSpec loadSpec(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  std::stringstream text;
  text << in.rdbuf();
  const auto doc = obs::Json::parse(text.str());
  BenchmarkSpec spec;
  for (const auto& w : doc.at("workloads").asArray()) {
    spec.workloads.push_back(w.at("name").asString());
  }
  const auto metrics = [&doc](const char* key) {
    std::vector<MetricSpec> out;
    for (const auto& m : doc.at(key).asArray()) {
      out.push_back({m.at("name").asString(), m.at("unit").asString()});
    }
    return out;
  };
  spec.endToEnd = metrics("end_to_end");
  spec.perLayer = metrics("per_layer");
  return spec;
}

Outcome runWorkload(const Options& options, TraceLog& trace) {
  return isTableWorkload(options.workload) ? runTableWorkload(options, trace)
                                           : runServeWorkload(options, trace);
}

/// Return the requested metrics as the result line's "metrics" object;
/// names the workload left unset are listed in `missing`.
obs::Json selectMetrics(const Outcome& outcome,
                        const std::vector<MetricSpec>& wanted,
                        std::vector<std::string>& missing) {
  auto selected = obs::Json::object();
  for (const auto& spec : wanted) {
    double value = 0.0;
    if (const auto* entry = outcome.metrics.find(spec.name)) {
      if (entry->unit != spec.unit) {
        missing.push_back(spec.name + " (unit " + entry->unit + ", not " +
                          spec.unit + ")");
      }
      value = entry->value;
    } else if (std::find(outcome.notApplicable.begin(),
                         outcome.notApplicable.end(),
                         spec.name) == outcome.notApplicable.end()) {
      missing.push_back(spec.name);
      continue;
    }
    auto metric = obs::Json::object();
    metric["value"] = value;
    metric["unit"] = spec.unit;
    selected[spec.name] = std::move(metric);
  }
  return selected;
}

void printMetrics(const std::string& workload, const Outcome& outcome) {
  std::printf("\nmetrics: %s\n", workload.c_str());
  for (const auto& entry : outcome.metrics.entries()) {
    std::printf("  %-28s %14.6g %s\n", entry.name.c_str(), entry.value,
                entry.unit.c_str());
  }
  for (const auto& name : outcome.notApplicable) {
    std::printf("  %-28s %14s (layer not exercised)\n", name.c_str(), "0");
  }
  std::printf("  attempted %zu, failed %zu\n", outcome.attempted,
              outcome.failed);
  for (const auto& problem : outcome.problems) {
    std::fprintf(stderr, "FAIL %s: %s\n", workload.c_str(), problem.c_str());
  }
}

void writeJson(const std::string& path, const obs::Json& doc) {
  if (path.empty()) {
    return;
  }
  std::ofstream out(path);
  out << doc.dump(1) << '\n';
  if (!out) {
    throw std::runtime_error("cannot write " + path);
  }
}

/// One instance per workload, one repetition, 20 jobs: the verdicts must be
/// right and every BENCHMARK.json metric must be produced.
int smoke(const BenchmarkSpec& spec, const Options& base) {
  bool ok = true;
  for (const auto& workload : spec.workloads) {
    Options options = base;
    options.workload = workload;
    options.smoke = true;
    options.trace = true;
    TraceLog trace(true);
    const auto outcome = runWorkload(options, trace);
    printMetrics(workload, outcome);
    std::vector<std::string> missing;
    std::ignore = selectMetrics(outcome, spec.endToEnd, missing);
    std::ignore = selectMetrics(outcome, spec.perLayer, missing);
    for (const auto& name : missing) {
      std::fprintf(stderr, "FAIL %s: metric %s not produced\n",
                   workload.c_str(), name.c_str());
    }
    ok = ok && missing.empty() && outcome.problems.empty() &&
         outcome.failed == 0;
  }
  std::printf("\ne2e smoke: %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

int run(int argc, char** argv) {
  Options options;
  std::string benchmarkPath = "BENCHMARK.json";
  std::string outPath;
  std::string traceOutPath;
  std::string commit = "unknown";
  bool smokeMode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument(arg + " needs a value");
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value());
    } else if (arg == "--trace") {
      options.trace = value() != "0";
    } else if (arg == "--smoke") {
      smokeMode = true;
    } else if (arg == "--benchmark") {
      benchmarkPath = value();
    } else if (arg == "--work-dir") {
      options.workDir = value();
    } else if (arg == "--out") {
      outPath = value();
    } else if (arg == "--trace-out") {
      traceOutPath = value();
    } else if (arg == "--commit") {
      commit = value();
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  const auto spec = loadSpec(benchmarkPath);
  if (smokeMode) {
    return smoke(spec, options);
  }
  if (std::find(spec.workloads.begin(), spec.workloads.end(),
                options.workload) == spec.workloads.end()) {
    throw std::invalid_argument("unknown workload \"" + options.workload +
                                "\"");
  }
  if (std::string(VERIQC_E2E_BUILD_TYPE) != "Release") {
    throw std::runtime_error(std::string("refusing to measure a ") +
                             VERIQC_E2E_BUILD_TYPE +
                             " build; configure with -DCMAKE_BUILD_TYPE=Release");
  }

  TraceLog trace(options.trace);
  const auto outcome = runWorkload(options, trace);
  printMetrics(options.workload, outcome);

  std::vector<std::string> missing;
  auto selected = selectMetrics(
      outcome, options.trace ? spec.perLayer : spec.endToEnd, missing);
  for (const auto& name : missing) {
    std::fprintf(stderr, "FAIL %s: metric %s not produced\n",
                 options.workload.c_str(), name.c_str());
  }
  const bool correct = outcome.problems.empty() && missing.empty();

  auto all = obs::Json::object();
  for (const auto& entry : outcome.metrics.entries()) {
    auto metric = obs::Json::object();
    metric["value"] = entry.value;
    metric["unit"] = entry.unit;
    all[entry.name] = std::move(metric);
  }
  auto problems = obs::Json::array();
  for (const auto& problem : outcome.problems) {
    problems.push_back(problem);
  }
  auto doc = obs::Json::object();
  doc["schema"] = "veriqc-e2e/v1";
  doc["workload"] = options.workload;
  doc["seed"] = static_cast<std::int64_t>(options.seed);
  doc["seconds"] = options.seconds;
  doc["trace"] = options.trace;
  doc["build_type"] = VERIQC_E2E_BUILD_TYPE;
  doc["nproc"] = static_cast<std::size_t>(std::thread::hardware_concurrency());
  doc["commit"] = commit;
  doc["correct"] = correct;
  doc["attempted"] = outcome.attempted;
  doc["failed"] = outcome.failed;
  doc["problems"] = std::move(problems);
  doc["metrics"] = std::move(all);
  doc["rows"] = outcome.rows;
  writeJson(outPath, doc);
  if (options.trace) {
    writeJson(traceOutPath, trace.toChromeJson());
  }

  auto line = obs::Json::object();
  line["correct"] = correct;
  line["attempted"] = outcome.attempted;
  line["failed"] = outcome.failed;
  line["metrics"] = std::move(selected);
  std::printf("%s\n", line.dump().c_str());
  return correct ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "veriqc_e2e: %s\n", e.what());
    return 2;
  }
}

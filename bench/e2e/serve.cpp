/// \file serve.cpp
/// \brief The serve_mixed workload: one closed-loop client keeps four jobs
///        outstanding against serve::JobService, drawing jobs in a seeded
///        order from QASM pairs written at set-up, each checked with the
///        t_dd or the t_zx configuration.
#include "e2e.hpp"

#include "check/report.hpp"
#include "circuits/benchmarks.hpp"
#include "compile/decompose.hpp"
#include "opt/optimizer.hpp"
#include "qasm/parser.hpp"
#include "qasm/writer.hpp"
#include "serve/service.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <random>

namespace veriqc::e2e {

namespace {

constexpr std::size_t kOutstanding = 4;
constexpr std::size_t kSmokeJobs = 20;
/// Error-injection seed of the first circuit (fixed, as in the table
/// workloads: the error position moves ZX times by up to 8x).
constexpr std::uint64_t kServeErrorSeed = 3000;

struct Pair {
  std::string label; ///< "<instance>/<configuration>"
  ErrorKind kind = ErrorKind::None;
  std::string file1;
  std::string file2;
  bool expectEquivalent = true;
  std::size_t n = 0;
  std::size_t gates1 = 0;
  std::size_t gates2 = 0;
};

/// A job kind: one pair checked with the t_dd or the t_zx configuration.
struct JobKind {
  std::size_t pair = 0;
  bool zx = false;
};

struct Job {
  std::size_t kind = 0;
  bool traced = false;
  Clock::time_point submitted;
  Clock::time_point reported;
  obs::Json report;
};

struct ServeSetup {
  std::vector<Pair> pairs;
  double optimizeMs = 0.0;
};

/// Input generation, the timed and repeated set-up: each circuit as
/// decomposeToCnot vs opt::optimize, in the three configurations, written
/// to QASM and parsed back.
ServeSetup writePairs(const Options& options) {
  using Make = QuantumCircuit (*)();
  static const std::vector<Make> makers = {
      [] { return circuits::qft(8); },
      [] { return circuits::grover(4, 11); },
      [] { return circuits::grover(5, 19); },
      [] { return circuits::urfLike(8, 60, 154); },
      [] { return circuits::mixedReversible(8, 80, 231); },
      [] { return circuits::quantumWalk(4, 3); },
  };
  const auto dir = std::filesystem::absolute(
      options.workDir / ("serve-seed" + std::to_string(options.seed)));
  std::filesystem::create_directories(dir);
  ServeSetup setup;
  const std::size_t count = options.smoke ? 1 : makers.size();
  for (std::size_t i = 0; i < count; ++i) {
    const auto original = makers[i]();
    auto g = compile::decomposeToCnot(original);
    g.setName(original.name());
    const auto start = Clock::now();
    const auto gPrime = opt::optimize(g);
    setup.optimizeMs += msSince(start);
    const auto file1 = (dir / (original.name() + ".qasm")).string();
    qasm::writeFile(g, file1);
    const auto c1 = qasm::parseFile(file1);
    for (const auto kind : kErrorKinds) {
      Pair pair;
      pair.label = original.name() + "/" + bench::toString(kind);
      pair.kind = kind;
      pair.file1 = file1;
      pair.file2 = (dir / (original.name() + "_prime" +
                           std::to_string(static_cast<int>(kind)) + ".qasm"))
                       .string();
      qasm::writeFile(
          injectNonPhaseError(gPrime, kind, kServeErrorSeed + i),
          pair.file2);
      const auto c2 = qasm::parseFile(pair.file2);
      pair.n = c1.numQubits();
      pair.gates1 = c1.gateCount();
      pair.gates2 = c2.gateCount();
      setup.pairs.push_back(std::move(pair));
    }
  }
  return setup;
}

/// The known answer of each pair is the dense oracle's on the files as
/// written, i.e. on what the service parses.
void assignKnownAnswers(std::vector<Pair>& pairs,
                        std::vector<std::string>& problems) {
  for (auto& pair : pairs) {
    const auto dense =
        check::denseCheck(qasm::parseFile(pair.file1),
                          qasm::parseFile(pair.file2), {}, kDenseOracleQubits);
    pair.expectEquivalent = check::provedEquivalent(dense.criterion);
    if (pair.kind == ErrorKind::None && !pair.expectEquivalent) {
      problems.push_back(pair.label +
                         ": the dense oracle rejects the unmodified pair");
    }
  }
}

std::string jobLine(const std::string& id, const Pair& pair, const bool zx) {
  auto job = obs::Json::object();
  job["id"] = id;
  job["file1"] = pair.file1;
  job["file2"] = pair.file2;
  if (zx) {
    auto config = obs::Json::object();
    config["runAlternating"] = false;
    config["runSimulation"] = false;
    config["runZX"] = true;
    job["config"] = std::move(config);
  }
  return job.dump();
}

double counterOf(const obs::Json& metrics, const char* name) {
  const auto* value = metrics.at("counters").find(name);
  return value != nullptr ? value->asDouble() : 0.0;
}

} // namespace

Outcome runServeWorkload(const Options& options, TraceLog& trace) {
  Outcome out;
  out.notApplicable = {"compile.compile_ms", "opt.reconstruct_swaps_ms",
                       "opt.swaps_reconstructed", "ir.align_ms",
                       "zx.decompose_ms",    "zx.convert_ms",
                       "zx.reduce_ms",       "zx.extract_ms",
                       "obs.report_build_ms"};

  EndToEndSamples e2e;
  std::vector<double> optimizeMs;
  ServeSetup setup;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const auto start = Clock::now();
    setup = writePairs(options);
    e2e.setupSeconds.push_back(msSince(start) / 1e3);
    optimizeMs.push_back(setup.optimizeMs);
  }
  assignKnownAnswers(setup.pairs, out.problems);
  const auto& pairs = setup.pairs;
  std::vector<JobKind> kinds;
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    kinds.push_back({p, false});
    kinds.push_back({p, true});
  }

  serve::ServiceLimits limits;
  limits.maxActiveJobs = 2;
  limits.poolSlots = 2;
  limits.useSharedGateCache = true;

  support::Mutex mutex;
  support::CondVar reported;
  std::vector<Job> jobs;
  std::size_t outstanding = 0;
  // Reports arrive on service workers (or on the submitting thread, for an
  // admission rejection); the warm-up job "w" is not recorded.
  serve::JobService service(
      limits, ddConfiguration(),
      [&](const std::string& id, const obs::Json& report) {
        const auto now = Clock::now();
        if (id == "w") {
          return;
        }
        const support::LockGuard lock(mutex);
        auto& job = jobs[std::stoul(id)];
        job.reported = now;
        job.report = report;
        --outstanding;
        reported.notify_all();
      });

  service.submitLine(jobLine("w", pairs.front(), false));
  service.drain();

  std::vector<double> parseMs;
  std::mt19937_64 rng(options.seed);
  std::vector<std::size_t> order;
  std::size_t next = 0;
  std::size_t cycle = 0;
  const auto loopStart = Clock::now();
  while (true) {
    std::size_t index = 0;
    {
      support::LockGuard lock(mutex);
      while (outstanding >= kOutstanding) {
        reported.wait(lock);
      }
      if (options.smoke ? jobs.size() >= kSmokeJobs
                        : msSince(loopStart) / 1e3 >= options.seconds) {
        break;
      }
      index = jobs.size();
    }
    if (next == order.size()) {
      order.resize(kinds.size());
      std::iota(order.begin(), order.end(), std::size_t{0});
      std::shuffle(order.begin(), order.end(), rng);
      next = 0;
      ++cycle;
    }
    Job job;
    job.kind = order[next++];
    // Traced runs alternate traced and untraced cycles, so the overhead
    // ratio compares like with like under the same load.
    job.traced = options.trace && cycle % 2 == 0;
    const auto& pair = pairs[kinds[job.kind].pair];
    const auto id = std::to_string(index);
    if (job.traced) {
      const auto start = Clock::now();
      std::ignore = qasm::parseFile(pair.file1);
      std::ignore = qasm::parseFile(pair.file2);
      const auto end = Clock::now();
      trace.record("parse_replay", id, TraceLog::kNoParent, start, end);
      parseMs.push_back(msBetween(start, end) / 2.0);
    }
    const auto line = jobLine(id, pair, kinds[job.kind].zx);
    {
      const support::LockGuard lock(mutex);
      job.submitted = Clock::now();
      jobs.push_back(std::move(job));
      ++outstanding;
    }
    service.submitLine(line);
  }
  service.drain();
  const auto metrics = service.metricsJson();
  service.shutdown(/*cancelInFlight=*/false);

  // Everything below runs after the workers joined: no more sink calls.
  LayerStats layers;
  std::vector<double> runMs, overheadMs;
  std::vector<std::vector<double>> untraced(kinds.size());
  std::vector<std::vector<double>> traced(kinds.size());
  std::vector<std::string> lastVerdict(kinds.size(), "not_run");
  Clock::time_point lastReport = loopStart;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& job = jobs[i];
    const auto& kind = kinds[job.kind];
    const auto& pair = pairs[kind.pair];
    const auto& verdictKey = job.report.at("verdict").at("verdict").asString();
    const auto verdict = check::criterionFromKey(verdictKey)
                             .value_or(check::EquivalenceCriterion::NotRun);
    const auto judged = kind.zx ? judgeZX(verdict, pair.expectEquivalent)
                                : judgeDD(verdict, pair.expectEquivalent);
    ++out.attempted;
    out.failed += judged.failed ? 1 : 0;
    if (judged.wrong) {
      out.problems.push_back("job " + std::to_string(i) + " (" + pair.label +
                             (kind.zx ? " via zx" : " via dd") +
                             "): wrong verdict " + verdictKey);
    }
    if (kind.zx) {
      if (pair.expectEquivalent) {
        ++e2e.zxEqCalls;
        e2e.zxProved += judged.decided ? 1 : 0;
      }
    } else {
      ++e2e.ddCalls;
      e2e.ddDecided += judged.decided ? 1 : 0;
    }
    lastVerdict[job.kind] = verdictKey;
    lastReport = std::max(lastReport, job.reported);

    const double latency = msBetween(job.submitted, job.reported);
    const double run =
        job.report.at("verdict").at("runtimeSeconds").asDouble() * 1e3;
    (job.traced ? traced : untraced)[job.kind].push_back(latency);
    if (!job.traced) {
      e2e.jobMs.push_back(latency);
      runMs.push_back(run);
      overheadMs.push_back(latency - run);
    }
    if (job.report.at("job").at("admitted").asBool()) {
      if (kind.zx) {
        layers.addZXReport(job.report, pair.expectEquivalent);
      } else {
        layers.addDDReport(job.report, pair.expectEquivalent);
      }
    }
    if (job.traced) {
      const auto id = std::to_string(i);
      const auto span =
          trace.record(kind.zx ? "job:zx" : "job:dd", id, TraceLog::kNoParent,
                       job.submitted, job.reported, 1);
      const auto runStart =
          job.reported - std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::milli>(run));
      trace.record("run", id, span, runStart, job.reported, 1);
    }
  }

  std::vector<double> ddOverhead, zxOverhead;
  std::printf("\nserve_mixed pairs (job latency in ms, median)\n");
  std::printf("%-34s %3s %6s %6s %-4s | %-14s %9s | %-14s %9s\n", "pair", "n",
              "|G|", "|G'|", "ans", "dd verdict", "dd", "zx verdict", "zx");
  for (std::size_t k = 0; k < kinds.size(); k += 2) {
    const auto& pair = pairs[kinds[k].pair];
    const double dd = median(untraced[k]);
    const double zx = median(untraced[k + 1]);
    (pair.expectEquivalent ? e2e.ddEq : e2e.ddNeq).push_back(dd);
    (pair.expectEquivalent ? e2e.zxEq : e2e.zxNeq).push_back(zx);
    for (const std::size_t kind : {k, k + 1}) {
      if (!traced[kind].empty() && !untraced[kind].empty()) {
        (kinds[kind].zx ? zxOverhead : ddOverhead)
            .push_back(median(traced[kind]) / median(untraced[kind]));
      }
    }
    std::printf("%-34s %3zu %6zu %6zu %-4s | %-14s %9.2f | %-14s %9.2f\n",
                pair.label.c_str(), pair.n, pair.gates1, pair.gates2,
                pair.expectEquivalent ? "EQ" : "NEQ", lastVerdict[k].c_str(),
                dd, lastVerdict[k + 1].c_str(), zx);
    auto row = obs::Json::object();
    row["pair"] = pair.label;
    row["n"] = pair.n;
    row["gates_g"] = pair.gates1;
    row["gates_g_prime"] = pair.gates2;
    row["expected"] = pair.expectEquivalent ? "equivalent" : "not_equivalent";
    row["answer_source"] = "dense";
    row["dd_verdict"] = lastVerdict[k];
    row["zx_verdict"] = lastVerdict[k + 1];
    row["dd_latency_ms"] = dd;
    row["zx_latency_ms"] = zx;
    row["dd_jobs"] = untraced[k].size();
    row["zx_jobs"] = untraced[k + 1].size();
    out.rows.push_back(std::move(row));
  }

  e2e.jobsPerSecond = ratio(static_cast<double>(jobs.size()),
                            msBetween(loopStart, lastReport) / 1e3);
  emitEndToEnd(e2e, out);
  auto& m = out.metrics;
  layers.emit(m);
  m.set("opt.optimize_ms", median(optimizeMs), "ms");
  m.set("serve.run_ms", median(runMs), "ms");
  m.set("serve.overhead_p50_ms", quantile(overheadMs, 0.50), "ms");
  m.set("serve.overhead_p99_ms", quantile(overheadMs, 0.99), "ms");
  m.set("serve.warm_hit_rate",
        ratio(counterOf(metrics, "dd.gate_cache.warm_hits"),
              counterOf(metrics, "dd.gate_cache.lookups")),
        "1");
  m.set("serve.queue_peak", counterOf(metrics, "serve/queue_peak"), "count");
  m.set("serve.cache_publishes",
        counterOf(metrics, "serve/shared_cache.publishes"), "count");
  if (options.trace) {
    m.set("qasm.parse_ms", mean(parseMs), "ms");
    m.set("trace.overhead_dd", geomean(ddOverhead), "1");
    m.set("trace.overhead_zx", geomean(zxOverhead), "1");
  }
  return out;
}

} // namespace veriqc::e2e

/// Protocol, admission-control and lifecycle tests for the veriqcd job
/// service: strict request parsing, structured rejections, the one-line-in /
/// one-report-out invariant under torture input, concurrent clients,
/// shutdown-mid-job accounting, and the 50-job mixed-batch acceptance run.
#include "check/report.hpp"
#include "check/result.hpp"
#include "fault/fault.hpp"
#include "obs/json.hpp"
#include "serve/job.hpp"
#include "serve/service.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

using namespace veriqc;
using namespace veriqc::serve;
using veriqc::obs::Json;

namespace {

/// Writes a fixture under TempDir(). Every test process (ctest -j runs them
/// side by side) writes the same fixtures, so each writes a file of its own
/// and renames it into place: a concurrent reader sees one complete file or
/// the other, never a truncated one.
std::string writeFile(const std::string& name, const std::string& text) {
  const auto path = std::string(::testing::TempDir()) + name;
  const auto staging = path + "." + std::to_string(::getpid()) + ".tmp";
  {
    std::ofstream out(staging, std::ios::binary | std::ios::trunc);
    out << text;
  }
  std::filesystem::rename(staging, path);
  return path;
}

/// Two-qubit Bell-pair preparation; bellB is the same circuit, bellC drops
/// the entangler so (bellA, bellC) is a guaranteed not-equivalent pair.
std::string bellA() {
  static const std::string path = writeFile("serve_bell_a.qasm",
                                            "OPENQASM 2.0;\n"
                                            "include \"qelib1.inc\";\n"
                                            "qreg q[2];\n"
                                            "h q[0];\n"
                                            "cx q[0],q[1];\n");
  return path;
}

std::string bellB() {
  static const std::string path = writeFile("serve_bell_b.qasm",
                                            "OPENQASM 2.0;\n"
                                            "include \"qelib1.inc\";\n"
                                            "qreg q[2];\n"
                                            "h q[0];\n"
                                            "cx q[0],q[1];\n");
  return path;
}

std::string bellC() {
  static const std::string path = writeFile("serve_bell_c.qasm",
                                            "OPENQASM 2.0;\n"
                                            "include \"qelib1.inc\";\n"
                                            "qreg q[2];\n"
                                            "h q[0];\n");
  return path;
}

/// A deterministic many-gate circuit whose self-check takes long enough
/// (hundreds of milliseconds on any machine) that shutdown reliably lands
/// while it is in flight.
std::string heavyCircuit() {
  static const std::string path = [] {
    std::mt19937_64 rng(11);
    constexpr std::size_t kQubits = 16;
    std::string text = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[16];\n";
    const char* singles[] = {"h", "t", "s", "x"};
    for (int i = 0; i < 12000; ++i) {
      if (rng() % 5 == 0) {
        const auto a = rng() % kQubits;
        auto b = rng() % kQubits;
        if (b == a) {
          b = (b + 1) % kQubits;
        }
        text += "cx q[" + std::to_string(a) + "],q[" + std::to_string(b) +
                "];\n";
      } else {
        text += std::string(singles[rng() % 4]) + " q[" +
                std::to_string(rng() % kQubits) + "];\n";
      }
    }
    return writeFile("serve_heavy.qasm", text);
  }();
  return path;
}

/// Thread-safe report collector used as the service's sink.
class Capture {
public:
  JobService::ReportSink sink() {
    return [this](const std::string& id, const Json& report) {
      const std::lock_guard lock(mutex_);
      reports_.emplace_back(id, report);
    };
  }

  [[nodiscard]] std::vector<std::pair<std::string, Json>> reports() const {
    const std::lock_guard lock(mutex_);
    return reports_;
  }

  [[nodiscard]] std::size_t count() const {
    const std::lock_guard lock(mutex_);
    return reports_.size();
  }

private:
  mutable std::mutex mutex_;
  std::vector<std::pair<std::string, Json>> reports_;
};

std::string jobLine(const std::string& id, const std::string& f1,
                    const std::string& f2, const std::string& config = "") {
  std::string line =
      R"({"id":")" + id + R"(","file1":")" + f1 + R"(","file2":")" + f2 +
      R"(")";
  if (!config.empty()) {
    line += ",\"config\":" + config;
  }
  return line + "}";
}

const Json& jobObject(const Json& report) { return report.at("job"); }

std::string verdictOf(const Json& report) {
  return report.at("verdict").at("verdict").asString();
}

check::Configuration quickDefaults() {
  check::Configuration defaults;
  defaults.timeout = std::chrono::seconds(30);
  defaults.runSimulation = false;
  defaults.parallel = false;
  return defaults;
}

} // namespace

// --- protocol parsing --------------------------------------------------------

TEST(JobParseTest, MinimalRequestInheritsTheDefaults) {
  check::Configuration defaults;
  defaults.timeout = std::chrono::milliseconds(4242);
  defaults.maxDDNodes = 777;
  const auto parsed =
      parseJobLine(jobLine("j", "a.qasm", "b.qasm"), defaults);
  ASSERT_EQ(parsed.reason, RejectReason::None);
  EXPECT_EQ(parsed.request.id, "j");
  EXPECT_EQ(parsed.request.file1, "a.qasm");
  EXPECT_EQ(parsed.request.file2, "b.qasm");
  EXPECT_EQ(parsed.request.config.timeout, std::chrono::milliseconds(4242));
  EXPECT_EQ(parsed.request.config.maxDDNodes, 777U);
}

TEST(JobParseTest, AppliesEveryWhitelistedConfigKey) {
  const check::Configuration defaults;
  const auto parsed = parseJobLine(
      jobLine("j", "a", "b",
              R"({"timeoutMilliseconds":1500,"simulationRuns":3,)"
              R"("seed":9,"runAlternating":true,)"
              R"("runSimulation":false,"runZX":true,"runDense":false,)"
              R"("parallel":false,"maxDDNodes":1000,"maxMemoryMB":64,)"
              R"("recordTrace":true,"oracle":"lookahead"})"),
      defaults);
  ASSERT_EQ(parsed.reason, RejectReason::None) << parsed.detail;
  const auto& c = parsed.request.config;
  EXPECT_EQ(c.timeout, std::chrono::milliseconds(1500));
  EXPECT_EQ(c.simulationRuns, 3U);
  EXPECT_EQ(c.seed, 9U);
  EXPECT_TRUE(c.runAlternating);
  EXPECT_FALSE(c.runSimulation);
  EXPECT_TRUE(c.runZX);
  EXPECT_FALSE(c.runDense);
  EXPECT_FALSE(c.parallel);
  EXPECT_EQ(c.maxDDNodes, 1000U);
  EXPECT_EQ(c.maxMemoryMB, 64U);
  EXPECT_TRUE(c.recordTrace);
  EXPECT_EQ(c.oracle, check::OracleStrategy::Lookahead);
}

TEST(JobParseTest, TortureLinesAllRejectStructurally) {
  const check::Configuration defaults;
  const std::pair<const char*, const char*> cases[] = {
      {"", "invalid JSON"},
      {"{nope", "invalid JSON"},
      {"42", "expected a JSON object"},
      {"[1,2]", "expected a JSON object"},
      {R"({"file1":"a","file2":"b"})", "missing required key \"id\""},
      {R"({"id":"","file1":"a","file2":"b"})", "non-empty string"},
      {R"({"id":7,"file1":"a","file2":"b"})", "non-empty string"},
      {R"({"id":"j","file1":"a","file2":"b","bogus":1})",
       "unknown request key"},
      {R"({"id":"j","file1":"a","file2":"b","config":[]})",
       "expected an object"},
      {R"({"id":"j","file1":"a","file2":"b","config":{"maxMemryMB":5}})",
       "unknown configuration key"},
      // Knobs of removed features are unknown keys too, named in the detail.
      {R"({"id":"j","file1":"a","file2":"b","config":{"checkThreads":2}})",
       "config.checkThreads: unknown configuration key"},
      {R"({"id":"j","file1":"a","file2":"b",)"
       R"("config":{"zxParallelRegions":2}})",
       "config.zxParallelRegions: unknown configuration key"},
      {R"({"id":"j","file1":"a","file2":"b",)"
       R"("config":{"timeoutMilliseconds":"fast"}})",
       "non-negative integer"},
      {R"({"id":"j","file1":"a","file2":"b","config":{"maxDDNodes":-4}})",
       "non-negative integer"},
      {R"({"id":"j","file1":"a","file2":"b","config":{"runZX":1}})",
       "expected a boolean"},
      {R"({"id":"j","file1":"a","file2":"b","config":{"oracle":"psychic"}})",
       "unknown strategy"},
  };
  for (const auto& [line, expectedDetail] : cases) {
    const auto parsed = parseJobLine(line, defaults);
    EXPECT_EQ(parsed.reason, RejectReason::MalformedRequest) << line;
    EXPECT_NE(parsed.detail.find(expectedDetail), std::string::npos)
        << line << " -> " << parsed.detail;
  }
}

TEST(JobParseTest, AuditLevelAboveTheMaximumIsRejected) {
  // A value past int's range would wrap in the narrowing cast (4294967296
  // reading as level 0), so a job asking for audits could run with none.
  const check::Configuration defaults;
  for (const char* level : {"3", "2147483648", "4294967296"}) {
    const auto parsed = parseJobLine(
        jobLine("j", "a", "b", std::string(R"({"auditLevel":)") + level + "}"),
        defaults);
    EXPECT_EQ(parsed.reason, RejectReason::MalformedRequest) << level;
    EXPECT_NE(parsed.detail.find("config.auditLevel"), std::string::npos)
        << level << " -> " << parsed.detail;
  }
  const auto parsed =
      parseJobLine(jobLine("j", "a", "b", R"({"auditLevel":2})"), defaults);
  ASSERT_EQ(parsed.reason, RejectReason::None) << parsed.detail;
  EXPECT_EQ(parsed.request.config.auditLevel, 2);
}

TEST(JobParseTest, TruncatedJsonKeepsTheInvariantViaRejection) {
  const check::Configuration defaults;
  // Simulate a line cut mid-transmission at every prefix length: none may
  // parse as an accidental other job, every failure is MalformedRequest.
  const std::string full = jobLine("j1", "a.qasm", "b.qasm",
                                   R"({"maxDDNodes":50})");
  for (std::size_t cut = 0; cut + 1 < full.size(); ++cut) {
    const auto parsed =
        parseJobLine(std::string_view(full).substr(0, cut), defaults);
    EXPECT_EQ(parsed.reason, RejectReason::MalformedRequest)
        << "prefix length " << cut;
  }
  EXPECT_EQ(parseJobLine(full, defaults).reason, RejectReason::None);
}

TEST(JobParseTest, RejectReasonWireNamesAreStable) {
  EXPECT_EQ(toString(RejectReason::None), "");
  EXPECT_EQ(toString(RejectReason::MalformedRequest), "malformed_request");
  EXPECT_EQ(toString(RejectReason::OversizedRequest), "oversized_request");
  EXPECT_EQ(toString(RejectReason::QueueFull), "queue_full");
  EXPECT_EQ(toString(RejectReason::MemoryBudget), "memory_budget");
  EXPECT_EQ(toString(RejectReason::BudgetExceedsLimit),
            "budget_exceeds_limit");
  EXPECT_EQ(toString(RejectReason::FaultPlanForbidden),
            "fault_plan_forbidden");
  EXPECT_EQ(toString(RejectReason::ShuttingDown), "shutting_down");
}

// --- admission control -------------------------------------------------------

TEST(JobServiceTest, RunsAJobAndEmitsOneValidReport) {
  Capture capture;
  JobService service(ServiceLimits{}, quickDefaults(), capture.sink());
  EXPECT_TRUE(service.submitLine(jobLine("ok", bellA(), bellB())));
  service.drain();
  const auto reports = capture.reports();
  ASSERT_EQ(reports.size(), 1U);
  EXPECT_EQ(reports[0].first, "ok");
  const auto& report = reports[0].second;
  EXPECT_TRUE(check::validateRunReport(report).empty());
  EXPECT_EQ(verdictOf(report), "equivalent");
  EXPECT_TRUE(jobObject(report).at("admitted").asBool());
  EXPECT_EQ(jobObject(report).at("reason").asString(), "");
  // The per-job RSS delta can never exceed the process-wide peak.
  const auto& resources = report.at("resources");
  EXPECT_LE(resources.at("peakResidentSetKB").asInt(),
            resources.at("processPeakResidentSetKB").asInt());
}

TEST(JobServiceTest, HugeTimeoutStillDecidesTheJob) {
  // A timeout whose deadline lies past the clock's range means "no
  // deadline", not one that has already passed.
  Capture capture;
  JobService service(ServiceLimits{}, quickDefaults(), capture.sink());
  EXPECT_TRUE(service.submitLine(
      jobLine("huge", bellA(), bellB(),
              R"({"timeoutMilliseconds":10000000000000})")));
  service.drain();
  const auto reports = capture.reports();
  ASSERT_EQ(reports.size(), 1U);
  EXPECT_TRUE(check::validateRunReport(reports[0].second).empty());
  EXPECT_EQ(verdictOf(reports[0].second), "equivalent");
}

TEST(JobServiceTest, OversizedLinesAreRejectedBeforeParsing) {
  ServiceLimits limits;
  limits.maxLineBytes = 64;
  Capture capture;
  JobService service(limits, quickDefaults(), capture.sink());
  const auto line =
      jobLine("big", bellA(), bellB()) + std::string(200, ' ');
  EXPECT_FALSE(service.submitLine(line));
  service.drain();
  const auto reports = capture.reports();
  ASSERT_EQ(reports.size(), 1U);
  EXPECT_EQ(verdictOf(reports[0].second), "not_run");
  EXPECT_EQ(jobObject(reports[0].second).at("reason").asString(),
            "oversized_request");
}

TEST(LineSplitterTest, JoinsChunksSkipsEmptyLinesAndCutsOversizedOnes) {
  // Three-byte chunks: lines that straddle chunks are joined, an oversized
  // line is handed on once as its first 9 bytes and the rest of it is
  // dropped, and a last line without a newline waits for finish().
  std::vector<std::string> lines;
  LineSplitter splitter(8, [&lines](const std::string_view line) {
    lines.emplace_back(line);
  });
  const std::string_view stream =
      "short\n\nabcdefghijklmnopqrstuvwxyz\nexactly8\ntail";
  for (std::size_t i = 0; i < stream.size(); i += 3) {
    splitter.feed(stream.substr(i, 3));
  }
  EXPECT_EQ(lines, (std::vector<std::string>{"short", "abcdefghi",
                                             "exactly8"}));
  splitter.finish();
  EXPECT_EQ(lines, (std::vector<std::string>{"short", "abcdefghi", "exactly8",
                                             "tail"}));
}

TEST(LineSplitterTest, OversizedLineGetsOneRejectionAndTheNextJobRuns) {
  ServiceLimits limits;
  limits.maxLineBytes = 4096;
  Capture capture;
  JobService service(limits, quickDefaults(), capture.sink());
  LineSplitter splitter(limits.maxLineBytes,
                        [&service](const std::string_view line) {
                          service.submitLine(line);
                        });
  const std::string chunk(4096, 'x');
  for (int i = 0; i < 64; ++i) {
    splitter.feed(chunk);
  }
  splitter.feed("\n" + jobLine("next", bellA(), bellB()) + "\n");
  splitter.finish();
  service.drain();
  const auto reports = capture.reports();
  ASSERT_EQ(reports.size(), 2U);
  EXPECT_EQ(jobObject(reports[0].second).at("reason").asString(),
            "oversized_request");
  EXPECT_EQ(verdictOf(reports[0].second), "not_run");
  EXPECT_EQ(reports[1].first, "next");
  EXPECT_EQ(verdictOf(reports[1].second), "equivalent");
}

TEST(JobServiceTest, BudgetAboveTheDaemonCapIsRejected) {
  ServiceLimits limits;
  limits.maxDDNodes = 1000;
  Capture capture;
  JobService service(limits, quickDefaults(), capture.sink());
  EXPECT_FALSE(service.submitLine(
      jobLine("greedy", bellA(), bellB(), R"({"maxDDNodes":100000})")));
  // At or under the cap is fine; an unset budget inherits it.
  EXPECT_TRUE(service.submitLine(
      jobLine("capped", bellA(), bellB(), R"({"maxDDNodes":1000})")));
  EXPECT_TRUE(service.submitLine(jobLine("inherit", bellA(), bellB())));
  service.drain();
  std::map<std::string, std::string> reasons;
  for (const auto& [id, report] : capture.reports()) {
    reasons[id] = jobObject(report).at("reason").asString();
    EXPECT_TRUE(check::validateRunReport(report).empty());
  }
  EXPECT_EQ(reasons.at("greedy"), "budget_exceeds_limit");
  EXPECT_EQ(reasons.at("capped"), "");
  EXPECT_EQ(reasons.at("inherit"), "");
}

TEST(JobServiceTest, SimulationThreadsKeyIsRejected) {
  // The simulation check runs on one thread; a job may not ask for more.
  Capture capture;
  JobService service(ServiceLimits{}, quickDefaults(), capture.sink());
  EXPECT_FALSE(service.submitLine(
      jobLine("threads", bellA(), bellB(), R"({"simulationThreads":2})")));
  service.drain();
  const auto reports = capture.reports();
  ASSERT_EQ(reports.size(), 1U);
  const auto& report = reports[0].second;
  EXPECT_TRUE(check::validateRunReport(report).empty());
  EXPECT_EQ(verdictOf(report), "not_run");
  EXPECT_EQ(jobObject(report).at("reason").asString(), "malformed_request");
  EXPECT_EQ(jobObject(report).at("detail").asString(),
            "config.simulationThreads: unknown configuration key");
}

TEST(JobServiceTest, WatchdogMillisKeyIsRejected) {
  // A run stops on its deadline or on a verdict; there is no poll budget.
  Capture capture;
  JobService service(ServiceLimits{}, quickDefaults(), capture.sink());
  EXPECT_FALSE(service.submitLine(
      jobLine("watchdog", bellA(), bellB(), R"({"watchdogMillis":5})")));
  service.drain();
  const auto reports = capture.reports();
  ASSERT_EQ(reports.size(), 1U);
  const auto& report = reports[0].second;
  EXPECT_TRUE(check::validateRunReport(report).empty());
  EXPECT_EQ(verdictOf(report), "not_run");
  EXPECT_EQ(jobObject(report).at("reason").asString(), "malformed_request");
  EXPECT_EQ(jobObject(report).at("detail").asString(),
            "config.watchdogMillis: unknown configuration key");
}

TEST(JobServiceTest, MemoryBudgetShedsLoadInsteadOfOOMing) {
  ServiceLimits limits;
  limits.maxMemoryMB = 1; // any live process exceeds 1 MB resident
  Capture capture;
  JobService service(limits, quickDefaults(), capture.sink());
  EXPECT_FALSE(service.submitLine(jobLine("shed", bellA(), bellB())));
  const auto reports = capture.reports();
  ASSERT_EQ(reports.size(), 1U);
  EXPECT_EQ(jobObject(reports[0].second).at("reason").asString(),
            "memory_budget");
  EXPECT_EQ(verdictOf(reports[0].second), "not_run");
}

TEST(JobServiceTest, ZeroQueueCapacityRejectsAsQueueFull) {
  ServiceLimits limits;
  limits.maxQueuedJobs = 0;
  Capture capture;
  JobService service(limits, quickDefaults(), capture.sink());
  EXPECT_FALSE(service.submitLine(jobLine("full", bellA(), bellB())));
  const auto reports = capture.reports();
  ASSERT_EQ(reports.size(), 1U);
  EXPECT_EQ(jobObject(reports[0].second).at("reason").asString(),
            "queue_full");
}

TEST(JobServiceTest, FaultPlansAreForbiddenUnlessEnabled) {
  Capture capture;
  {
    JobService service(ServiceLimits{}, quickDefaults(), capture.sink());
    EXPECT_FALSE(service.submitLine(jobLine(
        "armed", bellA(), bellB(), R"({"faultPlan":"dd.slab_grow"})")));
  }
  const auto reports = capture.reports();
  ASSERT_EQ(reports.size(), 1U);
  EXPECT_EQ(jobObject(reports[0].second).at("reason").asString(),
            "fault_plan_forbidden");
}

TEST(JobServiceTest, JobScopedFaultPlansDoNotLeakIntoTheNextJob) {
  ServiceLimits limits;
  limits.allowFaultPlans = true;
  Capture capture;
  {
    JobService service(limits, quickDefaults(), capture.sink());
    // An armed job runs under its ScopedPlan; once its report is out the
    // registry must be fully disarmed again — the next job runs clean.
    EXPECT_TRUE(service.submitLine(jobLine(
        "faulty", bellA(), bellB(),
        R"({"faultPlan":"dd.slab_grow:times=0","engineRetryLimit":0})")));
    service.drain();
    EXPECT_FALSE(fault::Registry::instance().anyArmed());
    EXPECT_TRUE(service.submitLine(jobLine("clean", bellA(), bellB())));
    service.drain();
  }
  EXPECT_FALSE(fault::Registry::instance().anyArmed());
  std::map<std::string, std::string> verdicts;
  for (const auto& [id, report] : capture.reports()) {
    verdicts[id] = verdictOf(report);
  }
  // The armed job must not have produced a clean verdict, and the fault
  // must not have followed it into the clean job.
  EXPECT_NE(verdicts.at("faulty"), "equivalent");
  EXPECT_EQ(verdicts.at("clean"), "equivalent");
}

TEST(JobServiceTest, StaleEnvironmentFaultPlanIsDisarmedByTheService) {
  // Simulate the stale VERIQC_FAULT scenario: something armed the registry
  // before the daemon started. Constructing the service must disarm it.
  fault::Registry::instance().armPlan("dd.slab_grow:after=1000");
  ASSERT_TRUE(fault::Registry::instance().anyArmed());
  Capture capture;
  JobService service(ServiceLimits{}, quickDefaults(), capture.sink());
  EXPECT_FALSE(fault::Registry::instance().anyArmed());
}

// --- lifecycle ---------------------------------------------------------------

TEST(JobServiceTest, ShutdownMidJobRecordsCancelledAndRejectsTheQueue) {
  Capture capture;
  JobService service(ServiceLimits{}, quickDefaults(), capture.sink());
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(service.submitLine(jobLine("slow-" + std::to_string(i),
                                           heavyCircuit(), heavyCircuit())));
  }
  // Wait for the first job to be in flight, then pull the plug.
  while (service.stats().active == 0 && service.stats().completed == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  service.shutdown(/*cancelInFlight=*/true);
  const auto reports = capture.reports();
  ASSERT_EQ(reports.size(), 6U); // one report per submission, none lost
  std::size_t cancelled = 0;
  std::size_t shutDown = 0;
  std::size_t finished = 0;
  for (const auto& [id, report] : reports) {
    EXPECT_TRUE(check::validateRunReport(report).empty()) << id;
    const auto verdict = verdictOf(report);
    if (verdict == "cancelled") {
      ++cancelled;
      EXPECT_TRUE(jobObject(report).at("admitted").asBool());
    } else if (jobObject(report).at("reason").asString() ==
               "shutting_down") {
      ++shutDown;
      EXPECT_EQ(verdict, "not_run");
    } else {
      ++finished;
    }
  }
  // The in-flight job is cancelled — accounted, not lost — and the rest of
  // the queue is rejected with the structured shutdown reason. (A job may
  // squeeze through to completion before the shutdown lands; it must then
  // carry a real verdict, never vanish.)
  EXPECT_GE(cancelled, 1U);
  EXPECT_GE(shutDown, 4U);
  EXPECT_EQ(cancelled + shutDown + finished, 6U);
  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, 6U);
  EXPECT_EQ(stats.admitted, 6U);
  EXPECT_EQ(stats.rejected, shutDown);
  EXPECT_EQ(stats.queued, 0U);
}

TEST(JobServiceTest, ConcurrentShutdownCallsDoNotDoubleJoin) {
  // Regression: two shutdown() callers could both get past the
  // already-shut-down check and race each other joining and clearing the
  // worker handles — and joining the same std::thread twice is undefined
  // behaviour. shutdown() is now serialized end to end under its own mutex,
  // so every caller (including the destructor, which runs last) must return
  // cleanly no matter how many race.
  Capture capture;
  JobService service(ServiceLimits{}, quickDefaults(), capture.sink());
  for (int i = 0; i < 4; ++i) {
    service.submitLine(
        jobLine("racy-" + std::to_string(i), heavyCircuit(), heavyCircuit()));
  }
  std::vector<std::thread> callers;
  callers.reserve(8);
  for (int i = 0; i < 8; ++i) {
    callers.emplace_back(
        [&service] { service.shutdown(/*cancelInFlight=*/true); });
  }
  for (auto& caller : callers) {
    caller.join();
  }
  // Still idempotent afterwards, and the service is properly down.
  service.shutdown(/*cancelInFlight=*/false);
  EXPECT_FALSE(service.submitLine(jobLine("late", bellA(), bellB())));
  // One report per submission, none lost and none duplicated by the racing
  // shutdowns (4 jobs + 1 post-shutdown rejection).
  EXPECT_EQ(capture.count(), 5U);
}

TEST(JobServiceTest, SubmissionsAfterShutdownAreRejected) {
  Capture capture;
  JobService service(ServiceLimits{}, quickDefaults(), capture.sink());
  service.shutdown(/*cancelInFlight=*/false);
  EXPECT_FALSE(service.submitLine(jobLine("late", bellA(), bellB())));
  const auto reports = capture.reports();
  ASSERT_EQ(reports.size(), 1U);
  EXPECT_EQ(jobObject(reports[0].second).at("reason").asString(),
            "shutting_down");
}

TEST(JobServiceTest, UnreadableCircuitFilesYieldAnEngineErrorReport) {
  Capture capture;
  JobService service(ServiceLimits{}, quickDefaults(), capture.sink());
  EXPECT_TRUE(service.submitLine(
      jobLine("ghost", "/nonexistent/a.qasm", bellB())));
  service.drain();
  const auto reports = capture.reports();
  ASSERT_EQ(reports.size(), 1U);
  const auto& report = reports[0].second;
  EXPECT_TRUE(check::validateRunReport(report).empty());
  EXPECT_EQ(verdictOf(report), "engine_error");
  EXPECT_TRUE(jobObject(report).at("admitted").asBool());
}

// --- concurrency and the acceptance batch ------------------------------------

TEST(JobServiceTest, ConcurrentClientsAllGetTheirReports) {
  ServiceLimits limits;
  limits.maxActiveJobs = 2;
  limits.maxQueuedJobs = 256;
  Capture capture;
  JobService service(limits, quickDefaults(), capture.sink());
  constexpr int kClients = 4;
  constexpr int kJobsPerClient = 8;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&service, c] {
      for (int j = 0; j < kJobsPerClient; ++j) {
        const auto id =
            "c" + std::to_string(c) + "-" + std::to_string(j);
        if (j % 3 == 2) {
          service.submitLine("{broken json " + id);
        } else {
          service.submitLine(jobLine(id, bellA(), j % 2 == 0 ? bellB()
                                                             : bellC()));
        }
      }
    });
  }
  for (auto& client : clients) {
    client.join();
  }
  service.drain();
  const auto reports = capture.reports();
  ASSERT_EQ(reports.size(),
            static_cast<std::size_t>(kClients * kJobsPerClient));
  std::size_t equivalent = 0;
  std::size_t notEquivalent = 0;
  std::size_t malformed = 0;
  for (const auto& [id, report] : reports) {
    EXPECT_TRUE(check::validateRunReport(report).empty()) << id;
    const auto verdict = verdictOf(report);
    if (verdict == "equivalent") {
      ++equivalent;
    } else if (verdict == "not_equivalent") {
      ++notEquivalent;
    } else if (jobObject(report).at("reason").asString() ==
               "malformed_request") {
      ++malformed;
    }
  }
  EXPECT_EQ(equivalent, static_cast<std::size_t>(kClients * 3));
  EXPECT_EQ(notEquivalent, static_cast<std::size_t>(kClients * 3));
  EXPECT_EQ(malformed, static_cast<std::size_t>(kClients * 2));
}

TEST(JobServiceTest, FiftyJobMixedBatchAcceptance) {
  ServiceLimits limits;
  limits.maxDDNodes = 100000;
  Capture capture;
  JobService service(limits, quickDefaults(), capture.sink());

  // 50 submissions cycling through every kind of outcome: equivalent and
  // not-equivalent checks, malformed lines, unknown config keys, budget
  // violations, and unreadable files.
  std::map<std::string, std::string> expected; // id -> verdict or reason
  for (int i = 0; i < 50; ++i) {
    const auto id = "batch-" + std::to_string(i);
    switch (i % 6) {
    case 0:
    case 1:
      service.submitLine(jobLine(id, bellA(), bellB()));
      expected[id] = "equivalent";
      break;
    case 2:
      service.submitLine(jobLine(id, bellA(), bellC(),
                                 R"({"runSimulation":false})"));
      expected[id] = "not_equivalent";
      break;
    case 3:
      service.submitLine("{\"id\":\"" + id + "\", this is not json");
      expected[id] = "malformed_request";
      break;
    case 4:
      service.submitLine(
          jobLine(id, bellA(), bellB(), R"({"maxDDNoodles":12})"));
      expected[id] = "malformed_request";
      break;
    default:
      service.submitLine(
          jobLine(id, bellA(), bellB(), R"({"maxDDNodes":99999999})"));
      expected[id] = "budget_exceeds_limit";
      break;
    }
  }
  service.drain();

  const auto reports = capture.reports();
  ASSERT_EQ(reports.size(), 50U); // exactly one line per submission
  std::map<std::string, std::size_t> seen;
  double reportedMultiplyLookups = 0.0;
  double engineMultiplyLookups = 0.0;
  std::size_t ran = 0;
  for (const auto& [id, report] : reports) {
    ++seen[id];
    EXPECT_TRUE(check::validateRunReport(report).empty()) << id;
    const auto& job = jobObject(report);
    const auto verdict = verdictOf(report);
    const auto reason = job.at("reason").asString();
    // Malformed lines cannot always carry their id; match what they can.
    if (!id.empty()) {
      const auto want = expected.at(id);
      if (want == "equivalent" || want == "not_equivalent") {
        EXPECT_EQ(verdict, want) << id;
        EXPECT_TRUE(job.at("admitted").asBool()) << id;
      } else {
        EXPECT_EQ(reason, want) << id;
        EXPECT_FALSE(job.at("admitted").asBool()) << id;
        EXPECT_EQ(verdict, "not_run") << id;
        EXPECT_FALSE(job.at("detail").asString().empty()) << id;
      }
    }
    if (job.at("admitted").asBool()) {
      ++ran;
      if (const auto* lookups =
              report.at("counters").find("dd.multiply.lookups");
          lookups != nullptr) {
        reportedMultiplyLookups += lookups->asDouble();
      }
      for (const auto& engine : report.at("engines").asArray()) {
        if (const auto* lookups =
                engine.at("counters").find("dd.multiply.lookups");
            lookups != nullptr) {
          engineMultiplyLookups += lookups->asDouble();
        }
      }
    }
  }
  // Rejected malformed lines may report an empty id; every non-empty id
  // appears exactly once.
  for (const auto& [id, count] : seen) {
    if (!id.empty()) {
      EXPECT_EQ(count, 1U) << id;
    }
  }

  // Daemon metrics are consistent with the per-job reports: admission
  // counters add up, and the kernel counters are the sum of what every
  // job's own report declared, each engine's work counted once.
  const auto metrics = service.metricsJson();
  EXPECT_EQ(metrics.at("schema").asString(), "veriqc-metrics/v1");
  const auto& counters = metrics.at("counters");
  const auto counter = [&counters](const char* name) {
    const auto* value = counters.find(name);
    return value == nullptr ? 0.0 : value->asDouble();
  };
  EXPECT_DOUBLE_EQ(counter("serve/jobs_submitted"), 50.0);
  EXPECT_DOUBLE_EQ(counter("serve/jobs_admitted"),
                   static_cast<double>(ran));
  EXPECT_DOUBLE_EQ(counter("serve/jobs_rejected"),
                   50.0 - static_cast<double>(ran));
  EXPECT_DOUBLE_EQ(counter("serve/jobs_completed"),
                   static_cast<double>(ran));
  EXPECT_DOUBLE_EQ(counter("serve/verdict.equivalent") +
                       counter("serve/verdict.not_equivalent") +
                       counter("serve/verdict.probably_equivalent"),
                   static_cast<double>(ran));
  EXPECT_DOUBLE_EQ(counter("serve/rejected.malformed_request"), 16.0);
  EXPECT_DOUBLE_EQ(counter("serve/rejected.budget_exceeds_limit"), 8.0);
  EXPECT_DOUBLE_EQ(counter("dd.multiply.lookups"),
                   reportedMultiplyLookups);
  EXPECT_GT(engineMultiplyLookups, 0.0);
  EXPECT_DOUBLE_EQ(counter("dd.multiply.lookups"), engineMultiplyLookups);

  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, 50U);
  EXPECT_EQ(stats.admitted + stats.rejected, 50U);
  EXPECT_EQ(stats.completed, stats.admitted);
  EXPECT_EQ(stats.queued, 0U);
  EXPECT_EQ(stats.active, 0U);
}

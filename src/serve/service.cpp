#include "serve/service.hpp"

#include "check/manager.hpp"
#include "check/report.hpp"
#include "dd/package.hpp"
#include "fault/fault.hpp"
#include "ir/circuit.hpp"
#include "qasm/parser.hpp"
#include "qasm/revlib.hpp"

#include <algorithm>
#include <utility>

namespace veriqc::serve {

namespace {

/// Circuit loader shared by every ingress: RevLib .real by extension,
/// OpenQASM otherwise. Throws on unreadable/invalid files; the worker turns
/// that into an engine_error report for the job.
QuantumCircuit loadCircuit(const std::string& path) {
  if (path.size() >= 5 && path.compare(path.size() - 5, 5, ".real") == 0) {
    return qasm::parseRealFile(path);
  }
  return qasm::parseFile(path);
}

} // namespace

JobService::JobService(ServiceLimits limits, check::Configuration defaults,
                       ReportSink sink)
    : limits_(limits), defaults_(std::move(defaults)), sink_(std::move(sink)),
      pool_(check::TaskPool::resolveSlots(limits.poolSlots)) {
  // A daemon outlives whatever VERIQC_FAULT armed at registry birth — that
  // plan belongs to the process that happened to start first, not to any
  // job. Disarm it: under veriqcd the only arming path is the job-scoped
  // ScopedPlan inside Manager::run() (gated by allowFaultPlans below).
  fault::Registry::instance().disarmAll();
  const std::size_t workerCount = std::max<std::size_t>(1, limits_.maxActiveJobs);
  running_.assign(workerCount, nullptr);
  workers_.reserve(workerCount);
  for (std::size_t slot = 0; slot < workerCount; ++slot) {
    workers_.emplace_back([this, slot] { workerLoop(slot); });
  }
}

JobService::~JobService() { shutdown(/*cancelInFlight=*/true); }

bool JobService::submitLine(const std::string_view line) {
  {
    const support::LockGuard lock(metricsMutex_);
    metrics_.add("serve/jobs_submitted", 1.0);
  }
  {
    const support::LockGuard lock(mutex_);
    ++stats_.submitted;
  }
  if (line.size() > limits_.maxLineBytes) {
    JobRequest oversized;
    oversized.id = "";
    oversized.config = defaults_;
    emitRejection(oversized, RejectReason::OversizedRequest,
                  "request line exceeds the limit of " +
                      std::to_string(limits_.maxLineBytes) + " bytes");
    return false;
  }
  auto parsed = parseJobLine(line, defaults_);
  if (parsed.reason != RejectReason::None) {
    emitRejection(parsed.request, parsed.reason, parsed.detail);
    return false;
  }
  return admitAndQueue(std::move(parsed.request));
}

bool JobService::submit(JobRequest request) {
  {
    const support::LockGuard lock(metricsMutex_);
    metrics_.add("serve/jobs_submitted", 1.0);
  }
  {
    const support::LockGuard lock(mutex_);
    ++stats_.submitted;
  }
  return admitAndQueue(std::move(request));
}

bool JobService::admitAndQueue(JobRequest&& request) {
  auto& config = request.config;
  // Admission control: every rejection is a structured report, never an
  // exception and never an OOM later.
  if (!config.faultPlan.empty() && !limits_.allowFaultPlans) {
    emitRejection(request, RejectReason::FaultPlanForbidden,
                  "job-scoped fault plans are disabled on this daemon");
    return false;
  }
  if (limits_.maxDDNodes != 0) {
    if (config.maxDDNodes == 0) {
      config.maxDDNodes = limits_.maxDDNodes; // inherit the daemon cap
    } else if (config.maxDDNodes > limits_.maxDDNodes) {
      emitRejection(request, RejectReason::BudgetExceedsLimit,
                    "maxDDNodes " + std::to_string(config.maxDDNodes) +
                        " exceeds the daemon cap of " +
                        std::to_string(limits_.maxDDNodes));
      return false;
    }
  }
  if (limits_.maxMemoryMB != 0) {
    if (config.maxMemoryMB == 0) {
      config.maxMemoryMB = limits_.maxMemoryMB;
    } else if (config.maxMemoryMB > limits_.maxMemoryMB) {
      emitRejection(request, RejectReason::BudgetExceedsLimit,
                    "maxMemoryMB " + std::to_string(config.maxMemoryMB) +
                        " exceeds the daemon cap of " +
                        std::to_string(limits_.maxMemoryMB));
      return false;
    }
    // Current (not peak) RSS: a daemon that already sits at its memory cap
    // sheds load instead of letting the next job push it over.
    const auto rssKB = dd::Package::currentResidentSetKB();
    if (rssKB > limits_.maxMemoryMB * 1024) {
      emitRejection(request, RejectReason::MemoryBudget,
                    "process resident set " + std::to_string(rssKB) +
                        " KB exceeds the daemon budget of " +
                        std::to_string(limits_.maxMemoryMB * 1024) + " KB");
      return false;
    }
  }
  {
    support::LockGuard lock(mutex_);
    if (stopping_) {
      lock.unlock();
      emitRejection(request, RejectReason::ShuttingDown,
                    "daemon is shutting down");
      return false;
    }
    if (queue_.size() >= limits_.maxQueuedJobs) {
      lock.unlock();
      emitRejection(request, RejectReason::QueueFull,
                    "admission queue holds " +
                        std::to_string(limits_.maxQueuedJobs) + " jobs");
      return false;
    }
    queue_.push_back(std::move(request));
    ++stats_.admitted;
    ++stats_.queued;
    const auto depth = static_cast<double>(queue_.size());
    const support::LockGuard metricsLock(metricsMutex_);
    metrics_.add("serve/jobs_admitted", 1.0);
    metrics_.max("serve/queue_peak", depth);
  }
  workAvailable_.notify_one();
  return true;
}

void JobService::workerLoop(const std::size_t slot) {
  while (true) {
    JobRequest request;
    {
      support::LockGuard lock(mutex_);
      // Explicit wait loop: a predicate lambda is a separate function to the
      // thread safety analysis and cannot see that mutex_ is held, so the
      // guarded reads live in this (annotated) frame instead.
      while (!stopping_ && queue_.empty()) {
        workAvailable_.wait(lock);
      }
      if (queue_.empty()) {
        return; // stopping_ and drained
      }
      request = std::move(queue_.front());
      queue_.pop_front();
      --stats_.queued;
      ++stats_.active;
      ++activeCount_;
    }
    runJob(slot, std::move(request));
    {
      const support::LockGuard lock(mutex_);
      --stats_.active;
      --activeCount_;
      ++stats_.completed;
    }
    idle_.notify_all();
  }
}

void JobService::runJob(const std::size_t slot, JobRequest request) {
  auto& config = request.config;
  obs::Json report;
  try {
    const auto c1 = loadCircuit(request.file1);
    const auto c2 = loadCircuit(request.file2);
    check::EquivalenceCheckingManager manager(c1, c2, config);
    manager.useTaskPool(&pool_);
    {
      const support::LockGuard lock(mutex_);
      running_[slot] = &manager;
      if (cancelRequested_) {
        // Shutdown raced this job's start: cancel before the first engine
        // poll so the report honestly records Cancelled.
        manager.requestCancel();
      }
    }
    auto combined = manager.run();
    {
      const support::LockGuard lock(mutex_);
      running_[slot] = nullptr;
    }
    report = check::buildRunReport(manager, combined, config);
    {
      const support::LockGuard lock(metricsMutex_);
      metrics_.add("serve/jobs_completed", 1.0);
      metrics_.add("serve/verdict." + check::criterionKey(combined.criterion),
                   1.0);
      // Per-job counters sum into the daemon totals (Sum counters add, Max
      // counters take the daemon-wide maximum): the manager's own counters
      // once, then every engine's kernel counters once.
      metrics_.merge(combined.counters);
      for (const auto& engine : manager.engineResults()) {
        metrics_.merge(engine.counters);
      }
    }
  } catch (const std::exception& e) {
    {
      const support::LockGuard lock(mutex_);
      running_[slot] = nullptr;
    }
    // The job was admitted but could not run (unreadable circuit file,
    // parse error, report-layer fault): still one report line, with the
    // frontend failure recorded as an engine_error verdict.
    check::Result failure;
    failure.method = "veriqcd-frontend";
    failure.criterion = check::EquivalenceCriterion::EngineError;
    failure.errorMessage = e.what();
    report = check::buildRunReport(failure, {}, config, {});
    const support::LockGuard lock(metricsMutex_);
    metrics_.add("serve/jobs_completed", 1.0);
    metrics_.add("serve/verdict." +
                     check::criterionKey(failure.criterion),
                 1.0);
  }
  emitReport(request, std::move(report));
}

void JobService::emitReport(const JobRequest& request, obs::Json report) {
  auto job = obs::Json::object();
  job["id"] = request.id;
  job["admitted"] = true;
  job["reason"] = "";
  job["detail"] = "";
  report["job"] = std::move(job);
  if (sink_) {
    sink_(request.id, report);
  }
}

void JobService::emitRejection(const JobRequest& request,
                               const RejectReason reason,
                               const std::string& detail) {
  // A rejected job still yields a schema-valid veriqc-report/v1 line: the
  // combined verdict is not_run, the engines array is empty, and the job
  // object carries the structured reason.
  check::Result notRun;
  notRun.method = "veriqcd-admission";
  notRun.criterion = check::EquivalenceCriterion::NotRun;
  notRun.errorMessage = detail;
  auto report = check::buildRunReport(notRun, {}, request.config, {});
  auto job = obs::Json::object();
  job["id"] = request.id;
  job["admitted"] = false;
  job["reason"] = toString(reason);
  job["detail"] = detail;
  report["job"] = std::move(job);
  {
    const support::LockGuard lock(mutex_);
    ++stats_.rejected;
  }
  {
    const support::LockGuard lock(metricsMutex_);
    metrics_.add("serve/jobs_rejected", 1.0);
    metrics_.add("serve/rejected." + toString(reason), 1.0);
  }
  if (sink_) {
    sink_(request.id, report);
  }
}

void JobService::drain() {
  support::LockGuard lock(mutex_);
  while (!queue_.empty() || activeCount_ != 0) {
    idle_.wait(lock);
  }
}

void JobService::shutdown(const bool cancelInFlight) {
  // Serialize shutdown end to end. Without this lock, two concurrent
  // shutdown() calls could both get past the already-shut-down check and
  // race each other joining and clearing workers_ — and joining the same
  // std::thread twice is undefined behaviour. The loser blocks here until
  // the winner has finished the joins, then observes the drained state and
  // returns early.
  const support::LockGuard shutdownLock(shutdownMutex_);
  std::deque<JobRequest> abandoned;
  {
    const support::LockGuard lock(mutex_);
    if (stopping_ && workers_.empty()) {
      return; // already shut down
    }
    stopping_ = true;
    if (cancelInFlight) {
      cancelRequested_ = true;
      for (auto* manager : running_) {
        if (manager != nullptr) {
          manager->requestCancel();
        }
      }
    }
    abandoned.swap(queue_);
    stats_.queued = 0;
  }
  workAvailable_.notify_all();
  // Queued-but-never-started jobs are rejected, not silently dropped: the
  // client still gets one report line per submission.
  for (const auto& request : abandoned) {
    emitRejection(request, RejectReason::ShuttingDown,
                  "daemon shut down before the job could start");
  }
  for (auto& worker : workers_) {
    if (worker.joinable()) {
      worker.join();
    }
  }
  workers_.clear();
  idle_.notify_all();
}

obs::Json JobService::metricsJson() const {
  obs::CounterRegistry snapshot;
  {
    const support::LockGuard lock(metricsMutex_);
    snapshot.merge(metrics_);
  }
  auto j = obs::Json::object();
  j["schema"] = "veriqc-metrics/v1";
  j["counters"] = check::serializeCounters(snapshot);
  return j;
}

ServiceStats JobService::stats() const {
  const support::LockGuard lock(mutex_);
  return stats_;
}

void LineSplitter::feed(std::string_view bytes) {
  while (!bytes.empty()) {
    const auto newline = bytes.find('\n');
    const auto piece = bytes.substr(0, newline);
    if (!oversized_) {
      // A pending line that is not oversized holds at most maxLineBytes_.
      const auto room = maxLineBytes_ - pending_.size();
      if (piece.size() > room) {
        pending_.append(piece.substr(0, room + 1));
        submit_(pending_);
        pending_.clear();
        oversized_ = true;
      } else {
        pending_.append(piece);
      }
    }
    if (newline == std::string_view::npos) {
      return;
    }
    finish();
    bytes.remove_prefix(newline + 1);
  }
}

void LineSplitter::finish() {
  if (!oversized_ && !pending_.empty()) {
    submit_(pending_);
  }
  pending_.clear();
  oversized_ = false;
}

} // namespace veriqc::serve

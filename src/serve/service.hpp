/// \file service.hpp
/// \brief The veriqcd job service: admission control, a shared worker pool,
///        and one veriqc-report/v1 object per submitted job.
///
/// JobService is the daemon's core, front-end-agnostic: stdin and Unix-socket
/// ingress both feed submitLine() through a LineSplitter, which enforces the
/// line limit before a line is held whole. The lifecycle of one job:
///
///   submitLine -> parse (strict protocol) -> admission control -> queue
///     -> worker: parse circuits, run a per-job EquivalenceCheckingManager
///        on the shared TaskPool (every check builds its gate DDs in its
///        own packages)
///     -> report sink (one schema-valid report line, job object attached)
///
/// Admission control rejects — with a structured reason, never by OOMing —
/// when the queue is full, the process RSS is too close to the daemon's
/// memory cap, the job requests budgets above the daemon-wide caps, or the
/// job carries a fault plan the daemon forbids. Every rejection still emits
/// a schema-valid report (verdict "not_run", job.admitted == false), so the
/// one-line-in / one-report-out invariant holds for every submission.
///
/// Shared state across jobs:
///  - one TaskPool: every manager's parallel rounds run on it
///    (Manager::useTaskPool), so the daemon's thread count is fixed instead
///    of per-job pools churning threads. Every engine runs on one thread,
///    so no job can make the daemon start threads in proportion to a
///    number it sends;
///  - one CounterRegistry: per-job counters merge into the daemon metrics
///    (metricsJson), alongside serve/-prefixed service counters.
///
/// Fault-plan scoping: the constructor disarms whatever VERIQC_FAULT armed
/// at registry birth — under a daemon the environment plan is stale by
/// definition, and the only legitimate arming path is the job-scoped
/// ScopedPlan inside Manager::run() (gated by limits.allowFaultPlans).
#pragma once

#include "check/result.hpp"
#include "check/task_pool.hpp"
#include "obs/counters.hpp"
#include "obs/json.hpp"
#include "serve/job.hpp"
#include "support/mutex.hpp"

#include <cstddef>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

namespace veriqc::check {
class EquivalenceCheckingManager;
} // namespace veriqc::check

namespace veriqc::serve {

/// Daemon-wide resource policy. Zero means "unlimited" for the budget
/// knobs, mirroring check::Configuration.
struct ServiceLimits {
  /// Jobs checked concurrently (worker threads). Keep at 1 when jobs may
  /// carry fault plans: the fault registry is process-global.
  std::size_t maxActiveJobs = 1;
  /// Admitted jobs waiting for a worker before queue_full rejections start.
  std::size_t maxQueuedJobs = 64;
  /// Slots of the shared TaskPool all jobs' parallel rounds run on.
  std::size_t poolSlots = 0; ///< 0 = hardware concurrency
  /// Daemon memory cap in MB: jobs are rejected (memory_budget) while the
  /// current process RSS exceeds it, and it caps/defaults every job's own
  /// maxMemoryMB budget.
  std::size_t maxMemoryMB = 0;
  /// Daemon-wide cap on a job's maxDDNodes budget (and the default for jobs
  /// that do not set one).
  std::size_t maxDDNodes = 0;
  /// Protocol guard: longest accepted request line, in bytes.
  std::size_t maxLineBytes = 1U << 20U;
  /// Permit job-scoped fault plans (tests); rejected otherwise.
  bool allowFaultPlans = false;
  /// No effect, and nothing reads it: jobs share no gate DDs. Kept only
  /// because bench/e2e/serve.cpp assigns it; it goes with the next change
  /// to that benchmark.
  bool useSharedGateCache = true;
};

/// Point-in-time service statistics (under one lock, mutually consistent).
struct ServiceStats {
  std::size_t submitted = 0;
  std::size_t admitted = 0;
  std::size_t rejected = 0;
  std::size_t completed = 0;
  std::size_t queued = 0;   ///< currently waiting
  std::size_t active = 0;   ///< currently running
};

class JobService {
public:
  /// Receives every finished job's report (admitted runs and rejections
  /// alike), already carrying the "job" object. Called from worker threads
  /// (or the submitting thread, for rejections) — the sink must be
  /// thread-safe; the front-end serializes lines under its own lock.
  using ReportSink =
      std::function<void(const std::string& jobId, const obs::Json& report)>;

  JobService(ServiceLimits limits, check::Configuration defaults,
             ReportSink sink);
  /// Implies shutdown(/*cancelInFlight=*/true).
  ~JobService();

  JobService(const JobService&) = delete;
  JobService& operator=(const JobService&) = delete;

  /// Submit one protocol line. Returns true when the job was admitted; on
  /// rejection the structured rejection report has already been emitted.
  bool submitLine(std::string_view line);

  /// Submit a pre-parsed request (same admission control).
  bool submit(JobRequest request);

  /// Block until every admitted job has finished and its report is emitted.
  void drain();

  /// Stop accepting jobs, reject everything still queued (shutting_down),
  /// optionally cancel in-flight jobs (their reports record verdict
  /// Cancelled — the run is accounted, not lost), and join the workers.
  /// Idempotent.
  void shutdown(bool cancelInFlight);

  /// Daemon metrics: serve/ service counters plus the merged per-job kernel
  /// counters, as {"schema": "veriqc-metrics/v1", "counters": {...}}.
  [[nodiscard]] obs::Json metricsJson() const;

  [[nodiscard]] ServiceStats stats() const;

private:
  bool admitAndQueue(JobRequest&& request);
  void workerLoop(std::size_t slot);
  void runJob(std::size_t slot, JobRequest request);
  void emitRejection(const JobRequest& request, RejectReason reason,
                     const std::string& detail);
  void emitReport(const JobRequest& request, obs::Json report);

  ServiceLimits limits_;
  check::Configuration defaults_;
  ReportSink sink_;

  check::TaskPool pool_;

  // Lock order (outermost first): shutdownMutex_ -> mutex_ -> metricsMutex_.
  // Never acquire a mutex earlier in this list while holding a later one.
  mutable support::Mutex mutex_;
  support::CondVar workAvailable_;
  support::CondVar idle_;
  std::deque<JobRequest> queue_ VERIQC_GUARDED_BY(mutex_);
  /// Managers of in-flight jobs, for shutdown-time cancellation. Keyed by
  /// worker thread index.
  std::vector<check::EquivalenceCheckingManager*> running_
      VERIQC_GUARDED_BY(mutex_);
  std::size_t activeCount_ VERIQC_GUARDED_BY(mutex_) = 0;
  bool stopping_ VERIQC_GUARDED_BY(mutex_) = false;
  bool cancelRequested_ VERIQC_GUARDED_BY(mutex_) = false;
  ServiceStats stats_ VERIQC_GUARDED_BY(mutex_);

  mutable support::Mutex metricsMutex_;
  obs::CounterRegistry metrics_ VERIQC_GUARDED_BY(metricsMutex_);

  /// Serializes shutdown() end to end and guards the worker handles it
  /// joins: two concurrent shutdown() calls must not race join()/clear()
  /// (joining a std::thread twice is undefined behaviour). The constructor
  /// populates workers_ before any other thread can observe the service, so
  /// it needs no lock (constructors are exempt from the analysis anyway).
  support::Mutex shutdownMutex_;
  std::vector<std::thread> workers_ VERIQC_GUARDED_BY(shutdownMutex_);
};

/// Cuts an ingress byte stream into request lines for submitLine(), holding
/// at most maxLineBytes + 1 bytes of a pending line, so the line limit bounds
/// memory as the bytes arrive. A longer line is submitted once, as its first
/// maxLineBytes + 1 bytes (which submitLine() rejects as oversized_request),
/// and the rest of it is dropped up to the next newline. Empty lines are
/// skipped; every other line is submitted exactly once.
class LineSplitter {
public:
  using Submit = std::function<void(std::string_view line)>;

  LineSplitter(std::size_t maxLineBytes, Submit submit)
      : maxLineBytes_(maxLineBytes), submit_(std::move(submit)) {}

  /// Feed the next bytes of the stream.
  void feed(std::string_view bytes);
  /// End of stream: submit a last line that has no newline.
  void finish();

private:
  std::size_t maxLineBytes_;
  Submit submit_;
  std::string pending_;
  bool oversized_ = false; ///< the pending line was submitted already
};

} // namespace veriqc::serve

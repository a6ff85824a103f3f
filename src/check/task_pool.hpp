/// \file task_pool.hpp
/// \brief Shared task pool for the checker layer: one FIFO queue, one lock.
///
/// The pool serves the one parallel path of the checker layer: the
/// manager's racing engines, each of which runs on one thread (veriqcd
/// shares one pool across all its jobs' managers). Tasks wait in a single
/// FIFO queue. The `slots - 1` spawned workers take tasks from its front, and
/// so does every thread blocked in TaskGroup::wait(), so a pool of N slots
/// yields N-way parallelism from N-1 threads.
///
/// One mutex guards the queue and every group's bookkeeping; one condition
/// variable is signalled when a task is queued, when a group drains and at
/// shutdown. The pool runs a few long engine tasks at once, so the single
/// lock is never held for long.
///
/// Contracts the checker layer relies on:
///  - Cancellation: once a group is cancelled (explicitly, or poisoned by a
///    task exception) its queued tasks are dropped and later submissions are
///    refused; both count as skipped. Running tasks are expected to poll
///    their own stop tokens, as every engine already does.
///  - Exception containment: the first exception a task throws is captured
///    and rethrown from TaskGroup::wait() on the submitting thread; later
///    exceptions of the same group are counted, not rethrown. A task
///    exception never unwinds a pool thread.
#pragma once

#include "support/mutex.hpp"

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

namespace veriqc::check {

class TaskGroup;

/// The pool. Deliberately scoped, not a process singleton: every parallel
/// section constructs a pool sized to its configured parallelism and tears
/// it down when done, which keeps thread ownership as explicit as package
/// ownership.
class TaskPool {
public:
  /// \param slots total execution slots, including the waiting thread;
  ///        clamped to at least 1. `slots == 1` spawns no threads at all:
  ///        every task runs inline in wait(), in submission order.
  explicit TaskPool(std::size_t slots);
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;
  ~TaskPool();

  /// Execution slots for a configured thread-count knob: 0 means hardware
  /// concurrency, anything else is taken literally (>= 1).
  [[nodiscard]] static std::size_t resolveSlots(std::size_t configured);

private:
  friend class TaskGroup;

  struct Task {
    TaskGroup* group;
    std::function<void()> fn;
  };

  void workerLoop();

  support::Mutex mutex_;
  support::CondVar changed_;
  std::deque<Task> queue_ VERIQC_GUARDED_BY(mutex_);
  bool shutdown_ VERIQC_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> workers_; // only the owning thread touches it
};

/// A batch of related tasks submitted to a TaskPool. The owner submits
/// tasks, then blocks in wait(), which lends the calling thread to the pool
/// until every task of the group has either run or been skipped.
class TaskGroup {
public:
  explicit TaskGroup(TaskPool& pool) : pool_(pool) {}
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;
  /// Cancels, then waits for the running tasks (without rethrowing), so a
  /// group can never outlive the state its tasks capture by reference.
  ~TaskGroup();

  /// Queue one task, or skip it if the group is already cancelled.
  void submit(std::function<void()> fn);

  /// Mark the group cancelled: queued tasks are dropped, later submissions
  /// are skipped. Running tasks keep running (they poll their own stop
  /// tokens).
  void cancel() noexcept;

  /// Run queued tasks on the calling thread until the group is drained, then
  /// rethrow the first captured task exception, if any.
  void wait();

  /// Tasks that were skipped because the group was cancelled before they
  /// started. Meaningful after wait().
  [[nodiscard]] std::size_t skippedTasks() const noexcept;

  /// Task exceptions beyond the first: they lose the wait() rethrow race and
  /// would otherwise vanish without a trace. Callers surface this count into
  /// the run report (`task_pool/suppressed_exceptions`). Meaningful after
  /// wait().
  [[nodiscard]] std::size_t suppressedExceptions() const noexcept;

private:
  friend class TaskPool;

  /// Run one task of this group (the pool's lock not held) and record its
  /// outcome.
  void run(const std::function<void()>& fn);
  void cancelLocked() VERIQC_REQUIRES(pool_.mutex_);
  /// Help run queued tasks until this group has drained; returns (and
  /// clears) the first task exception.
  std::exception_ptr drain();

  TaskPool& pool_;
  /// Queued or running tasks.
  std::size_t pending_ VERIQC_GUARDED_BY(pool_.mutex_) = 0;
  std::size_t skipped_ VERIQC_GUARDED_BY(pool_.mutex_) = 0;
  std::size_t suppressedExceptions_ VERIQC_GUARDED_BY(pool_.mutex_) = 0;
  bool cancelled_ VERIQC_GUARDED_BY(pool_.mutex_) = false;
  std::exception_ptr firstError_ VERIQC_GUARDED_BY(pool_.mutex_);
};

} // namespace veriqc::check

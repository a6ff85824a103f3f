/// \file task_pool.hpp
/// \brief Shared work-stealing task pool for the checker layer.
///
/// One pool serves every parallel path of the checker layer: the manager's
/// concurrent engines and the random-stimuli worker pool. Each execution
/// slot (the calling thread plus `slots - 1` spawned workers) owns a deque;
/// submission round-robins across the deques, an idle slot steals from the
/// back of a victim's deque, and the submitting thread itself executes tasks
/// while it waits — so a pool of N slots yields exactly N-way parallelism
/// with N-1 threads.
///
/// Contracts the checker layer relies on:
///  - Cancellation: once a group is cancelled (explicitly, or poisoned by a
///    task exception) its queued-but-unstarted tasks are skipped, not run.
///    Running tasks are expected to poll their own stop tokens, as every
///    engine already does.
///  - Exception containment: the first exception a task throws is captured
///    and rethrown from TaskGroup::wait() on the submitting thread; later
///    exceptions of the same group are dropped (the group is cancelled by
///    the first). A task exception never unwinds a pool thread.
///  - Observability: when a group is given an obs::PhaseTimer, every task
///    records a span named by its label for the run report's phase list.
#pragma once

#include "obs/phase_timer.hpp"
#include "support/mutex.hpp"

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace veriqc::check {

class TaskPool;

/// A batch of related tasks submitted to a TaskPool. The owner submits
/// tasks, then blocks in wait(), which lends the calling thread to the pool
/// until every task of the group has either run or been skipped.
class TaskGroup {
public:
  /// \param phases optional span sink: each executed task records a span
  ///        named by its submit() label.
  explicit TaskGroup(TaskPool& pool, obs::PhaseTimer* phases = nullptr);
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;
  /// Destruction waits for stragglers (without rethrowing), so a group can
  /// never outlive the state its tasks capture by reference.
  ~TaskGroup();

  /// Queue one task. `fn` receives the executing slot index
  /// (0 .. TaskPool::slotCount()-1), stable per task execution — the anchor
  /// for slot-local state such as per-worker DD packages.
  void submit(std::string label, std::function<void(std::size_t)> fn);

  /// Mark the group cancelled: unstarted tasks are skipped. Running tasks
  /// keep running (they poll their own stop tokens).
  void cancel() noexcept;
  [[nodiscard]] bool cancelled() const noexcept;

  /// Run tasks on the calling thread until the group is drained, then
  /// rethrow the first captured task exception, if any.
  void wait();

  /// Tasks that were skipped (group cancelled before they started).
  /// Meaningful after wait().
  [[nodiscard]] std::size_t skippedTasks() const noexcept;

  /// Task exceptions beyond the first: they lose the wait() rethrow race and
  /// would otherwise vanish without a trace. Callers surface this count into
  /// the run report (`task_pool/suppressed_exceptions`). Meaningful after
  /// wait().
  [[nodiscard]] std::size_t suppressedExceptions() const noexcept;

private:
  friend class TaskPool;

  TaskPool& pool_;
  // Set once in the constructor and only read afterwards (pool threads read
  // it concurrently) — immutable state needs no capability.
  obs::PhaseTimer* phases_;

  mutable support::Mutex mutex_;
  support::CondVar done_;
  /// Submitted but not yet finished/skipped.
  std::size_t pending_ VERIQC_GUARDED_BY(mutex_) = 0;
  std::size_t skipped_ VERIQC_GUARDED_BY(mutex_) = 0;
  std::size_t suppressedExceptions_ VERIQC_GUARDED_BY(mutex_) = 0;
  bool cancelled_ VERIQC_GUARDED_BY(mutex_) = false;
  std::exception_ptr firstError_ VERIQC_GUARDED_BY(mutex_);
};

/// The work-stealing pool. Deliberately scoped, not a process singleton:
/// every parallel section constructs a pool sized to its configured
/// parallelism and tears it down when done, which keeps thread ownership as
/// explicit as package ownership.
class TaskPool {
public:
  /// \param slots total execution slots, including the calling thread;
  ///        clamped to at least 1. `slots == 1` spawns no threads at all:
  ///        every task runs inline in wait(), in submission order.
  explicit TaskPool(std::size_t slots);
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;
  ~TaskPool();

  [[nodiscard]] std::size_t slotCount() const noexcept {
    return queues_.size();
  }

  /// Execution slots for a configured thread-count knob: 0 means hardware
  /// concurrency, anything else is taken literally (>= 1).
  [[nodiscard]] static std::size_t resolveSlots(std::size_t configured);

private:
  friend class TaskGroup;

  struct Task {
    TaskGroup* group;
    std::function<void(std::size_t)> fn;
    std::string label;
  };

  struct Queue {
    support::Mutex mutex;
    std::deque<Task> tasks VERIQC_GUARDED_BY(mutex);
  };

  void enqueue(Task task);
  /// Pop from the front of `preferred`, else steal from the back of another
  /// queue. Returns false when every queue is empty.
  bool tryTake(std::size_t preferred, Task& out);
  void runTask(Task& task, std::size_t slot);
  void workerLoop(std::size_t slot);
  /// Help drain queues until `group` has no pending tasks.
  void helpUntilDone(TaskGroup& group);

  // queues_/workers_ are sized in the constructor and never resized; the
  // Queue objects they point at carry their own capabilities.
  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;

  support::Mutex sleepMutex_;
  support::CondVar work_;
  std::size_t nextQueue_ VERIQC_GUARDED_BY(sleepMutex_) = 0;
  bool shutdown_ VERIQC_GUARDED_BY(sleepMutex_) = false;
};

} // namespace veriqc::check

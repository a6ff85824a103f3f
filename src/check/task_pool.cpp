#include "check/task_pool.hpp"

#include "fault/fault.hpp"

#include <chrono>
#include <utility>

namespace veriqc::check {

// --- TaskGroup ---------------------------------------------------------------

TaskGroup::TaskGroup(TaskPool& pool, obs::PhaseTimer* phases)
    : pool_(pool), phases_(phases) {}

TaskGroup::~TaskGroup() {
  // A group must never outlive its tasks: drain without rethrowing (wait()
  // is the reporting path; the destructor only guarantees quiescence).
  cancel();
  pool_.helpUntilDone(*this);
}

void TaskGroup::submit(std::string label, std::function<void(std::size_t)> fn) {
  {
    const support::LockGuard lock(mutex_);
    ++pending_;
  }
  try {
    pool_.enqueue({this, std::move(fn), std::move(label)});
  } catch (...) {
    // Roll the count back, or wait()/~TaskGroup would block forever on a
    // task that never reached a queue.
    const support::LockGuard lock(mutex_);
    if (--pending_ == 0) {
      done_.notify_all();
    }
    throw;
  }
}

void TaskGroup::cancel() noexcept {
  const support::LockGuard lock(mutex_);
  cancelled_ = true;
}

bool TaskGroup::cancelled() const noexcept {
  const support::LockGuard lock(mutex_);
  return cancelled_;
}

void TaskGroup::wait() {
  pool_.helpUntilDone(*this);
  const support::LockGuard lock(mutex_);
  if (firstError_) {
    auto error = std::exchange(firstError_, nullptr);
    std::rethrow_exception(error);
  }
}

std::size_t TaskGroup::skippedTasks() const noexcept {
  const support::LockGuard lock(mutex_);
  return skipped_;
}

std::size_t TaskGroup::suppressedExceptions() const noexcept {
  const support::LockGuard lock(mutex_);
  return suppressedExceptions_;
}

// --- TaskPool ----------------------------------------------------------------

TaskPool::TaskPool(const std::size_t slots) {
  const std::size_t count = slots == 0 ? 1 : slots;
  queues_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
  // Slot 0 belongs to the submitting thread (it participates via wait()).
  workers_.reserve(count - 1);
  for (std::size_t slot = 1; slot < count; ++slot) {
    workers_.emplace_back([this, slot] { workerLoop(slot); });
  }
}

TaskPool::~TaskPool() {
  {
    const support::LockGuard lock(sleepMutex_);
    shutdown_ = true;
  }
  work_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
}

std::size_t TaskPool::resolveSlots(const std::size_t configured) {
  if (configured != 0) {
    return configured;
  }
  const auto hw = static_cast<std::size_t>(std::thread::hardware_concurrency());
  return hw == 0 ? 1 : hw;
}

void TaskPool::enqueue(Task task) {
  std::size_t target = 0;
  {
    const support::LockGuard lock(sleepMutex_);
    target = nextQueue_;
    nextQueue_ = (nextQueue_ + 1) % queues_.size();
  }
  {
    auto& queue = *queues_[target];
    const support::LockGuard lock(queue.mutex);
    queue.tasks.push_back(std::move(task));
  }
  // Notify while holding sleepMutex_: a worker's empty-recheck and its
  // wait() form one critical section under sleepMutex_, so an unlocked
  // notify could fire exactly between them (push not yet visible at the
  // recheck, notify gone before the wait) and the worker would sleep
  // through a queued task. Taking the mutex forces this notify to land
  // either before the recheck (which then sees the task) or after the
  // worker started waiting (which then receives it).
  {
    const support::LockGuard lock(sleepMutex_);
    work_.notify_all();
  }
}

bool TaskPool::tryTake(const std::size_t preferred, Task& out) {
  // Own deque first (front: submission order), then steal from the back of
  // the other deques — the classic split that keeps owners cache-local and
  // thieves out of their way.
  {
    auto& queue = *queues_[preferred];
    const support::LockGuard lock(queue.mutex);
    if (!queue.tasks.empty()) {
      out = std::move(queue.tasks.front());
      queue.tasks.pop_front();
      return true;
    }
  }
  for (std::size_t i = 1; i < queues_.size(); ++i) {
    auto& victim = *queues_[(preferred + i) % queues_.size()];
    const support::LockGuard lock(victim.mutex);
    if (!victim.tasks.empty()) {
      out = std::move(victim.tasks.back());
      victim.tasks.pop_back();
      return true;
    }
  }
  return false;
}

void TaskPool::runTask(Task& task, const std::size_t slot) {
  TaskGroup& group = *task.group;
  bool skip = false;
  {
    const support::LockGuard lock(group.mutex_);
    skip = group.cancelled_;
  }
  if (!skip) {
    try {
      VERIQC_FAULT_POINT(fault::points::kPoolTaskStart,
                         fault::FaultKind::Runtime);
      if (group.phases_ != nullptr) {
        auto span = group.phases_->scope(task.label);
        task.fn(slot);
      } else {
        task.fn(slot);
      }
    } catch (...) {
      const support::LockGuard lock(group.mutex_);
      if (!group.firstError_) {
        group.firstError_ = std::current_exception();
      } else {
        // Later exceptions lose the rethrow race; count them so callers can
        // surface the loss instead of silently dropping it.
        ++group.suppressedExceptions_;
      }
      // A failed task poisons the whole group: there is no point running
      // its siblings against state the exception may have abandoned.
      group.cancelled_ = true;
    }
  }
  {
    const support::LockGuard lock(group.mutex_);
    if (skip) {
      ++group.skipped_;
    }
    if (--group.pending_ == 0) {
      // Notify while still holding the mutex: the waiter is free to destroy
      // the group the moment it observes pending_ == 0 (wait()/~TaskGroup
      // return paths), so the condition variable must not be touched after
      // this lock is released.
      group.done_.notify_all();
    }
  }
}

void TaskPool::workerLoop(const std::size_t slot) {
  while (true) {
    Task task;
    if (tryTake(slot, task)) {
      runTask(task, slot);
      continue;
    }
    support::LockGuard lock(sleepMutex_);
    if (shutdown_) {
      return;
    }
    // Re-check under the lock: an enqueue between the failed tryTake and
    // this wait would otherwise be missed (its notify already fired).
    bool anyWork = false;
    for (const auto& queuePtr : queues_) {
      auto& queue = *queuePtr;
      const support::LockGuard queueLock(queue.mutex);
      if (!queue.tasks.empty()) {
        anyWork = true;
        break;
      }
    }
    if (anyWork) {
      continue;
    }
    work_.wait(lock);
  }
}

void TaskPool::helpUntilDone(TaskGroup& group) {
  while (true) {
    {
      const support::LockGuard lock(group.mutex_);
      if (group.pending_ == 0) {
        return;
      }
    }
    Task task;
    if (tryTake(0, task)) {
      // The helper may pick up tasks of *other* groups too — work is work,
      // and draining a sibling group can only speed up our own turn.
      runTask(task, 0);
      continue;
    }
    // Nothing to steal: our remaining tasks are running on workers. Block
    // until the group count hits zero.
    support::LockGuard lock(group.mutex_);
    if (group.pending_ == 0) {
      return;
    }
    group.done_.wait_for(lock, std::chrono::milliseconds(1));
  }
}

} // namespace veriqc::check

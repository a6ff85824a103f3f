#include "check/task_pool.hpp"

#include "fault/fault.hpp"

#include <utility>

namespace veriqc::check {

// --- TaskPool ----------------------------------------------------------------

TaskPool::TaskPool(const std::size_t slots) {
  // The thread in TaskGroup::wait() is one of the slots.
  const std::size_t count = slots == 0 ? 1 : slots;
  workers_.reserve(count - 1);
  for (std::size_t i = 1; i < count; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

TaskPool::~TaskPool() {
  {
    const support::LockGuard lock(mutex_);
    shutdown_ = true;
    changed_.notify_all();
  }
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

void TaskPool::workerLoop() {
  support::LockGuard lock(mutex_);
  while (!shutdown_) {
    if (queue_.empty()) {
      changed_.wait(lock);
      continue;
    }
    Task task = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    task.group->run(task.fn);
    lock.lock();
  }
}

// --- TaskGroup ---------------------------------------------------------------

TaskGroup::~TaskGroup() {
  // wait() is the reporting path; the destructor only guarantees that no
  // task of this group is queued or running once it returns.
  cancel();
  drain();
}

void TaskGroup::submit(std::function<void()> fn) {
  const support::LockGuard lock(pool_.mutex_);
  if (cancelled_) {
    ++skipped_;
    return;
  }
  pool_.queue_.push_back({this, std::move(fn)});
  ++pending_;
  pool_.changed_.notify_all();
}

void TaskGroup::cancel() noexcept {
  const support::LockGuard lock(pool_.mutex_);
  cancelLocked();
}

void TaskGroup::cancelLocked() {
  cancelled_ = true;
  const auto dropped =
      std::erase_if(pool_.queue_, [this](const TaskPool::Task& task) {
        return task.group == this;
      });
  skipped_ += dropped;
  // No wakeup needed even if this drains the group: its owner only sleeps
  // in drain() while the queue is empty, so it never waits on these tasks.
  pending_ -= dropped;
}

void TaskGroup::wait() {
  if (auto error = drain()) {
    std::rethrow_exception(error);
  }
}

std::size_t TaskGroup::skippedTasks() const noexcept {
  const support::LockGuard lock(pool_.mutex_);
  return skipped_;
}

std::size_t TaskGroup::suppressedExceptions() const noexcept {
  const support::LockGuard lock(pool_.mutex_);
  return suppressedExceptions_;
}

void TaskGroup::run(const std::function<void()>& fn) {
  std::exception_ptr error;
  try {
    VERIQC_FAULT_POINT(fault::points::kPoolTaskStart,
                       fault::FaultKind::Runtime);
    fn();
  } catch (...) {
    error = std::current_exception();
  }
  const support::LockGuard lock(pool_.mutex_);
  if (error) {
    if (!firstError_) {
      firstError_ = error;
    } else {
      // Later exceptions lose the rethrow race; count them so callers can
      // surface the loss instead of silently dropping it.
      ++suppressedExceptions_;
    }
    // A failed task poisons the whole group: there is no point running its
    // siblings against state the exception may have abandoned.
    cancelLocked();
  }
  if (--pending_ == 0) {
    // Notify before the lock is released: the owner may destroy this group
    // as soon as it observes pending_ == 0, and pool_ is a member of it.
    pool_.changed_.notify_all();
  }
}

std::exception_ptr TaskGroup::drain() {
  support::LockGuard lock(pool_.mutex_);
  while (pending_ > 0) {
    if (pool_.queue_.empty()) {
      pool_.changed_.wait(lock);
      continue;
    }
    // The front task may belong to another group. Running it keeps this slot
    // busy, but it is not free: a long task of another group can hold this
    // thread well after its own group has drained.
    TaskPool::Task task = std::move(pool_.queue_.front());
    pool_.queue_.pop_front();
    lock.unlock();
    task.group->run(task.fn);
    lock.lock();
  }
  return std::exchange(firstError_, nullptr);
}

} // namespace veriqc::check

#include "check/task_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

namespace veriqc::check {
namespace {

TEST(TaskPoolTest, RunsEveryTaskExactlyOnce) {
  for (const std::size_t slots : {1U, 2U, 4U, 8U}) {
    TaskPool pool(slots);
    // N slots run N tasks at once: each task of this group holds its slot
    // until all N have started, which only happens if the waiting thread and
    // N-1 workers take one task each.
    std::atomic<std::size_t> started{0};
    std::atomic<bool> stalled{false};
    {
      TaskGroup barrier(pool);
      for (std::size_t i = 0; i < slots; ++i) {
        barrier.submit([&started, &stalled, slots] {
          started.fetch_add(1);
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (started.load() < slots) {
            if (std::chrono::steady_clock::now() >= deadline) {
              stalled.store(true);
              return;
            }
            std::this_thread::yield();
          }
        });
      }
      barrier.wait();
    }
    EXPECT_FALSE(stalled.load()) << "slots=" << slots;

    std::vector<std::atomic<int>> runs(64);
    TaskGroup group(pool);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      group.submit([&runs, i] { runs[i].fetch_add(1); });
    }
    group.wait();
    for (std::size_t i = 0; i < runs.size(); ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "slots=" << slots << " task=" << i;
    }
    EXPECT_EQ(group.skippedTasks(), 0U);
  }
}

TEST(TaskPoolTest, SingleSlotRunsInlineInSubmissionOrder) {
  TaskPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::vector<int> order;
  std::vector<std::thread::id> threads;
  TaskGroup group(pool);
  for (int i = 0; i < 8; ++i) {
    group.submit([&order, &threads, i] {
      order.push_back(i);
      threads.push_back(std::this_thread::get_id());
    });
  }
  group.wait();
  ASSERT_EQ(order.size(), 8U);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(threads[static_cast<std::size_t>(i)], caller);
  }
}

TEST(TaskPoolTest, FirstExceptionIsRethrownFromWait) {
  TaskPool pool(4);
  std::atomic<int> ran{0};
  TaskGroup group(pool);
  group.submit([]() -> void { throw std::runtime_error("task failed"); });
  for (int i = 0; i < 16; ++i) {
    group.submit([&ran] { ran.fetch_add(1); });
  }
  EXPECT_THROW(group.wait(), std::runtime_error);
  // A failing task cancels its group; bystanders either ran before the
  // failure or were skipped — but none may be lost.
  EXPECT_EQ(static_cast<std::size_t>(ran.load()) + group.skippedTasks(), 16U);
}

TEST(TaskPoolTest, CancelSkipsUnstartedTasks) {
  TaskPool pool(1); // inline execution makes the cancellation point exact
  std::atomic<int> ran{0};
  TaskGroup group(pool);
  group.submit([&group] { group.cancel(); });
  for (int i = 0; i < 8; ++i) {
    group.submit([&ran] { ran.fetch_add(1); });
  }
  group.wait();
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(group.skippedTasks(), 8U);
  // The group stays cancelled: a later submission is skipped as well.
  group.submit([&ran] { ran.fetch_add(1); });
  group.wait();
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(group.skippedTasks(), 9U);
}

TEST(TaskPoolTest, DestructorDrainsWithoutRethrow) {
  TaskPool pool(4);
  std::atomic<int> ran{0};
  {
    TaskGroup group(pool);
    group.submit([]() -> void { throw std::runtime_error("unobserved"); });
    for (int i = 0; i < 8; ++i) {
      group.submit([&ran] { ran.fetch_add(1); });
    }
    // No wait(): the destructor must drain the group and swallow the
    // exception instead of terminating or leaving tasks referencing `ran`.
  }
  SUCCEED();
}

TEST(TaskPoolTest, GroupsOnOnePoolAreIndependent) {
  TaskPool pool(4);
  std::atomic<int> a{0};
  std::atomic<int> b{0};
  TaskGroup groupA(pool);
  TaskGroup groupB(pool);
  groupB.cancel(); // B skips everything
  for (int i = 0; i < 16; ++i) {
    groupA.submit([&a] { a.fetch_add(1); });
    groupB.submit([&b] { b.fetch_add(1); });
  }
  groupA.wait();
  groupB.wait();
  EXPECT_EQ(a.load(), 16);
  EXPECT_EQ(b.load(), 0);
  EXPECT_EQ(groupA.skippedTasks(), 0U);
  EXPECT_EQ(groupB.skippedTasks(), 16U);
}

TEST(TaskPoolTest, ResolveSlotsMapsZeroToHardwareConcurrency) {
  EXPECT_GE(TaskPool::resolveSlots(0), 1U);
  EXPECT_EQ(TaskPool::resolveSlots(1), 1U);
  EXPECT_EQ(TaskPool::resolveSlots(6), 6U);
}

TEST(TaskPoolTest, EnqueueWakesASleepingWorkerWithoutHelp) {
  // Regression for a missed wakeup: a worker must never sleep through a
  // freshly queued task. The submitting thread never calls wait() while a
  // task is pending, so every task must be executed by a worker that the
  // submission itself woke.
  TaskPool pool(2); // exactly one worker thread to wake
  TaskGroup group(pool);
  for (int round = 0; round < 2000; ++round) {
    std::atomic<bool> ran{false};
    group.submit([&ran] { ran.store(true, std::memory_order_release); });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!ran.load(std::memory_order_acquire)) {
      const bool timedOut = std::chrono::steady_clock::now() >= deadline;
      ASSERT_FALSE(timedOut)
          << "worker never woke for the task submitted in round " << round;
      std::this_thread::yield();
    }
  }
  group.wait();
}

TEST(TaskPoolTest, WaiterIsWokenByAWorkersCompletion) {
  // The only worker takes the only task before wait() starts, so the owner
  // finds an empty queue and sleeps; nothing but that task's completion can
  // wake it.
  TaskPool pool(2);
  for (int round = 0; round < 5; ++round) {
    TaskGroup group(pool);
    std::atomic<bool> taken{false};
    group.submit([&taken] {
      taken.store(true);
      // Long enough for the owner to be asleep in wait() when this ends.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    });
    while (!taken.load()) {
      std::this_thread::yield();
    }
    std::atomic<bool> returned{false};
    std::thread owner([&group, &returned] {
      group.wait();
      returned.store(true);
    });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!returned.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(returned.load())
        << "wait() slept through the completion in round " << round;
    // On failure, keep queueing no-ops: each submission wakes the sleeping
    // owner, so the test fails instead of hanging.
    while (!returned.load()) {
      group.submit([] {});
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    owner.join();
  }
}

TEST(TaskPoolTest, ManySmallGroupsDoNotDeadlock) {
  // Regression guard for lost-wakeup bugs: rapid-fire group churn across a
  // shared pool must always terminate.
  TaskPool pool(4);
  for (int round = 0; round < 100; ++round) {
    std::atomic<int> ran{0};
    TaskGroup group(pool);
    for (int i = 0; i < 8; ++i) {
      group.submit([&ran] { ran.fetch_add(1); });
    }
    group.wait();
    ASSERT_EQ(ran.load(), 8) << "round " << round;
  }
}

} // namespace
} // namespace veriqc::check

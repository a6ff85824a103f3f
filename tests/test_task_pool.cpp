#include "check/task_pool.hpp"

#include "obs/phase_timer.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace veriqc::check {
namespace {

TEST(TaskPoolTest, RunsEveryTaskExactlyOnce) {
  for (const std::size_t slots : {1U, 2U, 4U, 8U}) {
    TaskPool pool(slots);
    EXPECT_EQ(pool.slotCount(), slots);
    std::vector<std::atomic<int>> runs(64);
    TaskGroup group(pool);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      group.submit("task" + std::to_string(i),
                   [&runs, i](std::size_t) { runs[i].fetch_add(1); });
    }
    group.wait();
    for (std::size_t i = 0; i < runs.size(); ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "slots=" << slots << " task=" << i;
    }
    EXPECT_EQ(group.skippedTasks(), 0U);
  }
}

TEST(TaskPoolTest, SlotIndicesAreInRange) {
  TaskPool pool(4);
  std::mutex mutex;
  std::set<std::size_t> seen;
  TaskGroup group(pool);
  for (int i = 0; i < 200; ++i) {
    group.submit("slot-probe", [&](const std::size_t slot) {
      const std::lock_guard<std::mutex> lock(mutex);
      seen.insert(slot);
    });
  }
  group.wait();
  for (const auto slot : seen) {
    EXPECT_LT(slot, pool.slotCount());
  }
  // Slot 0 (the waiting thread) must participate: with 200 tasks and only
  // 3 spawned workers it is statistically impossible for it to stay idle,
  // and the design guarantees it helps while waiting.
  EXPECT_FALSE(seen.empty());
}

TEST(TaskPoolTest, SingleSlotRunsInlineInSubmissionOrder) {
  TaskPool pool(1);
  std::vector<int> order;
  TaskGroup group(pool);
  for (int i = 0; i < 8; ++i) {
    group.submit("ordered", [&order, i](std::size_t) { order.push_back(i); });
  }
  group.wait();
  ASSERT_EQ(order.size(), 8U);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(TaskPoolTest, FirstExceptionIsRethrownFromWait) {
  TaskPool pool(4);
  std::atomic<int> ran{0};
  TaskGroup group(pool);
  group.submit("boom", [](std::size_t) -> void {
    throw std::runtime_error("task failed");
  });
  for (int i = 0; i < 16; ++i) {
    group.submit("bystander", [&ran](std::size_t) { ran.fetch_add(1); });
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
  group.submit("canceller", [&group](std::size_t) { group.cancel(); });
  for (int i = 0; i < 8; ++i) {
    group.submit("after-cancel", [&ran](std::size_t) { ran.fetch_add(1); });
  }
  group.wait();
  EXPECT_TRUE(group.cancelled());
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(group.skippedTasks(), 8U);
}

TEST(TaskPoolTest, DestructorDrainsWithoutRethrow) {
  TaskPool pool(4);
  std::atomic<int> ran{0};
  {
    TaskGroup group(pool);
    group.submit("boom", [](std::size_t) -> void {
      throw std::runtime_error("unobserved");
    });
    for (int i = 0; i < 8; ++i) {
      group.submit("work", [&ran](std::size_t) { ran.fetch_add(1); });
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
    groupA.submit("a", [&a](std::size_t) { a.fetch_add(1); });
    groupB.submit("b", [&b](std::size_t) { b.fetch_add(1); });
  }
  groupA.wait();
  groupB.wait();
  EXPECT_EQ(a.load(), 16);
  EXPECT_EQ(b.load(), 0);
  EXPECT_EQ(groupA.skippedTasks(), 0U);
  EXPECT_EQ(groupB.skippedTasks(), 16U);
}

TEST(TaskPoolTest, PhaseTimerRecordsTaskSpans) {
  obs::PhaseTimer phases;
  TaskPool pool(2);
  {
    TaskGroup group(pool, &phases);
    group.submit("span:alpha", [](std::size_t) {});
    group.submit("span:beta", [](std::size_t) {});
    group.wait();
  }
  std::set<std::string> names;
  for (const auto& span : phases.spans()) {
    names.insert(span.name);
  }
  EXPECT_TRUE(names.count("span:alpha") == 1);
  EXPECT_TRUE(names.count("span:beta") == 1);
}

TEST(TaskPoolTest, ResolveSlotsMapsZeroToHardwareConcurrency) {
  EXPECT_GE(TaskPool::resolveSlots(0), 1U);
  EXPECT_EQ(TaskPool::resolveSlots(1), 1U);
  EXPECT_EQ(TaskPool::resolveSlots(6), 6U);
}

TEST(TaskPoolTest, EnqueueWakesASleepingWorkerWithoutHelp) {
  // Regression for a missed wakeup: enqueue used to notify the sleep
  // condition variable without holding sleepMutex_, so the notify could land
  // exactly between a worker's locked empty-recheck and its wait() — the
  // worker then slept through the freshly queued task, and only the polling
  // fallback in helpUntilDone kept runs live. This test removes that safety
  // net: the submitting thread never calls wait() while a task is pending,
  // so every task must be executed by a worker that the enqueue itself woke.
  TaskPool pool(2); // exactly one worker thread to wake
  TaskGroup group(pool);
  for (int round = 0; round < 2000; ++round) {
    std::atomic<bool> ran{false};
    group.submit("wake", [&ran](std::size_t) {
      ran.store(true, std::memory_order_release);
    });
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

TEST(TaskPoolTest, ManySmallGroupsDoNotDeadlock) {
  // Regression guard for lost-wakeup bugs: rapid-fire group churn across a
  // shared pool must always terminate.
  TaskPool pool(4);
  for (int round = 0; round < 100; ++round) {
    std::atomic<int> ran{0};
    TaskGroup group(pool);
    for (int i = 0; i < 8; ++i) {
      group.submit("churn", [&ran](std::size_t) { ran.fetch_add(1); });
    }
    group.wait();
    ASSERT_EQ(ran.load(), 8) << "round " << round;
  }
}

} // namespace
} // namespace veriqc::check

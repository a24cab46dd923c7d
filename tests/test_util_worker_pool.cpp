// Edge cases for util::WorkerPool (the fork-join pool the allocator's
// candidate scan uses) and scheduling semantics of util::PooledExecutor
// (the N-shards-over-M-workers executor acornd runs on).
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/worker_pool.hpp"

namespace acorn::util {
namespace {

// ---------------------------------------------------------------- pool

TEST(WorkerPool, ZeroTasksReturnsImmediately) {
  WorkerPool pool(4);
  std::atomic<int> calls{0};
  pool.run(0, [&](int) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(WorkerPool, FewerTasksThanWorkersRunsEachOnce) {
  WorkerPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.run(3, [&](int i) { hits[static_cast<std::size_t>(i)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkerPool, ManyMoreTasksThanWorkersCoversAll) {
  WorkerPool pool(3);
  constexpr int kTasks = 1000;
  std::vector<std::atomic<int>> hits(kTasks);
  pool.run(kTasks, [&](int i) { hits[static_cast<std::size_t>(i)]++; });
  int total = 0;
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
    total += h.load();
  }
  EXPECT_EQ(total, kTasks);
}

TEST(WorkerPool, ExceptionInTaskRethrowsOnCaller) {
  WorkerPool pool(4);
  EXPECT_THROW(pool.run(16,
                        [](int i) {
                          if (i == 7) throw std::runtime_error("boom");
                        }),
               std::runtime_error);
}

TEST(WorkerPool, UsableAgainAfterException) {
  WorkerPool pool(4);
  EXPECT_THROW(
      pool.run(8, [](int) { throw std::runtime_error("first round"); }),
      std::runtime_error);
  std::atomic<int> calls{0};
  pool.run(8, [&](int) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 8);
}

TEST(WorkerPool, ReuseAcrossManyRounds) {
  WorkerPool pool(4);
  std::atomic<long> sum{0};
  for (int round = 0; round < 50; ++round) {
    pool.run(64, [&](int i) { sum.fetch_add(i); });
  }
  EXPECT_EQ(sum.load(), 50L * (64L * 63L / 2L));
}

TEST(WorkerPool, SingleThreadRunsInline) {
  WorkerPool pool(1);
  EXPECT_EQ(pool.threads(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(16);
  pool.run(16, [&](int i) { seen[static_cast<std::size_t>(i)] =
                                std::this_thread::get_id(); });
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

// ------------------------------------------------------------ executor

/// Counting task: each run_pass() consumes the pending count and
/// returns the preloaded wake hint.
class CountingTask : public PooledExecutor::Task {
 public:
  using Clock = PooledExecutor::Clock;

  explicit CountingTask(Clock::time_point wake = Clock::time_point::max())
      : wake_(wake) {}

  int passes() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return passes_;
  }

  /// The thread that ran the most recent pass.
  std::thread::id last_thread() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return last_thread_;
  }

  void wait_for_passes(int n) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return passes_ >= n; });
  }

  void set_wake(Clock::time_point wake) {
    const std::lock_guard<std::mutex> lock(mutex_);
    wake_ = wake;
  }

  void block_next_pass() {
    const std::lock_guard<std::mutex> lock(mutex_);
    block_ = true;
  }

  void release_pass() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      block_ = false;
    }
    cv_.notify_all();
  }

 private:
  Clock::time_point run_pass() override {
    std::unique_lock<std::mutex> lock(mutex_);
    ++passes_;
    last_thread_ = std::this_thread::get_id();
    cv_.notify_all();
    cv_.wait(lock, [&] { return !block_; });
    return wake_;
  }

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  int passes_ = 0;
  std::thread::id last_thread_;
  bool block_ = false;
  Clock::time_point wake_;
};

TEST(PooledExecutor, AttachRunsFirstPassAndNotifySchedulesMore) {
  PooledExecutor exec(2);
  CountingTask task;  // idles until notified
  exec.attach(task);
  task.wait_for_passes(1);
  exec.notify(task);
  task.wait_for_passes(2);
  exec.notify(task);
  task.wait_for_passes(3);
  exec.detach(task);
  EXPECT_EQ(task.passes(), 3);
}

TEST(PooledExecutor, MinRequeuesUntilTaskGoesIdle) {
  PooledExecutor exec(1);
  CountingTask task(CountingTask::Clock::time_point::min());
  exec.attach(task);
  task.wait_for_passes(5);  // self-requeues with no further notifies
  task.set_wake(CountingTask::Clock::time_point::max());
  const int settled = task.passes();
  exec.detach(task);
  EXPECT_GE(task.passes(), settled);
}

TEST(PooledExecutor, TimerDeadlineFiresWithoutNotify) {
  PooledExecutor exec(1);
  CountingTask task(CountingTask::Clock::now() +
                    std::chrono::milliseconds(30));
  exec.attach(task);
  task.wait_for_passes(1);
  task.set_wake(CountingTask::Clock::time_point::max());
  task.wait_for_passes(2);  // only the timer can have requeued it
  exec.detach(task);
  EXPECT_GE(task.passes(), 2);
}

TEST(PooledExecutor, NotifyDuringPassTriggersFollowupPass) {
  PooledExecutor exec(2);
  CountingTask task;
  task.block_next_pass();
  exec.attach(task);
  task.wait_for_passes(1);   // worker is parked inside run_pass()
  exec.notify(task);         // marks the running task dirty
  task.release_pass();
  task.wait_for_passes(2);   // dirty flag forced a second pass
  exec.detach(task);
  EXPECT_GE(task.passes(), 2);
}

TEST(PooledExecutor, DetachBlocksUntilPassFinishes) {
  PooledExecutor exec(2);
  CountingTask task;
  task.block_next_pass();
  exec.attach(task);
  task.wait_for_passes(1);
  std::atomic<bool> detached{false};
  std::thread detacher([&] {
    exec.detach(task);
    detached.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(detached.load());  // still inside run_pass()
  task.release_pass();
  detacher.join();
  EXPECT_TRUE(detached.load());
  exec.notify(task);  // no-op after detach
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(task.passes(), 1);
}

TEST(PooledExecutor, DetachedTaskCanReattach) {
  PooledExecutor exec(1);
  CountingTask task;
  exec.attach(task);
  task.wait_for_passes(1);
  exec.detach(task);
  exec.attach(task);
  task.wait_for_passes(2);
  exec.detach(task);
  EXPECT_GE(task.passes(), 2);
}

TEST(PooledExecutor, ManyTasksOverFewWorkersAllRun) {
  PooledExecutor exec(2);
  std::vector<std::unique_ptr<CountingTask>> tasks;
  for (int i = 0; i < 32; ++i) {
    tasks.push_back(std::make_unique<CountingTask>());
    exec.attach(*tasks.back());
  }
  for (auto& t : tasks) t->wait_for_passes(1);
  for (auto& t : tasks) exec.notify(*t);
  for (auto& t : tasks) t->wait_for_passes(2);
  for (auto& t : tasks) exec.detach(*t);
  for (auto& t : tasks) EXPECT_GE(t->passes(), 2);
}

/// run_inline() once the worker that ran the task's last pass has parked
/// it idle (a pass is counted before its run_pass() returns).
bool run_inline_when_idle(PooledExecutor& exec, CountingTask& task) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!exec.run_inline(task)) {
    if (std::chrono::steady_clock::now() > give_up) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(PooledExecutor, RunInlineRunsIdleTaskOnCallersThread) {
  PooledExecutor exec(2);
  CountingTask task;
  exec.attach(task);
  task.wait_for_passes(1);  // the attach pass, on a worker
  EXPECT_NE(task.last_thread(), std::this_thread::get_id());
  ASSERT_TRUE(run_inline_when_idle(exec, task));
  EXPECT_EQ(task.passes(), 2);  // returned only after the pass ran
  EXPECT_EQ(task.last_thread(), std::this_thread::get_id());
  exec.detach(task);
}

TEST(PooledExecutor, RunInlineRefusesReadyRunningAndDetachedTasks) {
  PooledExecutor exec(1);
  CountingTask never_attached;
  EXPECT_FALSE(exec.run_inline(never_attached));
  EXPECT_EQ(never_attached.passes(), 0);

  // Running: the only worker is parked inside the blocker's pass.
  CountingTask blocker;
  blocker.block_next_pass();
  exec.attach(blocker);
  blocker.wait_for_passes(1);
  EXPECT_FALSE(exec.run_inline(blocker));

  // Ready: attached behind the busy worker, queued but not started.
  CountingTask queued;
  exec.attach(queued);
  EXPECT_FALSE(exec.run_inline(queued));
  EXPECT_EQ(queued.passes(), 0);

  blocker.release_pass();
  queued.wait_for_passes(1);
  exec.detach(blocker);
  exec.detach(queued);
  EXPECT_FALSE(exec.run_inline(queued));  // detached
  EXPECT_EQ(queued.passes(), 1);
}

TEST(PooledExecutor, NotifyDuringInlinePassHandsFollowupToWorker) {
  PooledExecutor exec(2);
  CountingTask task;
  exec.attach(task);
  task.wait_for_passes(1);
  task.block_next_pass();
  std::thread::id inline_thread;
  std::thread caller([&] {
    inline_thread = std::this_thread::get_id();
    EXPECT_TRUE(run_inline_when_idle(exec, task));
  });
  task.wait_for_passes(2);  // the caller is parked inside the pass
  exec.notify(task);        // marks the inline pass dirty
  task.release_pass();
  caller.join();
  task.wait_for_passes(3);  // the follow-up pass
  EXPECT_NE(task.last_thread(), inline_thread);
  EXPECT_NE(task.last_thread(), std::this_thread::get_id());
  exec.detach(task);
}

TEST(PooledExecutor, RunInlineDeadlineArmsTheTimer) {
  PooledExecutor exec(1);
  CountingTask task;
  exec.attach(task);
  task.wait_for_passes(1);
  task.set_wake(CountingTask::Clock::now() + std::chrono::milliseconds(30));
  ASSERT_TRUE(run_inline_when_idle(exec, task));
  task.set_wake(CountingTask::Clock::time_point::max());
  task.wait_for_passes(3);  // only the timer can have requeued it
  EXPECT_NE(task.last_thread(), std::this_thread::get_id());
  exec.detach(task);
}

TEST(PooledExecutor, DetachWaitsForInlinePass) {
  PooledExecutor exec(1);
  CountingTask task;
  exec.attach(task);
  task.wait_for_passes(1);
  task.block_next_pass();
  std::thread caller([&] { EXPECT_TRUE(run_inline_when_idle(exec, task)); });
  task.wait_for_passes(2);
  std::atomic<bool> detached{false};
  std::thread detacher([&] {
    exec.detach(task);
    detached.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(detached.load());  // still inside the inline pass
  task.release_pass();
  caller.join();
  detacher.join();
  EXPECT_TRUE(detached.load());
  exec.notify(task);  // no-op after detach
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(task.passes(), 2);
}

}  // namespace
}  // namespace acorn::util

// Tests for lms::core::TaskScheduler — the periodic-task runtime every
// background loop in the stack runs on. Covers fixed-delay semantics
// (threaded and manual/deterministic), trigger/cancel, runs of one task
// never overlapping, shutdown drain, and the runtime-stats surface.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "lms/core/runnable.hpp"
#include "lms/core/runtime.hpp"
#include "lms/core/taskscheduler.hpp"
#include "lms/util/clock.hpp"

namespace {

using lms::core::PeriodicTaskHandle;
using lms::core::TaskScheduler;
namespace runtime = lms::core::runtime;

constexpr lms::util::TimeNs kMs = lms::util::kNanosPerMilli;

void spin_until(const std::function<bool()>& cond,
                std::chrono::milliseconds timeout = std::chrono::seconds(10)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!cond() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(TaskScheduler, PeriodicFixedDelayKeepsMinimumGap) {
  TaskScheduler::Options opts;
  opts.workers = 1;
  TaskScheduler sched(opts);
  std::vector<std::int64_t> starts_ms;
  std::atomic<int> runs{0};
  const auto t0 = std::chrono::steady_clock::now();
  PeriodicTaskHandle handle = sched.submit_periodic("test.periodic.gap", 20 * kMs, [&] {
    starts_ms.push_back(std::chrono::duration_cast<std::chrono::milliseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    runs.fetch_add(1);
  });
  spin_until([&] { return runs.load() >= 4; }, std::chrono::seconds(30));
  handle.cancel();
  ASSERT_GE(starts_ms.size(), 4u);
  // Fixed delay: the next run becomes due interval after the previous run
  // completes, so start-to-start gaps are at least interval + work time
  // (allow 2ms of clock rounding slack).
  for (std::size_t i = 1; i < starts_ms.size(); ++i) {
    EXPECT_GE(starts_ms[i] - starts_ms[i - 1], 18) << "gap " << i;
  }
}

TEST(TaskScheduler, PeriodicManualFiresOncePerOverdueAdvance) {
  TaskScheduler::Options opts;
  opts.workers = 1;
  opts.manual = true;
  TaskScheduler sched(opts);
  int count = 0;
  PeriodicTaskHandle handle = sched.submit_periodic("test.periodic.manual", 10, [&] { ++count; });

  sched.advance_to(5);  // first due is armed for attach time
  EXPECT_EQ(count, 1);
  sched.advance_to(9);  // re-armed for 15: not due yet
  EXPECT_EQ(count, 1);
  sched.advance_to(100);  // overdue by many intervals: exactly one run
  EXPECT_EQ(count, 2);
  sched.advance_to(120);
  EXPECT_EQ(count, 3);

  handle.trigger();  // early run supersedes the pending timer
  sched.run_ready();
  EXPECT_EQ(count, 4);

  handle.cancel();
  sched.advance_to(1000);
  EXPECT_EQ(count, 4);
}

TEST(TaskScheduler, PeriodicAggregatesIntoOneLoopStatsRow) {
  TaskScheduler::Options opts;
  opts.workers = 2;
  TaskScheduler sched(opts);
  std::atomic<int> runs{0};
  PeriodicTaskHandle handle =
      sched.submit_periodic("test.periodic.row", 1 * kMs, [&] { runs.fetch_add(1); });
  spin_until([&] { return runs.load() >= 3; });
  bool found = false;
  for (const runtime::LoopSnapshot& row : runtime::loop_snapshot()) {
    if (row.name == "test.periodic.row") {
      found = true;
      EXPECT_GE(row.iterations, 3u);
    }
  }
  EXPECT_TRUE(found);
  handle.cancel();
  // Cancelling drops the handle's row once pending heap entries are gone;
  // at minimum no further iterations accumulate.
  const int after = runs.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(runs.load(), after);
}

TEST(TaskScheduler, TriggerStormNeverOverlapsRunsOfOneTask) {
  // Four workers and four threads hammering trigger(): every run of the
  // task still executes on its home worker's FIFO lane, one at a time, and
  // the triggers coalesce instead of starving the task.
  TaskScheduler::Options opts;
  opts.workers = 4;
  TaskScheduler sched(opts);
  std::atomic<int> in_flight{0};
  std::atomic<int> violations{0};
  std::atomic<int> runs{0};
  PeriodicTaskHandle handle =
      sched.submit_periodic("test.periodic.storm", 1 * lms::util::kNanosPerSecond, [&] {
        if (in_flight.fetch_add(1) != 0) violations.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        in_flight.fetch_sub(1);
        runs.fetch_add(1);
      });
  // Keep triggering until many runs have happened, so later triggers land
  // while earlier runs are still executing or queued.
  constexpr int kTriggerers = 4;
  constexpr int kRuns = 50;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::vector<std::thread> triggerers;
  triggerers.reserve(kTriggerers);
  for (int t = 0; t < kTriggerers; ++t) {
    triggerers.emplace_back([&] {
      while (runs.load() < kRuns && std::chrono::steady_clock::now() < deadline) {
        handle.trigger();
        std::this_thread::yield();
      }
    });
  }
  for (auto& t : triggerers) t.join();
  spin_until([&] { return sched.stats().depth.load() == 0; });
  handle.cancel();
  EXPECT_GE(runs.load(), kRuns);
  EXPECT_EQ(violations.load(), 0);
  // At most one triggered run waits at a time (plus a stale timer run or a
  // run queued in the hand-over race), however many triggers arrived.
  EXPECT_LE(sched.stats().high_watermark.load(), 3u);
}

TEST(TaskScheduler, StopDrainsReadyAndDropsUndueTimers) {
  TaskScheduler::Options opts;
  opts.workers = 1;
  TaskScheduler sched(opts);

  // Park the single worker inside one task's run, queue a triggered run of
  // a second task behind it, then stop(): the queued run must still
  // execute (drain), and a third task whose timer is not yet due must not.
  std::atomic<bool> release{false};
  std::atomic<bool> parked{false};
  PeriodicTaskHandle blocker = sched.submit_periodic("test.stop.blocker", 1 * kMs, [&] {
    parked.store(true);
    while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  spin_until([&] { return parked.load(); });

  std::atomic<int> count{0};
  PeriodicTaskHandle queued = sched.submit_periodic(
      "test.stop.queued", 10 * lms::util::kNanosPerSecond, [&count] { count.fetch_add(1); });
  queued.trigger();  // queued behind the parked run
  std::atomic<bool> undue_ran{false};
  PeriodicTaskHandle undue = sched.submit_periodic(
      "test.stop.undue", 10 * lms::util::kNanosPerSecond, [&undue_ran] { undue_ran.store(true); });

  std::thread releaser([&release] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    release.store(true);
  });
  sched.stop();
  releaser.join();
  EXPECT_EQ(count.load(), 1);  // the triggered run ran; its 10 s re-arm did not
  EXPECT_FALSE(undue_ran.load());

  // After stop(), trigger() is a no-op and new tasks never run.
  queued.trigger();
  PeriodicTaskHandle late = sched.submit_periodic("test.stop.late", 1, [&count] {
    count.fetch_add(1);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(count.load(), 1);
}

TEST(TaskScheduler, CancelWaitsForInFlightRun) {
  TaskScheduler::Options opts;
  opts.workers = 2;
  TaskScheduler sched(opts);
  std::atomic<bool> started{false};
  std::atomic<bool> finished{false};
  PeriodicTaskHandle handle = sched.submit_periodic("test.periodic.cancel", 1 * kMs, [&] {
    started.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    finished.store(true);
  });
  spin_until([&] { return started.load(); });
  handle.cancel();
  EXPECT_TRUE(finished.load());  // cancel() returned only after the run ended
  EXPECT_FALSE(handle.active());
}

TEST(TaskScheduler, SchedStatsSnapshotExported) {
  TaskScheduler::Options opts;
  opts.workers = 2;
  opts.name = "test.sched.stats";
  TaskScheduler sched(opts);
  std::atomic<int> count{0};
  PeriodicTaskHandle handle =
      sched.submit_periodic("test.sched.stats.task", 1 * kMs, [&count] { count.fetch_add(1); });
  spin_until([&] { return count.load() >= 8; });
  handle.cancel();
  bool found = false;
  for (const runtime::SchedSnapshot& s : runtime::sched_snapshot()) {
    if (s.name == "test.sched.stats") {
      found = true;
      EXPECT_EQ(s.workers, 2u);
      EXPECT_GE(s.submitted, 8u);
      EXPECT_GE(s.executed, 8u);
      EXPECT_GE(s.periodic_runs, 8u);
      EXPECT_GE(s.delayed, s.periodic_runs);  // every run was armed by a timer
      EXPECT_GE(s.high_watermark, 1u);
    }
  }
  EXPECT_TRUE(found);
  sched.stop();
  // Stats row unregisters with the scheduler object, not at stop().
  EXPECT_FALSE(runtime::sched_snapshot().empty());
}

// A minimal Runnable: lifecycle tri-state + task wiring through on_attach.
class PingComponent : public lms::core::Runnable {
 public:
  std::atomic<int> pings{0};

 protected:
  void on_attach(TaskScheduler& sched) override {
    task_ = sched.submit_periodic("test.runnable.ping", 1 * kMs, [this] { pings.fetch_add(1); });
  }
  void on_detach() override { task_.cancel(); }

 private:
  PeriodicTaskHandle task_;
};

TEST(Runnable, AttachDetachLifecycle) {
  PingComponent comp;
  EXPECT_FALSE(comp.attached());
  EXPECT_FALSE(comp.ever_attached());

  TaskScheduler::Options opts;
  opts.workers = 1;
  TaskScheduler sched(opts);
  comp.attach(sched);
  EXPECT_TRUE(comp.attached());
  EXPECT_TRUE(comp.ever_attached());
  spin_until([&] { return comp.pings.load() >= 2; });
  EXPECT_GE(comp.pings.load(), 2);

  comp.detach();
  EXPECT_FALSE(comp.attached());
  EXPECT_TRUE(comp.ever_attached());
  const int after = comp.pings.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(comp.pings.load(), after);

  // Re-attach is legal (tests swap schedulers).
  comp.attach(sched);
  EXPECT_TRUE(comp.attached());
  comp.detach();
}

TEST(TaskScheduler, QueueDelayTracksPeriodicTasksByName) {
  TaskScheduler::Options opts;
  opts.workers = 1;
  opts.manual = true;
  TaskScheduler sched(opts);
  std::string seen_name;
  PeriodicTaskHandle handle = sched.submit_periodic("test.delayname", 2 * kMs, [&] {
    const char* name = runtime::current_task_name();
    seen_name = name != nullptr ? name : "";
  });
  sched.advance_to(2 * kMs);
  EXPECT_EQ(seen_name, "test.delayname");
  bool found = false;
  for (const runtime::sched_delay::TaskDelaySnapshot& t : runtime::sched_delay::snapshot()) {
    if (std::string(t.name) == "test.delayname") {
      found = true;
      EXPECT_GT(t.count, 0u);
    }
  }
  EXPECT_TRUE(found) << "no test.delayname row in the queue-delay table";
  handle.cancel();
}

TEST(Runnable, ManualModeDrivesAttachedComponent) {
  PingComponent comp;
  TaskScheduler::Options opts;
  opts.workers = 1;
  opts.manual = true;
  TaskScheduler sched(opts);
  comp.attach(sched);
  sched.advance_to(5 * kMs);
  EXPECT_EQ(comp.pings.load(), 1);
  sched.advance_to(10 * kMs);
  EXPECT_EQ(comp.pings.load(), 2);
  comp.detach();
  sched.advance_to(100 * kMs);
  EXPECT_EQ(comp.pings.load(), 2);
}

}  // namespace

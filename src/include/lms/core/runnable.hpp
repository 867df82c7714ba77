#pragma once

// lms::core::Runnable — the shared lifecycle contract for components whose
// background work runs on a TaskScheduler.
//
// Replaces the per-component start()/stop()/join() triples: a component
// derives from Runnable, submits its periodic tasks in on_attach() and
// cancels them (dropping the PeriodicTaskHandles) in on_detach(). The owner
// then has exactly one verb pair for every component:
//
//   router.attach(sched);      // declare tasks, begin running
//   ...
//   router.detach();           // cancel tasks; in-flight runs have finished
//
// attach() is one-shot per detach(): attach → detach → attach is legal
// (e.g. tests re-attaching to a fresh scheduler), attach while attached is
// ignored. detach() while not attached is a no-op, so destructors can call
// it unconditionally.
//
// The tri-state (never attached / attached / detached) feeds /health
// readiness: a component that *was* attached and has since been detached is
// degraded — its background work stopped — while one that was never
// attached is simply externally driven (the harness ticks it) and reports
// no scheduler check at all.

#include <atomic>

#include "lms/core/taskscheduler.hpp"

namespace lms::core {

class Runnable {
 public:
  virtual ~Runnable() = default;
  Runnable(const Runnable&) = delete;
  Runnable& operator=(const Runnable&) = delete;

  /// Submit the component's background tasks to `sched`. Ignored while
  /// already attached. `sched` must outlive the attachment.
  void attach(TaskScheduler& sched) {
    if (state_.load(std::memory_order_acquire) == State::kAttached) return;
    on_attach(sched);
    state_.store(State::kAttached, std::memory_order_release);
  }

  /// Cancel the component's tasks; when detach() returns no task of this
  /// component is running or will run again. No-op while not attached.
  void detach() {
    if (state_.load(std::memory_order_acquire) != State::kAttached) return;
    on_detach();
    state_.store(State::kDetached, std::memory_order_release);
  }

  bool attached() const { return state_.load(std::memory_order_acquire) == State::kAttached; }

  /// True once attach() has been called at least once (even if since
  /// detached) — the readiness probes use ever_attached() && !attached()
  /// as "background work was stopped".
  bool ever_attached() const {
    return state_.load(std::memory_order_acquire) != State::kNeverAttached;
  }

 protected:
  Runnable() = default;

  /// Submit tasks (typically TaskScheduler::submit_periodic) and stash the
  /// handles. Called with the attachment not yet visible via attached().
  virtual void on_attach(TaskScheduler& sched) = 0;

  /// Cancel/drop the task handles; must not return until in-flight runs
  /// finished (PeriodicTaskHandle::cancel gives this for free).
  virtual void on_detach() = 0;

 private:
  enum class State { kNeverAttached, kAttached, kDetached };

  std::atomic<State> state_{State::kNeverAttached};
};

}  // namespace lms::core

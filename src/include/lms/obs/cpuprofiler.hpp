#pragma once

// lms::obs::CpuProfiler — continuous in-process CPU sampling.
//
// The stack already knows where threads *wait* (lockstats, PR 7) and how
// queues *fill* (runtime stats, PR 9); this closes the last gap: where the
// cycles actually go. A POSIX interval timer (ITIMER_PROF → SIGPROF by
// default, ITIMER_REAL → SIGALRM in wall mode) interrupts whichever thread
// is on-CPU at a configurable Hz; the signal handler captures a raw frame
// vector plus the thread's current trace id (obs/trace.hpp TLS) and running
// scheduler task name (core::runtime::current_task_name) into a lock-free
// per-thread ring. Everything expensive — symbolization (dladdr +
// __cxa_demangle), stack folding, aggregation — happens later, outside
// signal context, on a scheduler periodic task ("obs.cpuprofile.fold").
//
// Signal-safety rules the handler obeys (see DESIGN.md §13):
//   - no allocation, no locks, no formatted I/O; atomics and TLS reads only
//   - backtrace() is pre-warmed in start() so libgcc's lazy init (which
//     takes a lock and allocates) happens before the first signal
//   - rings are allocated in start() and never freed; a ring is claimed by
//     CAS on its owner-tid slot the first time a thread is sampled
//   - the handler is installed once and left installed for process life;
//     stop() only disarms the timer and clears the enabled flag, so a
//     straggler signal can never hit SIG_DFL (which would kill the process)
//
// Folded stacks ("root;child;leaf" + sample count, the collapsed format
// flamegraph tooling eats) aggregate into a bounded table guarded by a
// Rank::kObsProfile mutex. Each stack remembers the most recent *sampled*
// trace id seen at capture, which is what lets /debug/pprof output and the
// lms_profiles measurement pivot a hot stack into GET /trace/<id>.
//
// Deterministic mode for the sim harness: start() with Options::timer=false
// installs no timer and no handler; the owner calls sample_once() per step
// (captures the calling thread synchronously, same ring path) and drives
// folding via the same periodic task on a manual scheduler.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "lms/core/runnable.hpp"
#include "lms/core/sync.hpp"
#include "lms/core/taskscheduler.hpp"
#include "lms/util/clock.hpp"
#include "lms/util/status.hpp"

namespace lms::obs {

namespace profile_detail {

/// Raw sample as written by the signal handler. Fixed-size so the rings are
/// flat arrays the handler indexes without allocation.
struct RawSample {
  static constexpr int kMaxFrames = 24;
  static constexpr int kMaxTaskName = 32;

  void* frames[kMaxFrames];
  std::int32_t nframes = 0;
  std::uint64_t trace_id = 0;  ///< thread's current trace at capture (0 = none)
  bool trace_sampled = false;  ///< head-sampling decision of that trace
  char task[kMaxTaskName];     ///< scheduler task name at capture ("" = none)
};

/// Lock-free SPSC sample ring. Producer is the owning thread (its signal
/// handler, or sample_once()); consumer is the fold task. Claimed from a
/// fixed pool by CAS on owner_tid; reclaimed by the fold task when the
/// owner thread is observed dead.
struct SampleRing {
  std::atomic<std::uint64_t> owner_tid{0};  ///< 0 = free slot
  std::atomic<std::uint32_t> head{0};       ///< next write (producer)
  std::atomic<std::uint32_t> tail{0};       ///< next read (consumer)
  std::atomic<std::uint64_t> dropped{0};    ///< ring-full overwrite-free drops
  std::vector<RawSample> slots;             ///< sized once in start()
};

}  // namespace profile_detail

/// One folded stack and its aggregate weight.
struct ProfileStack {
  std::string stack;            ///< "task:<name>;root;...;leaf" collapsed form
  std::uint64_t count = 0;      ///< samples folded into this stack
  std::uint64_t trace_id = 0;   ///< most recent sampled trace id seen (0 = none)
};

class CpuProfiler : public core::Runnable {
 public:
  struct Options {
    /// Sampling frequency. Clamped to [1, 1000].
    int hz = 99;
    /// false = CPU time (ITIMER_PROF/SIGPROF: only on-CPU threads tick);
    /// true = wall time (ITIMER_REAL/SIGALRM: idle threads tick too).
    bool wall = false;
    /// false = no timer and no signal handler; the owner drives capture
    /// with sample_once() (sim harness / deterministic tests).
    bool timer = true;
    /// Ring pool size = max threads profiled concurrently.
    std::size_t max_threads = 32;
    /// Samples buffered per thread between folds.
    std::size_t ring_capacity = 256;
    /// Bound on distinct folded stacks; excess folds into "(overflow)".
    std::size_t max_stacks = 2048;
    /// Cadence of the symbolize+fold periodic task once attached.
    util::TimeNs fold_interval = util::kNanosPerSecond;
  };

  struct Stats {
    bool running = false;
    bool timer = false;
    int hz = 0;
    std::uint64_t samples_captured = 0;  ///< handler/sample_once writes
    std::uint64_t samples_dropped = 0;   ///< ring-full + pool-exhausted drops
    std::uint64_t samples_folded = 0;    ///< samples aggregated by the fold task
    std::uint64_t folds = 0;             ///< process_once() invocations
    std::uint64_t rings_active = 0;      ///< pool slots with a live owner
    std::uint64_t rings_reclaimed = 0;   ///< slots recycled from dead threads
    std::uint64_t stacks = 0;            ///< distinct folded stacks tracked
    std::uint64_t stack_overflows = 0;   ///< samples folded into "(overflow)"
  };

  /// Process-wide instance. Signals and interval timers are process-wide
  /// resources, so one profiler serves every agent in the process and the
  /// shared net:: debug endpoints read it without plumbing.
  static CpuProfiler& instance();

  /// Arm the profiler: allocate rings, pre-warm backtrace(), install the
  /// handler + timer (when options.timer). Error if already running.
  util::Status start(Options options);

  /// Disarm the timer and stop capturing. The handler stays installed
  /// (inert); rings stay allocated so any in-flight signal writes into
  /// still-valid memory. Pending samples are folded. Idempotent.
  void stop();

  bool running() const { return enabled_.load(std::memory_order_acquire); }

  /// Deterministic capture of the calling thread into its ring — the same
  /// path the signal handler takes, minus the signal. No-op when stopped.
  void sample_once();

  /// Drain every ring: symbolize, fold, aggregate; reclaim rings whose
  /// owner thread died. Returns samples folded. Runs as the periodic fold
  /// task once attached; callable directly in deterministic mode. Never
  /// call from signal context.
  std::size_t process_once();

  /// Aggregated stacks, heaviest first, capped at max_stacks entries
  /// (0 = all). Does not fold first — callers wanting fresh data call
  /// process_once() before snapshotting.
  std::vector<ProfileStack> snapshot(std::size_t max_stacks = 0) const;

  /// Collapsed-stack text: one "stack count" line per aggregated stack,
  /// heaviest first — the format flamegraph.pl / speedscope consume.
  std::string collapsed(std::size_t max_stacks = 0) const;

  /// Reset the aggregate table (delta profiles: /debug/pprof?seconds=N).
  void clear();

  Stats stats() const;
  const Options& options() const { return options_; }

 protected:
  /// Periodic "obs.cpuprofile.fold" task driving process_once().
  void on_attach(core::TaskScheduler& sched) override;
  void on_detach() override;

 private:
  CpuProfiler();
  ~CpuProfiler() override;

  static void signal_handler(int signo);
  /// Shared capture path for the handler and sample_once(). Signal-safe.
  void capture();
  profile_detail::SampleRing* claim_ring(std::uint64_t tid);
  void fold_sample(const profile_detail::RawSample& sample);
  /// Resolve one PC to a demangled symbol (cached). Not signal-safe.
  const std::string& symbolize(void* pc);

  Options options_;
  std::atomic<bool> enabled_{false};
  std::atomic<bool> handler_installed_{false};
  bool timer_armed_ = false;
  int signo_ = 0;

  /// Ring pool; allocated on first start(), grown never, freed never.
  std::vector<std::unique_ptr<profile_detail::SampleRing>> rings_;

  std::atomic<std::uint64_t> samples_captured_{0};
  std::atomic<std::uint64_t> samples_dropped_{0};
  std::atomic<std::uint64_t> samples_folded_{0};
  std::atomic<std::uint64_t> folds_{0};
  std::atomic<std::uint64_t> rings_reclaimed_{0};
  std::atomic<std::uint64_t> stack_overflows_{0};

  struct StackEntry {
    std::uint64_t count = 0;
    std::uint64_t trace_id = 0;
  };

  mutable core::sync::Mutex table_mu_{core::sync::Rank::kObsProfile, "obs.profile.table"};
  std::unordered_map<std::string, StackEntry> table_ LMS_GUARDED_BY(table_mu_);
  std::unordered_map<void*, std::string> symbols_ LMS_GUARDED_BY(table_mu_);

  core::PeriodicTaskHandle fold_task_;
};

}  // namespace lms::obs

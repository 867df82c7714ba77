#pragma once

// lms::core::runtime — process-wide runtime-utilization registry.
//
// Companion to the lockstats table in lms/core/sync.hpp: where lockstats
// answers "which lock do threads wait on", this header answers "how full
// are the queues and how busy are the background loops". Two kinds of
// participants self-register here:
//
//   - util::BoundedQueue (when constructed with a name) exposes a
//     QueueStats block: pushes/pops, blocked and rejected pushes, current
//     depth and the high watermark. Counters are relaxed atomics bumped
//     under the queue's own lock; readers snapshot without coordination.
//
//   - Background loops (router flusher, self-scrape, trace exporter, TCP
//     accept loop, alert evaluator, retention, CQ runner) own a LoopStats
//     and bracket each iteration's useful work with begin_busy()/end_busy()
//     (or a BusyScope). Time between an end_busy and the next begin_busy
//     counts as idle, which makes busy/(busy+idle) the loop's duty cycle.
//
// This sits in core (not obs) because util::BoundedQueue must not depend on
// the metrics registry; lms::obs reads the snapshots and exports them as
// lms_runtime_* instruments and in GET /debug/runtime.

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "lms/core/sync.hpp"

namespace lms::core::runtime {

/// Monotonic nanoseconds (shared with the lockstats clock).
inline std::uint64_t now_ns() { return sync::lockstats::now_ns(); }

// ---------------------------------------------------------------------------
// Queues
// ---------------------------------------------------------------------------

/// Stats block embedded in a named util::BoundedQueue. The embedding queue
/// updates the counters while holding its own lock, so stores are plain
/// relaxed writes; concurrent readers see a consistent-enough snapshot.
struct QueueStats {
  const char* name = nullptr;
  std::size_t capacity = 0;
  std::atomic<std::uint64_t> pushes{0};
  std::atomic<std::uint64_t> pops{0};
  std::atomic<std::uint64_t> blocked_pushes{0};   ///< push() waited for space
  std::atomic<std::uint64_t> rejected_pushes{0};  ///< try_push() hit a full queue
  std::atomic<std::uint64_t> depth{0};
  std::atomic<std::uint64_t> high_watermark{0};

  void on_push(std::size_t new_depth) {
    pushes.fetch_add(1, std::memory_order_relaxed);
    depth.store(new_depth, std::memory_order_relaxed);
    sync::lockstats::atomic_max(high_watermark, new_depth);
  }
  void on_pop(std::size_t new_depth) {
    pops.fetch_add(1, std::memory_order_relaxed);
    depth.store(new_depth, std::memory_order_relaxed);
  }
};

// ---------------------------------------------------------------------------
// Scheduler task identity
// ---------------------------------------------------------------------------

namespace impl {
/// Name of the scheduler task the calling thread is currently running.
/// Written only by TaskNameScope in normal (non-signal) context; read by
/// the same thread, including from the CPU profiler's signal handler — a
/// plain thread-local pointer read is async-signal-safe.
inline thread_local const char* tls_task_name = nullptr;
}  // namespace impl

/// The periodic scheduler task the calling thread is executing, nullptr
/// outside any task. The CPU profiler tags samples with this, so a
/// hot periodic task can be pivoted straight into its flamegraph.
inline const char* current_task_name() { return impl::tls_task_name; }

/// RAII task-name bracket. The name must stay valid for the scope's
/// lifetime (the scheduler passes names owned by the live PeriodicState,
/// which outlives the run).
class TaskNameScope {
 public:
  explicit TaskNameScope(const char* name) : prev_(impl::tls_task_name) {
    impl::tls_task_name = name;
  }
  ~TaskNameScope() { impl::tls_task_name = prev_; }
  TaskNameScope(const TaskNameScope&) = delete;
  TaskNameScope& operator=(const TaskNameScope&) = delete;

 private:
  const char* prev_;
};

// ---------------------------------------------------------------------------
// Scheduler queueing delay (submit -> run latency)
// ---------------------------------------------------------------------------

namespace sched_delay {

/// Log2 delay histogram, same bucketing as the lockstats wait histogram
/// (bucket i counts delays with bit_width(ns) == i; bucket 39 = overflow).
inline constexpr std::size_t kBuckets = sync::lockstats::kWaitBuckets;

/// Fixed capacity of the per-task-name table. Names are the periodic task
/// names plus the three anonymous lanes, so a process uses a couple dozen.
inline constexpr std::size_t kMaxTasks = 64;

/// Per-slot name storage. Names are copied in (periodic task names are
/// std::strings owned by a PeriodicState that can die before the table is
/// next read); over-long names are truncated, which at worst merges two
/// rows sharing a 47-char prefix.
inline constexpr std::size_t kMaxTaskName = 48;

/// One task name's delay distribution. Relaxed atomics bumped by whichever
/// worker pops the task; readers snapshot without coordination. The name
/// bytes are written before the slot is published via Table::used
/// (release/acquire), then never change.
struct TaskStats {
  char name[kMaxTaskName] = {};
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> delay_ns_total{0};
  std::atomic<std::uint64_t> delay_ns_max{0};
  std::array<std::atomic<std::uint64_t>, kBuckets> hist{};
};

namespace impl {

struct Table {
  std::array<TaskStats, kMaxTasks> slots;
  std::atomic<std::size_t> used{0};
  std::atomic<std::uint64_t> dropped{0};
};

inline Table& table() {
  static Table t;
  return t;
}

/// Registration-only serialization, same rationale as lockstats::intern_mu.
inline std::mutex& intern_mu() {
  static std::mutex mu;
  return mu;
}

}  // namespace impl

/// Find-or-create the stats slot for a task name (content-compared, so the
/// same name from two schedulers shares one row). nullptr when full.
inline TaskStats* intern(const char* name) {
  if (name == nullptr || name[0] == '\0') name = "<unnamed>";
  impl::Table& t = impl::table();
  const std::size_t seen = t.used.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < seen; ++i) {
    if (std::strncmp(t.slots[i].name, name, kMaxTaskName - 1) == 0) return &t.slots[i];
  }
  std::lock_guard<std::mutex> guard(impl::intern_mu());
  const std::size_t used = t.used.load(std::memory_order_relaxed);
  for (std::size_t i = seen; i < used; ++i) {
    if (std::strncmp(t.slots[i].name, name, kMaxTaskName - 1) == 0) return &t.slots[i];
  }
  if (used >= kMaxTasks) {
    t.dropped.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  TaskStats& slot = t.slots[used];
  std::strncpy(slot.name, name, kMaxTaskName - 1);
  slot.name[kMaxTaskName - 1] = '\0';
  t.used.store(used + 1, std::memory_order_release);
  return &slot;
}

inline void record(TaskStats* s, std::uint64_t delay_ns) {
  if (s == nullptr) return;
  s->count.fetch_add(1, std::memory_order_relaxed);
  s->delay_ns_total.fetch_add(delay_ns, std::memory_order_relaxed);
  sync::lockstats::atomic_max(s->delay_ns_max, delay_ns);
  s->hist[sync::lockstats::wait_bucket(delay_ns)].fetch_add(1, std::memory_order_relaxed);
}

inline std::uint64_t dropped_tasks() {
  return impl::table().dropped.load(std::memory_order_relaxed);
}

struct TaskDelaySnapshot {
  const char* name;
  std::uint64_t count;
  std::uint64_t delay_ns_total;
  std::uint64_t delay_ns_max;
  std::array<std::uint64_t, kBuckets> hist;
};

/// Approximate q-quantile of one task's delay distribution (upper bound of
/// the first bucket reaching the target cumulative count).
inline std::uint64_t delay_quantile_ns(const TaskDelaySnapshot& s, double q) {
  std::uint64_t total = 0;
  for (std::uint64_t c : s.hist) total += c;
  if (total == 0) return 0;
  const auto target = static_cast<std::uint64_t>(q * static_cast<double>(total));
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    cum += s.hist[i];
    if (cum > target || (q >= 1.0 && cum == total)) {
      return sync::lockstats::bucket_upper_ns(i);
    }
  }
  return sync::lockstats::bucket_upper_ns(kBuckets - 1);
}

/// All task rows with at least one recorded delay, sorted by total delay
/// descending (the ranking /debug/runtime serves).
inline std::vector<TaskDelaySnapshot> snapshot() {
  impl::Table& t = impl::table();
  const std::size_t used = t.used.load(std::memory_order_acquire);
  std::vector<TaskDelaySnapshot> out;
  out.reserve(used);
  for (std::size_t i = 0; i < used; ++i) {
    const TaskStats& s = t.slots[i];
    TaskDelaySnapshot snap;
    snap.name = s.name;  // points into static table storage, never freed
    snap.count = s.count.load(std::memory_order_relaxed);
    if (snap.count == 0) continue;
    snap.delay_ns_total = s.delay_ns_total.load(std::memory_order_relaxed);
    snap.delay_ns_max = s.delay_ns_max.load(std::memory_order_relaxed);
    for (std::size_t b = 0; b < kBuckets; ++b) {
      snap.hist[b] = s.hist[b].load(std::memory_order_relaxed);
    }
    out.push_back(snap);
  }
  std::sort(out.begin(), out.end(), [](const TaskDelaySnapshot& a, const TaskDelaySnapshot& b) {
    return a.delay_ns_total > b.delay_ns_total;
  });
  return out;
}

}  // namespace sched_delay

// ---------------------------------------------------------------------------
// Loops
// ---------------------------------------------------------------------------

void register_loop(const class LoopStats* loop);
void unregister_loop(const class LoopStats* loop);
void register_queue(const QueueStats* stats);
void unregister_queue(const QueueStats* stats);
void register_scheduler(const struct SchedStats* stats);
void unregister_scheduler(const struct SchedStats* stats);

// ---------------------------------------------------------------------------
// Schedulers
// ---------------------------------------------------------------------------

/// Stats block embedded in a core::TaskScheduler. Counters are relaxed
/// atomics bumped by workers and submitters; readers snapshot without
/// coordination (same contract as QueueStats).
struct SchedStats {
  const char* name = nullptr;
  std::size_t workers = 0;
  std::atomic<std::uint64_t> submitted{0};       ///< runs queued (due timers + triggers)
  std::atomic<std::uint64_t> executed{0};        ///< queued runs taken off a lane
  std::atomic<std::uint64_t> delayed{0};         ///< timer arms (first run + re-arms)
  std::atomic<std::uint64_t> periodic_runs{0};   ///< task bodies that ran
  std::atomic<std::uint64_t> depth{0};           ///< queued runs across all lanes
  std::atomic<std::uint64_t> high_watermark{0};  ///< max observed ready depth

  void on_enqueue(std::uint64_t new_depth) {
    depth.store(new_depth, std::memory_order_relaxed);
    sync::lockstats::atomic_max(high_watermark, new_depth);
  }
};

/// Duty-cycle tracker for one background loop or periodic task. Iterations
/// never overlap, but successive begin_busy()/end_busy() brackets may come
/// from *different* threads — a periodic task hops across scheduler workers
/// while remaining one logical loop — so the between-iteration scratch is
/// atomic (relaxed: the scheduler's queue handoff orders the accesses).
class LoopStats {
 public:
  explicit LoopStats(const char* name) : name_(name) { register_loop(this); }
  ~LoopStats() { unregister_loop(this); }
  LoopStats(const LoopStats&) = delete;
  LoopStats& operator=(const LoopStats&) = delete;

  /// Start of an iteration's useful work. Time since the previous
  /// end_busy() is accounted as idle (sleeping / blocked on a CV or poll,
  /// or waiting in a scheduler timer heap).
  void begin_busy() {
    const std::uint64_t now = now_ns();
    const std::uint64_t last_end = last_end_ns_.load(std::memory_order_relaxed);
    if (last_end != 0 && now > last_end) {
      idle_ns_.fetch_add(now - last_end, std::memory_order_relaxed);
    }
    busy_start_ns_.store(now, std::memory_order_relaxed);
  }

  /// End of the iteration's useful work.
  void end_busy() {
    const std::uint64_t now = now_ns();
    const std::uint64_t start = busy_start_ns_.exchange(0, std::memory_order_relaxed);
    if (start != 0) {
      if (now > start) busy_ns_.fetch_add(now - start, std::memory_order_relaxed);
      iterations_.fetch_add(1, std::memory_order_relaxed);
    }
    last_end_ns_.store(now, std::memory_order_relaxed);
  }

  const char* name() const { return name_; }
  std::uint64_t iterations() const { return iterations_.load(std::memory_order_relaxed); }
  std::uint64_t busy_ns() const { return busy_ns_.load(std::memory_order_relaxed); }
  std::uint64_t idle_ns() const { return idle_ns_.load(std::memory_order_relaxed); }

 private:
  const char* name_;
  std::atomic<std::uint64_t> iterations_{0};
  std::atomic<std::uint64_t> busy_ns_{0};
  std::atomic<std::uint64_t> idle_ns_{0};
  // Between-iteration scratch. Written by whichever thread ran the last
  // iteration; iterations themselves never overlap.
  std::atomic<std::uint64_t> busy_start_ns_{0};
  std::atomic<std::uint64_t> last_end_ns_{0};
};

/// RAII begin_busy/end_busy bracket for one iteration.
class BusyScope {
 public:
  explicit BusyScope(LoopStats& loop) : loop_(loop) { loop_.begin_busy(); }
  ~BusyScope() { loop_.end_busy(); }
  BusyScope(const BusyScope&) = delete;
  BusyScope& operator=(const BusyScope&) = delete;

 private:
  LoopStats& loop_;
};

// ---------------------------------------------------------------------------
// Registry + snapshots
// ---------------------------------------------------------------------------

namespace impl {

struct Registry {
  // Taken while registering (object construction) and snapshotting; ranked
  // near the top of the hierarchy so registration is legal while holding
  // any component lock (e.g. the pub/sub broker creating a subscriber
  // queue under its own mutex).
  sync::Mutex mu{sync::Rank::kRuntimeRegistry, "core.runtime.registry"};
  std::vector<const QueueStats*> queues LMS_GUARDED_BY(mu);
  std::vector<const LoopStats*> loops LMS_GUARDED_BY(mu);
  std::vector<const SchedStats*> scheds LMS_GUARDED_BY(mu);
};

inline Registry& registry() {
  static Registry r;
  return r;
}

template <class T>
void erase_ptr(std::vector<const T*>& v, const T* p) {
  for (auto it = v.begin(); it != v.end(); ++it) {
    if (*it == p) {
      v.erase(it);
      return;
    }
  }
}

}  // namespace impl

inline void register_queue(const QueueStats* stats) {
  impl::Registry& r = impl::registry();
  sync::LockGuard lock(r.mu);
  r.queues.push_back(stats);
}

inline void unregister_queue(const QueueStats* stats) {
  impl::Registry& r = impl::registry();
  sync::LockGuard lock(r.mu);
  impl::erase_ptr(r.queues, stats);
}

inline void register_loop(const LoopStats* loop) {
  impl::Registry& r = impl::registry();
  sync::LockGuard lock(r.mu);
  r.loops.push_back(loop);
}

inline void register_scheduler(const SchedStats* stats) {
  impl::Registry& r = impl::registry();
  sync::LockGuard lock(r.mu);
  r.scheds.push_back(stats);
}

inline void unregister_scheduler(const SchedStats* stats) {
  impl::Registry& r = impl::registry();
  sync::LockGuard lock(r.mu);
  impl::erase_ptr(r.scheds, stats);
}

inline void unregister_loop(const LoopStats* loop) {
  impl::Registry& r = impl::registry();
  sync::LockGuard lock(r.mu);
  impl::erase_ptr(r.loops, loop);
}

struct QueueSnapshot {
  std::string name;
  std::size_t capacity;
  std::uint64_t pushes;
  std::uint64_t pops;
  std::uint64_t blocked_pushes;
  std::uint64_t rejected_pushes;
  std::uint64_t depth;
  std::uint64_t high_watermark;
};

struct LoopSnapshot {
  std::string name;
  std::uint64_t iterations;
  std::uint64_t busy_ns;
  std::uint64_t idle_ns;
  /// busy / (busy + idle) in percent; 0 when the loop has not run.
  double duty_pct;
};

struct SchedSnapshot {
  std::string name;
  std::size_t workers;
  std::uint64_t submitted;
  std::uint64_t executed;
  std::uint64_t delayed;
  std::uint64_t periodic_runs;
  std::uint64_t depth;
  std::uint64_t high_watermark;
};

inline std::vector<QueueSnapshot> queue_snapshot() {
  impl::Registry& r = impl::registry();
  sync::LockGuard lock(r.mu);
  std::vector<QueueSnapshot> out;
  out.reserve(r.queues.size());
  for (const QueueStats* q : r.queues) {
    QueueSnapshot s;
    s.name = q->name != nullptr ? q->name : "<unnamed>";
    s.capacity = q->capacity;
    s.pushes = q->pushes.load(std::memory_order_relaxed);
    s.pops = q->pops.load(std::memory_order_relaxed);
    s.blocked_pushes = q->blocked_pushes.load(std::memory_order_relaxed);
    s.rejected_pushes = q->rejected_pushes.load(std::memory_order_relaxed);
    s.depth = q->depth.load(std::memory_order_relaxed);
    s.high_watermark = q->high_watermark.load(std::memory_order_relaxed);
    out.push_back(std::move(s));
  }
  return out;
}

inline std::vector<LoopSnapshot> loop_snapshot() {
  impl::Registry& r = impl::registry();
  sync::LockGuard lock(r.mu);
  std::vector<LoopSnapshot> out;
  out.reserve(r.loops.size());
  for (const LoopStats* l : r.loops) {
    LoopSnapshot s;
    s.name = l->name() != nullptr ? l->name() : "<unnamed>";
    s.iterations = l->iterations();
    s.busy_ns = l->busy_ns();
    s.idle_ns = l->idle_ns();
    const double denom = static_cast<double>(s.busy_ns) + static_cast<double>(s.idle_ns);
    s.duty_pct = denom > 0.0 ? 100.0 * static_cast<double>(s.busy_ns) / denom : 0.0;
    out.push_back(std::move(s));
  }
  return out;
}

inline std::vector<SchedSnapshot> sched_snapshot() {
  impl::Registry& r = impl::registry();
  sync::LockGuard lock(r.mu);
  std::vector<SchedSnapshot> out;
  out.reserve(r.scheds.size());
  for (const SchedStats* sc : r.scheds) {
    SchedSnapshot s;
    s.name = sc->name != nullptr ? sc->name : "<unnamed>";
    s.workers = sc->workers;
    s.submitted = sc->submitted.load(std::memory_order_relaxed);
    s.executed = sc->executed.load(std::memory_order_relaxed);
    s.delayed = sc->delayed.load(std::memory_order_relaxed);
    s.periodic_runs = sc->periodic_runs.load(std::memory_order_relaxed);
    s.depth = sc->depth.load(std::memory_order_relaxed);
    s.high_watermark = sc->high_watermark.load(std::memory_order_relaxed);
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace lms::core::runtime

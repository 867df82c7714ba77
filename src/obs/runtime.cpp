#include "lms/obs/runtime.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>

#include "lms/core/runtime.hpp"
#include "lms/core/sync.hpp"
#include "lms/obs/cpuprofiler.hpp"

// Stamped by the top-level CMakeLists; default for non-CMake consumers.
#ifndef LMS_BUILD_TYPE_NAME
#define LMS_BUILD_TYPE_NAME "unknown"
#endif
#ifndef LMS_SANITIZE_NAME
#define LMS_SANITIZE_NAME "none"
#endif

namespace lms::obs {

namespace {

std::string compiler_string() {
#if defined(__clang__)
  return std::string("clang ") + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__) + "." + std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
  return std::string("gcc ") + std::to_string(__GNUC__) + "." + std::to_string(__GNUC_MINOR__) +
         "." + std::to_string(__GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

const char* onoff(bool b) { return b ? "on" : "off"; }

}  // namespace

BuildInfo build_info() {
  BuildInfo b;
  b.build_type = LMS_BUILD_TYPE_NAME;
  b.compiler = compiler_string();
  b.sanitizer = LMS_SANITIZE_NAME;
  b.rank_checks = core::sync::kRankCheckingEnabled;
  b.lock_stats = core::sync::kLockStatsEnabled;
  return b;
}

std::string build_info_summary() {
  const BuildInfo b = build_info();
  return "type=" + b.build_type + " compiler=" + b.compiler + " sanitizer=" + b.sanitizer +
         " rank_checks=" + onoff(b.rank_checks) + " lock_stats=" + onoff(b.lock_stats);
}

void register_build_info(Registry& registry) {
  const BuildInfo b = build_info();
  registry
      .gauge("lms_build_info", {{"build_type", b.build_type},
                                {"compiler", b.compiler},
                                {"sanitizer", b.sanitizer},
                                {"rank_checks", onoff(b.rank_checks)},
                                {"lock_stats", onoff(b.lock_stats)}})
      .set(1.0);
}

namespace {

double d(std::uint64_t v) { return static_cast<double>(v); }

void update_lock_metrics(Registry& registry) {
  namespace ls = core::sync::lockstats;
  registry.gauge("lms_lock_stats_enabled")
      .set(core::sync::kLockStatsEnabled && ls::enabled() ? 1.0 : 0.0);
  registry.gauge("lms_lock_sites_dropped").set(d(ls::dropped_sites()));
  for (const ls::SiteSnapshot& s : ls::snapshot()) {
    const Labels labels{{"lock", s.name}, {"rank", std::to_string(s.rank)}};
    registry.gauge("lms_lock_acquisitions_total", labels).set(d(s.acquisitions));
    registry.gauge("lms_lock_contended_total", labels).set(d(s.contended));
    registry.gauge("lms_lock_wait_ns_total", labels).set(d(s.wait_ns_total));
    registry.gauge("lms_lock_wait_ns_max", labels).set(d(s.wait_ns_max));
    registry.gauge("lms_lock_wait_p50_ns", labels).set(d(ls::wait_quantile_ns(s, 0.50)));
    registry.gauge("lms_lock_wait_p99_ns", labels).set(d(ls::wait_quantile_ns(s, 0.99)));
    registry.gauge("lms_lock_hold_ns_total", labels).set(d(s.hold_ns_total));
    registry.gauge("lms_lock_hold_ns_max", labels).set(d(s.hold_ns_max));
  }
}

void update_queue_metrics(Registry& registry) {
  // Same-named queues (e.g. one per pub/sub subscriber) aggregate into one
  // labeled series: counters and depth sum, watermark and capacity take
  // the max.
  struct Agg {
    std::uint64_t pushes = 0, pops = 0, blocked = 0, rejected = 0, depth = 0;
    std::uint64_t high_watermark = 0, capacity = 0;
  };
  std::map<std::string, Agg> by_name;
  for (const core::runtime::QueueSnapshot& q : core::runtime::queue_snapshot()) {
    Agg& a = by_name[q.name];
    a.pushes += q.pushes;
    a.pops += q.pops;
    a.blocked += q.blocked_pushes;
    a.rejected += q.rejected_pushes;
    a.depth += q.depth;
    a.high_watermark = std::max(a.high_watermark, q.high_watermark);
    a.capacity = std::max<std::uint64_t>(a.capacity, q.capacity);
  }
  for (const auto& [name, a] : by_name) {
    const Labels labels{{"queue", name}};
    registry.gauge("lms_runtime_queue_pushes_total", labels).set(d(a.pushes));
    registry.gauge("lms_runtime_queue_pops_total", labels).set(d(a.pops));
    registry.gauge("lms_runtime_queue_blocked_pushes_total", labels).set(d(a.blocked));
    registry.gauge("lms_runtime_queue_rejected_pushes_total", labels).set(d(a.rejected));
    registry.gauge("lms_runtime_queue_depth", labels).set(d(a.depth));
    registry.gauge("lms_runtime_queue_high_watermark", labels).set(d(a.high_watermark));
    registry.gauge("lms_runtime_queue_capacity", labels).set(d(a.capacity));
  }
}

void update_loop_metrics(Registry& registry) {
  struct Agg {
    std::uint64_t iterations = 0, busy_ns = 0, idle_ns = 0;
  };
  std::map<std::string, Agg> by_name;
  for (const core::runtime::LoopSnapshot& l : core::runtime::loop_snapshot()) {
    Agg& a = by_name[l.name];
    a.iterations += l.iterations;
    a.busy_ns += l.busy_ns;
    a.idle_ns += l.idle_ns;
  }
  for (const auto& [name, a] : by_name) {
    const Labels labels{{"loop", name}};
    registry.gauge("lms_runtime_loop_iterations_total", labels).set(d(a.iterations));
    registry.gauge("lms_runtime_loop_busy_ns_total", labels).set(d(a.busy_ns));
    registry.gauge("lms_runtime_loop_idle_ns_total", labels).set(d(a.idle_ns));
    const double denom = d(a.busy_ns) + d(a.idle_ns);
    registry.gauge("lms_runtime_loop_duty_pct", labels)
        .set(denom > 0.0 ? 100.0 * d(a.busy_ns) / denom : 0.0);
  }
}

void update_sched_metrics(Registry& registry) {
  for (const core::runtime::SchedSnapshot& s : core::runtime::sched_snapshot()) {
    const Labels labels{{"scheduler", s.name}};
    registry.gauge("lms_runtime_sched_workers", labels).set(d(s.workers));
    registry.gauge("lms_runtime_sched_submitted_total", labels).set(d(s.submitted));
    registry.gauge("lms_runtime_sched_executed_total", labels).set(d(s.executed));
    registry.gauge("lms_runtime_sched_delayed_total", labels).set(d(s.delayed));
    registry.gauge("lms_runtime_sched_periodic_runs_total", labels).set(d(s.periodic_runs));
    registry.gauge("lms_runtime_sched_queue_depth", labels).set(d(s.depth));
    registry.gauge("lms_runtime_sched_queue_high_watermark", labels)
        .set(d(s.high_watermark));
  }
}

void update_sched_delay_metrics(Registry& registry) {
  namespace sd = core::runtime::sched_delay;
  for (const sd::TaskDelaySnapshot& t : sd::snapshot()) {
    const Labels labels{{"task", t.name}};
    registry.gauge("lms_runtime_sched_queue_delay_count", labels).set(d(t.count));
    registry.gauge("lms_runtime_sched_queue_delay_ns_total", labels)
        .set(d(t.delay_ns_total));
    registry.gauge("lms_runtime_sched_queue_delay_ns_max", labels).set(d(t.delay_ns_max));
    registry.gauge("lms_runtime_sched_queue_delay_p50_ns", labels)
        .set(d(sd::delay_quantile_ns(t, 0.50)));
    registry.gauge("lms_runtime_sched_queue_delay_p99_ns", labels)
        .set(d(sd::delay_quantile_ns(t, 0.99)));
  }
}

void update_profiler_metrics(Registry& registry) {
  const CpuProfiler::Stats s = CpuProfiler::instance().stats();
  registry.gauge("lms_profile_running").set(s.running ? 1.0 : 0.0);
  registry.gauge("lms_profile_hz").set(d(static_cast<std::uint64_t>(s.hz)));
  registry.gauge("lms_profile_samples_captured_total").set(d(s.samples_captured));
  registry.gauge("lms_profile_samples_dropped_total").set(d(s.samples_dropped));
  registry.gauge("lms_profile_samples_folded_total").set(d(s.samples_folded));
  registry.gauge("lms_profile_folds_total").set(d(s.folds));
  registry.gauge("lms_profile_rings_active").set(d(s.rings_active));
  registry.gauge("lms_profile_rings_reclaimed_total").set(d(s.rings_reclaimed));
  registry.gauge("lms_profile_stacks").set(d(s.stacks));
  registry.gauge("lms_profile_stack_overflows_total").set(d(s.stack_overflows));
}

}  // namespace

void update_runtime_metrics(Registry& registry) {
  register_build_info(registry);
  update_lock_metrics(registry);
  update_queue_metrics(registry);
  update_loop_metrics(registry);
  update_sched_metrics(registry);
  update_sched_delay_metrics(registry);
  update_profiler_metrics(registry);
}

}  // namespace lms::obs

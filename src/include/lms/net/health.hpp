#pragma once

// Shared health/readiness model for the stack's HTTP components.
//
// Every component (router, TSDB API, collector agent, dashboard agent)
// answers two probes with one JSON shape:
//   GET /health  — liveness: "is the process sane" (internal queue depths,
//                  last activity). 200 unless a check reports kDown.
//   GET /ready   — readiness: "can it do useful work right now", which adds
//                  downstream reachability (router -> TSDB, agent -> router).
//                  200 only when every check is kOk, 503 otherwise, so load
//                  balancers and the deadman watchdog can steer around a
//                  degraded component before it starts losing data.
//
// The model lives in lms::net (below every component, above json) so the
// four components share one wire format without new cross-layer deps.

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "lms/net/http.hpp"
#include "lms/util/clock.hpp"
#include "lms/util/logging.hpp"

namespace lms::net {

enum class HealthStatus {
  kOk,        ///< fully operational
  kDegraded,  ///< working but impaired (backlog, downstream unreachable)
  kDown,      ///< not operational
};

std::string_view health_status_name(HealthStatus s);

/// The more severe of two statuses (kDown > kDegraded > kOk).
HealthStatus worse(HealthStatus a, HealthStatus b);

/// One named probe inside a component ("spool", "downstream_db", ...).
struct HealthCheck {
  std::string name;
  HealthStatus status = HealthStatus::kOk;
  std::string detail;
  std::optional<double> value;  ///< queue depth, age in seconds, ...
};

/// A component's full health report; status() is the worst check.
struct ComponentHealth {
  std::string component;
  util::TimeNs time = 0;
  std::vector<HealthCheck> checks;

  void add(std::string name, HealthStatus status, std::string detail);
  void add(std::string name, HealthStatus status, std::string detail, double value);

  HealthStatus status() const;

  /// {"component":..,"status":..,"time":..,"checks":[{..},..]}
  std::string to_json() const;
};

/// Liveness answer: the report as JSON, 200 unless status() is kDown (503).
HttpResponse health_response(const ComponentHealth& health);

/// Readiness answer: 200 only when status() is kOk, 503 otherwise.
HttpResponse ready_response(const ComponentHealth& health);

/// Shared GET /debug/logs answer: the ring's retained entries as JSON
/// ({"dropped":N,"entries":[{"level","component","message"[,"trace_id"]}]}),
/// filterable with ?trace=<id16hex> (400 on a malformed id). Served by the
/// router and the TSDB API so every hop offers the same log/trace
/// correlation view.
HttpResponse debug_logs_response(const util::LogRing& ring, const HttpRequest& req);

/// Shared GET /debug/runtime answer: the process-wide runtime-contention
/// picture as JSON —
///   {"build":{...},
///    "lock_stats":{"compiled":b,"enabled":b,"sites_dropped":N,
///                  "sites":[{"lock","rank","acquisitions","contended",
///                            "contention_pct","wait_ns_total","wait_ns_max",
///                            "wait_p50_ns","wait_p99_ns","hold_ns_total",
///                            "hold_ns_max"},...]},   // ranked by total wait
///    "queues":[{"queue","capacity","depth","high_watermark","pushes",
///               "pops","blocked_pushes","rejected_pushes"},...],
///    "loops":[{"loop","iterations","busy_ns","idle_ns","duty_pct"},...],
///    "scheds":[{"scheduler","workers","submitted","executed","delayed",
///               "periodic_runs","queue_depth","queue_high_watermark"},...],
///    "queue_delays":[{"task","count","delay_ns_total","delay_ns_max",
///                     "delay_ns_avg","delay_p50_ns","delay_p99_ns"},...],
///    "profiler":{"running","timer","hz","samples_captured",
///                "samples_dropped","samples_folded","folds","rings_active",
///                "rings_reclaimed","stacks","stack_overflows"}}
/// Lock sites are sorted by wait_ns_total descending, so the first entry is
/// the lock the process spends the most time waiting on. The section is
/// empty (compiled=false) unless built with -DLMS_LOCK_STATS=ON; queues,
/// loops and scheds (one row per live TaskScheduler, including every
/// periodic task as a named loop row) report in every build. queue_delays
/// ranks scheduler tasks by total submit→run latency; profiler reflects the
/// process-wide obs::CpuProfiler. Served by the router and the TSDB API.
HttpResponse runtime_debug_response();

/// Shared GET /debug/pprof answer: the CPU profiler's aggregate as
/// collapsed-stack text ("frame;frame;leaf count\n" per line, heaviest
/// first — feed it straight to flamegraph.pl / speedscope). With
/// ?seconds=N (clamped to [0,30], timer mode only) blocks for the window
/// and returns only the samples captured during it, pprof-style. 503 when
/// the profiler is not running.
HttpResponse pprof_response(const HttpRequest& req);

}  // namespace lms::net

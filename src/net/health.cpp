#include "lms/net/health.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <unordered_map>

#include "lms/core/runtime.hpp"
#include "lms/core/sync.hpp"
#include "lms/json/json.hpp"
#include "lms/obs/cpuprofiler.hpp"
#include "lms/obs/runtime.hpp"
#include "lms/obs/trace.hpp"

namespace lms::net {

std::string_view health_status_name(HealthStatus s) {
  switch (s) {
    case HealthStatus::kOk:
      return "ok";
    case HealthStatus::kDegraded:
      return "degraded";
    case HealthStatus::kDown:
      return "down";
  }
  return "?";
}

HealthStatus worse(HealthStatus a, HealthStatus b) {
  return static_cast<int>(a) >= static_cast<int>(b) ? a : b;
}

void ComponentHealth::add(std::string name, HealthStatus status, std::string detail) {
  checks.push_back(HealthCheck{std::move(name), status, std::move(detail), std::nullopt});
}

void ComponentHealth::add(std::string name, HealthStatus status, std::string detail,
                          double value) {
  checks.push_back(HealthCheck{std::move(name), status, std::move(detail), value});
}

HealthStatus ComponentHealth::status() const {
  HealthStatus s = HealthStatus::kOk;
  for (const auto& check : checks) s = worse(s, check.status);
  return s;
}

namespace {

json::Object build_info_json() {
  const obs::BuildInfo b = obs::build_info();
  json::Object o;
  o["type"] = b.build_type;
  o["compiler"] = b.compiler;
  o["sanitizer"] = b.sanitizer;
  o["rank_checks"] = b.rank_checks;
  o["lock_stats"] = b.lock_stats;
  return o;
}

}  // namespace

std::string ComponentHealth::to_json() const {
  json::Object o;
  o["component"] = component;
  o["status"] = std::string(health_status_name(status()));
  o["time"] = static_cast<std::int64_t>(time);
  o["build"] = build_info_json();
  json::Array arr;
  for (const auto& check : checks) {
    json::Object c;
    c["name"] = check.name;
    c["status"] = std::string(health_status_name(check.status));
    if (!check.detail.empty()) c["detail"] = check.detail;
    if (check.value.has_value()) c["value"] = *check.value;
    arr.emplace_back(std::move(c));
  }
  o["checks"] = std::move(arr);
  return json::Value(std::move(o)).dump();
}

HttpResponse health_response(const ComponentHealth& health) {
  const int status = health.status() == HealthStatus::kDown ? 503 : 200;
  return HttpResponse::json(status, health.to_json());
}

HttpResponse ready_response(const ComponentHealth& health) {
  const int status = health.status() == HealthStatus::kOk ? 200 : 503;
  return HttpResponse::json(status, health.to_json());
}

HttpResponse debug_logs_response(const util::LogRing& ring, const HttpRequest& req) {
  std::uint64_t trace_filter = 0;
  const std::string want = req.query.get_or("trace", "");
  if (!want.empty()) {
    const auto id = obs::parse_trace_id_hex(want);
    if (!id || *id == 0) {
      json::Object err;
      err["error"] = "bad trace id (want 16 hex characters)";
      return HttpResponse::json(400, json::Value(std::move(err)).dump());
    }
    trace_filter = *id;
  }
  const std::vector<util::LogRing::Entry> entries =
      trace_filter != 0 ? ring.entries_for_trace(trace_filter) : ring.entries();
  json::Object top;
  top["dropped"] = static_cast<std::int64_t>(ring.dropped());
  json::Array arr;
  for (const util::LogRing::Entry& e : entries) {
    json::Object o;
    o["level"] = std::string(util::log_level_name(e.level));
    o["component"] = e.component;
    o["message"] = e.message;
    if (e.trace_id != 0) o["trace_id"] = obs::trace_id_hex(e.trace_id);
    arr.emplace_back(std::move(o));
  }
  top["entries"] = std::move(arr);
  return HttpResponse::json(200, json::Value(std::move(top)).dump());
}

HttpResponse runtime_debug_response() {
  namespace ls = core::sync::lockstats;
  json::Object top;
  top["build"] = build_info_json();

  json::Object locks;
  locks["compiled"] = core::sync::kLockStatsEnabled;
  locks["enabled"] = core::sync::kLockStatsEnabled && ls::enabled();
  locks["sites_dropped"] = static_cast<std::int64_t>(ls::dropped_sites());
  json::Array sites;
  for (const ls::SiteSnapshot& s : ls::snapshot()) {
    json::Object site;
    site["lock"] = std::string(s.name != nullptr ? s.name : "<unnamed>");
    site["rank"] = static_cast<std::int64_t>(s.rank);
    site["acquisitions"] = static_cast<std::int64_t>(s.acquisitions);
    site["contended"] = static_cast<std::int64_t>(s.contended);
    site["contention_pct"] =
        s.acquisitions > 0
            ? 100.0 * static_cast<double>(s.contended) / static_cast<double>(s.acquisitions)
            : 0.0;
    site["wait_ns_total"] = static_cast<std::int64_t>(s.wait_ns_total);
    site["wait_ns_max"] = static_cast<std::int64_t>(s.wait_ns_max);
    site["wait_p50_ns"] = static_cast<std::int64_t>(ls::wait_quantile_ns(s, 0.50));
    site["wait_p99_ns"] = static_cast<std::int64_t>(ls::wait_quantile_ns(s, 0.99));
    site["hold_ns_total"] = static_cast<std::int64_t>(s.hold_ns_total);
    site["hold_ns_max"] = static_cast<std::int64_t>(s.hold_ns_max);
    sites.emplace_back(std::move(site));
  }
  locks["sites"] = std::move(sites);
  top["lock_stats"] = std::move(locks);

  json::Array queues;
  for (const core::runtime::QueueSnapshot& q : core::runtime::queue_snapshot()) {
    json::Object o;
    o["queue"] = q.name;
    o["capacity"] = static_cast<std::int64_t>(q.capacity);
    o["depth"] = static_cast<std::int64_t>(q.depth);
    o["high_watermark"] = static_cast<std::int64_t>(q.high_watermark);
    o["pushes"] = static_cast<std::int64_t>(q.pushes);
    o["pops"] = static_cast<std::int64_t>(q.pops);
    o["blocked_pushes"] = static_cast<std::int64_t>(q.blocked_pushes);
    o["rejected_pushes"] = static_cast<std::int64_t>(q.rejected_pushes);
    queues.emplace_back(std::move(o));
  }
  top["queues"] = std::move(queues);

  json::Array loops;
  for (const core::runtime::LoopSnapshot& l : core::runtime::loop_snapshot()) {
    json::Object o;
    o["loop"] = l.name;
    o["iterations"] = static_cast<std::int64_t>(l.iterations);
    o["busy_ns"] = static_cast<std::int64_t>(l.busy_ns);
    o["idle_ns"] = static_cast<std::int64_t>(l.idle_ns);
    o["duty_pct"] = l.duty_pct;
    loops.emplace_back(std::move(o));
  }
  top["loops"] = std::move(loops);

  json::Array scheds;
  for (const core::runtime::SchedSnapshot& s : core::runtime::sched_snapshot()) {
    json::Object o;
    o["scheduler"] = s.name;
    o["workers"] = static_cast<std::int64_t>(s.workers);
    o["submitted"] = static_cast<std::int64_t>(s.submitted);
    o["executed"] = static_cast<std::int64_t>(s.executed);
    o["delayed"] = static_cast<std::int64_t>(s.delayed);
    o["periodic_runs"] = static_cast<std::int64_t>(s.periodic_runs);
    o["queue_depth"] = static_cast<std::int64_t>(s.depth);
    o["queue_high_watermark"] = static_cast<std::int64_t>(s.high_watermark);
    scheds.emplace_back(std::move(o));
  }
  top["scheds"] = std::move(scheds);

  namespace sd = core::runtime::sched_delay;
  json::Array queue_delays;
  for (const sd::TaskDelaySnapshot& t : sd::snapshot()) {
    json::Object o;
    o["task"] = std::string(t.name);
    o["count"] = static_cast<std::int64_t>(t.count);
    o["delay_ns_total"] = static_cast<std::int64_t>(t.delay_ns_total);
    o["delay_ns_max"] = static_cast<std::int64_t>(t.delay_ns_max);
    o["delay_ns_avg"] =
        static_cast<std::int64_t>(t.count > 0 ? t.delay_ns_total / t.count : 0);
    o["delay_p50_ns"] = static_cast<std::int64_t>(sd::delay_quantile_ns(t, 0.50));
    o["delay_p99_ns"] = static_cast<std::int64_t>(sd::delay_quantile_ns(t, 0.99));
    queue_delays.emplace_back(std::move(o));
  }
  top["queue_delays"] = std::move(queue_delays);

  const obs::CpuProfiler::Stats prof = obs::CpuProfiler::instance().stats();
  json::Object profiler;
  profiler["running"] = prof.running;
  profiler["timer"] = prof.timer;
  profiler["hz"] = static_cast<std::int64_t>(prof.hz);
  profiler["samples_captured"] = static_cast<std::int64_t>(prof.samples_captured);
  profiler["samples_dropped"] = static_cast<std::int64_t>(prof.samples_dropped);
  profiler["samples_folded"] = static_cast<std::int64_t>(prof.samples_folded);
  profiler["folds"] = static_cast<std::int64_t>(prof.folds);
  profiler["rings_active"] = static_cast<std::int64_t>(prof.rings_active);
  profiler["rings_reclaimed"] = static_cast<std::int64_t>(prof.rings_reclaimed);
  profiler["stacks"] = static_cast<std::int64_t>(prof.stacks);
  profiler["stack_overflows"] = static_cast<std::int64_t>(prof.stack_overflows);
  top["profiler"] = std::move(profiler);

  return HttpResponse::json(200, json::Value(std::move(top)).dump());
}

HttpResponse pprof_response(const HttpRequest& req) {
  obs::CpuProfiler& prof = obs::CpuProfiler::instance();
  if (!prof.running()) {
    return HttpResponse::text(503, "cpu profiler not running (enable [profiling])\n");
  }
  int seconds = 0;
  const std::string want = req.query.get_or("seconds", "0");
  seconds = std::clamp(std::atoi(want.c_str()), 0, 30);
  std::string body;
  if (seconds > 0 && prof.options().timer) {
    // pprof-style delta: fold what's pending, remember the counts, let the
    // timer sample for the window, and emit only the growth.
    prof.process_once();
    std::unordered_map<std::string, std::uint64_t> before;
    for (const obs::ProfileStack& s : prof.snapshot()) before[s.stack] = s.count;
    std::this_thread::sleep_for(std::chrono::seconds(seconds));
    prof.process_once();
    std::vector<obs::ProfileStack> delta;
    for (obs::ProfileStack& s : prof.snapshot()) {
      const auto it = before.find(s.stack);
      const std::uint64_t base = it != before.end() ? it->second : 0;
      if (s.count > base) {
        s.count -= base;
        delta.push_back(std::move(s));
      }
    }
    std::sort(delta.begin(), delta.end(),
              [](const obs::ProfileStack& a, const obs::ProfileStack& b) {
                return a.count > b.count;
              });
    for (const obs::ProfileStack& s : delta) {
      body += s.stack;
      body += ' ';
      body += std::to_string(s.count);
      body += '\n';
    }
  } else {
    // Cumulative profile since start/clear (also the deterministic-mode
    // path, where no timer ticks during a sleep anyway).
    prof.process_once();
    body = prof.collapsed();
  }
  return HttpResponse::text(200, std::move(body));
}

}  // namespace lms::net

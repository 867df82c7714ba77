#pragma once

// Telemetry exporter: the stack monitoring itself with itself.
//
// One Runnable writes all of the stack's own telemetry back into the stack.
// An Exporter pulls points from a source, serializes them as one
// line-protocol batch and hands the body to a WriteFn — normally
// net::post_write() to the router, so the points are enriched and land in
// the TSDB like any collector batch. The target is a callback because obs
// must not depend on net. Sources, one constant measurement each:
//   registry_source  lms_internal  update_runtime_metrics + to_points
//   span_source      lms_traces    SpanRecorder::drain + span_to_point
//   profile_source   lms_profiles  CpuProfiler::process_once + top-K
//
// One policy for every source: the whole export runs under a
// TraceSuppressGuard (the write crosses the router, and spans about
// exporting telemetry would feed back into lms_traces); an empty source
// writes nothing; a failed write counts its points as dropped and does not
// retry them; detach() cancels the periodic task and exports once more.
//
// Driving modes: export_once() for sim-clocked harnesses and tests, or
// attach(scheduler) for a periodic task named after the exporter
// ("obs.selfscrape", "obs.traceexport", "obs.profileexport").

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "lms/core/runnable.hpp"
#include "lms/core/taskscheduler.hpp"
#include "lms/lineproto/point.hpp"
#include "lms/obs/metrics.hpp"
#include "lms/util/clock.hpp"
#include "lms/util/status.hpp"

namespace lms::obs {

class CpuProfiler;
class SpanRecorder;
struct SpanRecord;

/// Measurements the three sources write.
inline constexpr std::string_view kInternalMeasurement = "lms_internal";
inline constexpr std::string_view kTraceMeasurement = "lms_traces";
inline constexpr std::string_view kProfileMeasurement = "lms_profiles";

class Exporter : public core::Runnable {
 public:
  /// Produce the points of one export (empty = nothing to export).
  using Source = std::function<std::vector<lineproto::Point>()>;
  /// Deliver one serialized line-protocol batch to the stack.
  using WriteFn = std::function<util::Status(const std::string& lineproto_body)>;

  /// `task_name` names the periodic task once attached; `interval` is its
  /// cadence (<= 0 means one second).
  Exporter(std::string task_name, util::TimeNs interval, Source source, WriteFn write);
  ~Exporter() override;
  Exporter(const Exporter&) = delete;
  Exporter& operator=(const Exporter&) = delete;

  /// Pull + serialize + write one batch now. Returns OK when there was
  /// nothing to export.
  util::Status export_once();

  std::uint64_t exports() const { return exports_.load(); }
  std::uint64_t failures() const { return failures_.load(); }
  std::uint64_t points_exported() const { return points_exported_.load(); }
  std::uint64_t points_dropped() const { return points_dropped_.load(); }

 protected:
  void on_attach(core::TaskScheduler& sched) override;
  void on_detach() override;

 private:
  const std::string task_name_;
  const util::TimeNs interval_;
  Source source_;
  WriteFn write_;

  std::atomic<std::uint64_t> exports_{0};
  std::atomic<std::uint64_t> failures_{0};
  std::atomic<std::uint64_t> points_exported_{0};
  std::atomic<std::uint64_t> points_dropped_{0};
  core::PeriodicTaskHandle task_;
};

/// Registry snapshot as lms_internal points: the process-wide lock, queue
/// and loop stats are folded into `registry` first, every point carries
/// `tags` (set at least hostname so enrichment and dashboards can key on
/// it) and is timestamped clock.now().
Exporter::Source registry_source(Registry& registry, const util::Clock& clock, Labels tags);

/// Finished spans drained from `recorder` (at most 2048 per export) as
/// lms_traces points, `host` stamped on each.
Exporter::Source span_source(SpanRecorder& recorder, std::string host);

/// The profiler's pending samples folded, then its `top_k` heaviest stacks
/// as lms_profiles points timestamped clock.now(), `host` stamped on each.
///
/// Point format — one point per exported stack:
///   tags         host=<host>  rank=<0..K-1>  [trace_id=<016x>]
///   fields       stack="<collapsed stack>"  frame="<leaf frame>"
///                samples=<int>
Exporter::Source profile_source(CpuProfiler& profiler, const util::Clock& clock,
                                std::string host, std::size_t top_k);

/// One span as one lms_traces point:
///   tags         trace_id=<016x>  component=<span component>  [host=<host>]
///   fields       span="<self-contained JSON record>"   (string-valued)
///                duration_ns=<int>  name="<span name>"
///   timestamp    span start (wall ns)
/// The span JSON carries ids, name, parent, timing, ok and note, so a reader
/// never needs to row-align separate field columns — each value is the whole
/// span. Tagging by trace_id makes assembly a tag-index lookup.
lineproto::Point span_to_point(const SpanRecord& span, std::string_view host);

}  // namespace lms::obs

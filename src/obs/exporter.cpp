#include "lms/obs/exporter.hpp"

#include <cstdio>

#include "lms/lineproto/codec.hpp"
#include "lms/obs/cpuprofiler.hpp"
#include "lms/obs/runtime.hpp"
#include "lms/obs/trace.hpp"
#include "lms/util/logging.hpp"

namespace lms::obs {

namespace {

/// Upper bound on spans taken from the recorder per export.
constexpr std::size_t kMaxSpansPerExport = 2048;

void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
}

/// The self-contained span record carried in the "span" field. Ids are hex
/// strings (JSON numbers lose precision past 2^53), timings are integers.
std::string span_json(const SpanRecord& s) {
  std::string out = "{\"span_id\":\"";
  out += trace_id_hex(s.span_id);
  out += "\",\"parent\":\"";
  out += trace_id_hex(s.parent_span_id);
  out += "\",\"name\":\"";
  append_json_escaped(out, s.name);
  out += "\",\"start_ns\":";
  out += std::to_string(s.start_wall_ns);
  out += ",\"duration_ns\":";
  out += std::to_string(s.duration_ns);
  out += ",\"ok\":";
  out += s.ok ? "true" : "false";
  if (!s.note.empty()) {
    out += ",\"note\":\"";
    append_json_escaped(out, s.note);
    out += "\"";
  }
  out += "}";
  return out;
}

}  // namespace

lineproto::Point span_to_point(const SpanRecord& span, std::string_view host) {
  lineproto::Point p;
  p.measurement = std::string(kTraceMeasurement);
  p.set_tag("trace_id", trace_id_hex(span.trace_id));
  p.set_tag("component", span.component);
  if (!host.empty()) p.set_tag("host", host);
  p.add_field("span", span_json(span));
  p.add_field("duration_ns", span.duration_ns);
  p.add_field("name", span.name);
  p.timestamp = span.start_wall_ns;
  p.normalize();
  return p;
}

Exporter::Source registry_source(Registry& registry, const util::Clock& clock, Labels tags) {
  return [&registry, &clock, tags = std::move(tags)] {
    update_runtime_metrics(registry);
    return to_points(registry, kInternalMeasurement, tags, clock.now());
  };
}

Exporter::Source span_source(SpanRecorder& recorder, std::string host) {
  return [&recorder, host = std::move(host)] {
    std::vector<lineproto::Point> points;
    for (const SpanRecord& s : recorder.drain(kMaxSpansPerExport)) {
      points.push_back(span_to_point(s, host));
    }
    return points;
  };
}

Exporter::Source profile_source(CpuProfiler& profiler, const util::Clock& clock,
                                std::string host, std::size_t top_k) {
  return [&profiler, &clock, host = std::move(host), top_k] {
    profiler.process_once();
    const std::vector<ProfileStack> stacks = profiler.snapshot(top_k);
    const util::TimeNs now = clock.now();
    std::vector<lineproto::Point> points;
    points.reserve(stacks.size());
    for (std::size_t rank = 0; rank < stacks.size(); ++rank) {
      const ProfileStack& s = stacks[rank];
      lineproto::Point p;
      p.measurement = std::string(kProfileMeasurement);
      if (!host.empty()) p.set_tag("host", host);
      p.set_tag("rank", std::to_string(rank));
      if (s.trace_id != 0) p.set_tag("trace_id", trace_id_hex(s.trace_id));
      p.add_field("stack", s.stack);
      const std::size_t leaf = s.stack.rfind(';');
      p.add_field("frame", leaf == std::string::npos ? s.stack : s.stack.substr(leaf + 1));
      p.add_field("samples", static_cast<std::int64_t>(s.count));
      p.timestamp = now;
      p.normalize();
      points.push_back(std::move(p));
    }
    return points;
  };
}

Exporter::Exporter(std::string task_name, util::TimeNs interval, Source source, WriteFn write)
    : task_name_(std::move(task_name)),
      interval_(interval > 0 ? interval : util::kNanosPerSecond),
      source_(std::move(source)),
      write_(std::move(write)) {}

Exporter::~Exporter() { detach(); }

util::Status Exporter::export_once() {
  const TraceSuppressGuard suppress;
  const std::vector<lineproto::Point> points = source_();
  if (points.empty()) return {};
  util::Status status = write_(lineproto::serialize_batch(points));
  exports_.fetch_add(1, std::memory_order_relaxed);
  if (!status.ok()) {
    failures_.fetch_add(1, std::memory_order_relaxed);
    points_dropped_.fetch_add(points.size(), std::memory_order_relaxed);
    LMS_WARN("obs") << task_name_ << " write failed (" << points.size()
                    << " points dropped): " << status.message();
    return status;
  }
  points_exported_.fetch_add(points.size(), std::memory_order_relaxed);
  return status;
}

void Exporter::on_attach(core::TaskScheduler& sched) {
  task_ = sched.submit_periodic(task_name_, interval_, [this] { export_once(); });
}

void Exporter::on_detach() {
  task_.cancel();
  export_once();
}

}  // namespace lms::obs

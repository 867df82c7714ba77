#include "lms/analysis/recorder.hpp"

#include "lms/lineproto/codec.hpp"
#include "lms/util/logging.hpp"

namespace lms::analysis {

FindingRecorder::FindingRecorder(net::HttpClient& client, std::string router_url,
                                 std::string database, std::string measurement)
    : client_(client),
      router_url_(std::move(router_url)),
      database_(std::move(database)),
      measurement_(std::move(measurement)) {}

std::size_t FindingRecorder::record(const std::vector<Finding>& findings) {
  if (findings.empty()) return 0;
  std::vector<lineproto::Point> points;
  points.reserve(findings.size());
  for (const auto& f : findings) {
    lineproto::Point p;
    p.measurement = measurement_;
    p.set_tag("rule", f.rule);
    p.set_tag("severity", std::string(severity_name(f.severity)));
    if (!f.hostname.empty()) p.set_tag("hostname", f.hostname);
    if (!f.job_id.empty()) p.set_tag("jobid", f.job_id);
    p.add_field("text", f.to_string());
    p.add_field("duration_s", util::ns_to_seconds(f.duration()));
    p.timestamp = f.end;
    p.normalize();
    points.push_back(std::move(p));
  }
  const util::Status status =
      net::post_write(client_, router_url_, database_, lineproto::serialize_batch(points));
  if (!status.ok()) {
    ++failures_;
    LMS_WARN("recorder") << "alert write failed: " << status.message();
    return 0;
  }
  recorded_ += points.size();
  return points.size();
}

}  // namespace lms::analysis

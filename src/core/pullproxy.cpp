#include "lms/core/pullproxy.hpp"

#include "lms/lineproto/codec.hpp"
#include "lms/util/logging.hpp"
#include "lms/util/strings.hpp"
#include "lms/util/xml.hpp"

namespace lms::core {

util::Result<std::vector<lineproto::Point>> parse_ganglia_xml(std::string_view xml,
                                                              util::TimeNs now) {
  auto root = util::xml_parse(xml);
  if (!root.ok()) {
    return util::Result<std::vector<lineproto::Point>>::error(root.message());
  }
  if (root->name != "GANGLIA_XML") {
    return util::Result<std::vector<lineproto::Point>>::error(
        "expected GANGLIA_XML root, got <" + root->name + ">");
  }
  std::vector<lineproto::Point> points;
  for (const util::XmlElement* cluster : root->children_named("CLUSTER")) {
    const std::string cluster_name = cluster->attr("NAME");
    for (const util::XmlElement* host : cluster->children_named("HOST")) {
      const std::string hostname = host->attr("NAME");
      if (hostname.empty()) continue;
      lineproto::Point p;
      p.measurement = "ganglia";
      p.set_tag("hostname", hostname);
      if (!cluster_name.empty()) p.set_tag("cluster", cluster_name);
      p.timestamp = now;
      for (const util::XmlElement* metric : host->children_named("METRIC")) {
        const std::string name = metric->attr("NAME");
        const std::string val = metric->attr("VAL");
        const std::string type = metric->attr("TYPE");
        if (name.empty()) continue;
        if (type == "string") {
          p.add_field(name, val);
        } else if (const auto d = util::parse_double(val)) {
          p.add_field(name, *d);
        }
      }
      if (!p.fields.empty()) {
        p.normalize();
        points.push_back(std::move(p));
      }
    }
  }
  return points;
}

GangliaXmlSource::GangliaXmlSource(net::HttpClient& client, std::string url)
    : client_(client), url_(std::move(url)) {}

util::Result<std::vector<lineproto::Point>> GangliaXmlSource::pull(util::TimeNs now) {
  auto resp = client_.get(url_);
  if (!resp.ok()) {
    return util::Result<std::vector<lineproto::Point>>::error(resp.message());
  }
  if (!resp->ok()) {
    return util::Result<std::vector<lineproto::Point>>::error(
        "gmond endpoint returned HTTP " + std::to_string(resp->status));
  }
  return parse_ganglia_xml(resp->body, now);
}

PullProxy::PullProxy(net::HttpClient& router_client, std::string router_url,
                     std::string database)
    : client_(router_client), router_url_(std::move(router_url)),
      database_(std::move(database)) {}

void PullProxy::add_source(std::unique_ptr<PullSource> source, util::TimeNs interval) {
  sources_.push_back(Scheduled{std::move(source), interval, 0});
}

std::size_t PullProxy::tick(util::TimeNs now) {
  std::size_t pushed = 0;
  for (auto& s : sources_) {
    if (now < s.next_due) continue;
    s.next_due = now + s.interval;
    auto points = s.source->pull(now);
    if (!points.ok()) {
      ++pull_failures_;
      LMS_WARN("pullproxy") << s.source->name() << ": pull failed: " << points.message();
      continue;
    }
    if (points->empty()) continue;
    const util::Status status =
        net::post_write(client_, router_url_, database_, lineproto::serialize_batch(*points));
    if (!status.ok()) {
      ++pull_failures_;
      LMS_WARN("pullproxy") << s.source->name() << ": push to router failed: "
                            << status.message();
      continue;
    }
    pushed += points->size();
  }
  return pushed;
}

}  // namespace lms::core

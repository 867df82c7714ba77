#include "lms/analysis/aggregator.hpp"

#include <algorithm>

#include "lms/core/router.hpp"
#include "lms/lineproto/codec.hpp"
#include "lms/util/logging.hpp"
#include "lms/util/strings.hpp"

namespace lms::analysis {

StreamAggregator::StreamAggregator(net::PubSubBroker& broker, net::HttpClient& client,
                                   Options options)
    : subscription_(broker.subscribe(std::string(core::MetricsRouter::kTopicMetrics))),
      client_(client),
      options_(std::move(options)) {}

bool StreamAggregator::measurement_selected(const std::string& measurement) const {
  if (util::ends_with(measurement, options_.suffix)) return false;  // no recursion
  if (options_.measurement_globs.empty()) return true;
  for (const auto& glob : options_.measurement_globs) {
    if (util::glob_match(glob, measurement)) return true;
  }
  return false;
}

void StreamAggregator::consume(const lineproto::Point& point) {
  const std::string job(point.tag("jobid"));
  if (job.empty()) return;  // job-level aggregation only
  if (!measurement_selected(point.measurement)) return;
  const std::string host(point.hostname());
  const util::TimeNs window_start = (point.timestamp / options_.window) * options_.window;
  for (const auto& [field, value] : point.fields) {
    if (!value.is_numeric()) continue;
    const double v = value.as_double();
    WindowState& w =
        windows_[Key{job, point.measurement, field, window_start}];
    if (w.count == 0) {
      w.min = v;
      w.max = v;
    } else {
      w.min = std::min(w.min, v);
      w.max = std::max(w.max, v);
    }
    w.sum += v;
    ++w.count;
    if (!host.empty()) w.hosts.insert(host);
  }
  ++stats_.points_consumed;
}

std::size_t StreamAggregator::pump(util::TimeNs now) {
  {
    const core::sync::LockGuard lock(mu_);
    while (auto msg = subscription_->try_receive()) {
      for (const auto& p : lineproto::parse_lenient(msg->payload, nullptr)) {
        consume(p);
      }
    }
  }
  return emit_completed(now, /*force=*/false);
}

std::size_t StreamAggregator::flush(util::TimeNs now) {
  pump(now);
  return emit_completed(now, /*force=*/true);
}

std::size_t StreamAggregator::emit_completed(util::TimeNs now, bool force) {
  std::vector<lineproto::Point> out;
  {
    const core::sync::LockGuard lock(mu_);
    for (auto it = windows_.begin(); it != windows_.end();) {
      const Key& key = it->first;
      const WindowState& w = it->second;
      const bool complete = key.window_start + options_.window <= now;
      if (!complete && !force) {
        ++it;
        continue;
      }
      lineproto::Point p;
      p.measurement = key.measurement + options_.suffix;
      p.set_tag("jobid", key.job);
      p.timestamp = key.window_start + options_.window;
      p.add_field(key.field + "_sum", w.sum);
      p.add_field(key.field + "_mean", w.count > 0 ? w.sum / static_cast<double>(w.count) : 0);
      p.add_field(key.field + "_min", w.min);
      p.add_field(key.field + "_max", w.max);
      p.add_field(key.field + "_nodes", static_cast<std::int64_t>(w.hosts.size()));
      p.normalize();
      out.push_back(std::move(p));
      it = windows_.erase(it);
    }
  }
  if (out.empty()) return 0;
  const util::Status status = net::post_write(client_, options_.router_url, options_.database,
                                              lineproto::serialize_batch(out));
  const core::sync::LockGuard lock(mu_);
  if (!status.ok()) {
    ++stats_.send_failures;
    LMS_WARN("aggregator") << "emit failed: " << status.message();
    return 0;
  }
  stats_.points_emitted += out.size();
  return out.size();
}

StreamAggregator::Stats StreamAggregator::stats() const {
  const core::sync::LockGuard lock(mu_);
  return stats_;
}

}  // namespace lms::analysis

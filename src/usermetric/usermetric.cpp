#include "lms/usermetric/usermetric.hpp"

#include "lms/lineproto/codec.hpp"
#include "lms/util/logging.hpp"
#include "lms/util/strings.hpp"

namespace lms::usermetric {

UserMetricClient::UserMetricClient(net::HttpClient& client, const util::Clock& clock,
                                   Options options)
    : client_(client), clock_(clock), options_(std::move(options)) {
  buffer_.reserve(options_.buffer_capacity);
  last_flush_ = clock_.now();
}

UserMetricClient::~UserMetricClient() {
  // Best effort: do not lose buffered points on shutdown.
  flush();
}

void UserMetricClient::value(std::string_view name, double v,
                             std::vector<lineproto::Tag> tags, util::TimeNs timestamp) {
  lineproto::Point p;
  p.measurement = options_.measurement;
  p.tags = std::move(tags);
  p.add_field(name, v);
  p.timestamp = timestamp != 0 ? timestamp : clock_.now();
  {
    const core::sync::LockGuard lock(mu_);
    ++stats_.values_reported;
  }
  enqueue(std::move(p));
}

void UserMetricClient::event(std::string_view name, std::string_view text,
                             std::vector<lineproto::Tag> tags, util::TimeNs timestamp) {
  lineproto::Point p;
  p.measurement = options_.event_measurement;
  p.tags = std::move(tags);
  p.set_tag("event", std::string(name));
  p.add_field("text", std::string(text));
  p.timestamp = timestamp != 0 ? timestamp : clock_.now();
  {
    const core::sync::LockGuard lock(mu_);
    ++stats_.events_reported;
  }
  enqueue(std::move(p));
}

void UserMetricClient::enqueue(lineproto::Point point) {
  for (const auto& [k, v] : options_.default_tags) {
    if (!point.has_tag(k)) point.set_tag(k, v);
  }
  point.normalize();
  const core::sync::LockGuard lock(mu_);
  if (buffer_.size() >= options_.buffer_capacity) {
    if (options_.drop_when_full) {
      ++stats_.points_dropped;
      return;
    }
    // Synchronous flush to make room (the "lightweight" default: the send
    // happens at most every buffer_capacity calls).
    if (!flush_locked()) {
      // Could not send: overwrite the oldest point to bound memory.
      buffer_.erase(buffer_.begin());
      ++stats_.points_dropped;
    }
  }
  buffer_.push_back(std::move(point));
}

bool UserMetricClient::flush() {
  const core::sync::LockGuard lock(mu_);
  return flush_locked();
}

bool UserMetricClient::flush_locked() {
  if (buffer_.empty()) return true;
  const util::Status status = net::post_write(client_, options_.router_url, options_.database,
                                              lineproto::serialize_batch(buffer_));
  if (!status.ok()) {
    ++stats_.send_failures;
    LMS_WARN("usermetric") << "flush failed: " << status.message();
    return false;
  }
  stats_.points_sent += buffer_.size();
  ++stats_.batches_sent;
  buffer_.clear();
  last_flush_ = clock_.now();
  return true;
}

void UserMetricClient::tick(util::TimeNs now) {
  const core::sync::LockGuard lock(mu_);
  if (!buffer_.empty() && now - last_flush_ >= options_.flush_interval) {
    flush_locked();
    last_flush_ = now;
  }
}

UserMetricClient::Stats UserMetricClient::stats() const {
  const core::sync::LockGuard lock(mu_);
  return stats_;
}

std::size_t UserMetricClient::buffered() const {
  const core::sync::LockGuard lock(mu_);
  return buffer_.size();
}

util::Result<lineproto::Point> parse_cli_metric(const std::vector<std::string>& args,
                                                util::TimeNs now) {
  using util::Result;
  if (args.empty()) return Result<lineproto::Point>::error("usage: <name> <value> [tag=v ...]");
  lineproto::Point p;
  std::size_t i = 0;
  if (args[0] == "--event") {
    if (args.size() < 3) {
      return Result<lineproto::Point>::error("usage: --event <name> <text> [tag=v ...]");
    }
    p.measurement = "userevents";
    p.set_tag("event", args[1]);
    p.add_field("text", args[2]);
    i = 3;
  } else {
    if (args.size() < 2) {
      return Result<lineproto::Point>::error("usage: <name> <value> [tag=v ...]");
    }
    const auto v = util::parse_double(args[1]);
    if (!v) return Result<lineproto::Point>::error("bad value '" + args[1] + "'");
    p.measurement = "usermetric";
    p.add_field(args[0], *v);
    i = 2;
  }
  for (; i < args.size(); ++i) {
    const auto [k, v] = util::split_once(args[i], '=');
    if (k.empty() || v.empty()) {
      return Result<lineproto::Point>::error("bad tag '" + args[i] + "' (want key=value)");
    }
    p.set_tag(k, v);
  }
  p.timestamp = now;
  p.normalize();
  return p;
}

}  // namespace lms::usermetric

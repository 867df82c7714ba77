#include "lms/analysis/rules.hpp"

#include <algorithm>
#include <map>

#include "lms/util/strings.hpp"

namespace lms::analysis {

std::string_view severity_name(Severity s) {
  switch (s) {
    case Severity::kInfo:
      return "info";
    case Severity::kWarning:
      return "warning";
    case Severity::kCritical:
      return "critical";
  }
  return "?";
}

std::string Condition::to_string() const {
  return metric.to_string() + (op == ThresholdOp::kBelow ? " < " : " > ") +
         util::format_double(threshold);
}

std::string Finding::to_string() const {
  return "[" + std::string(severity_name(severity)) + "] " + rule + " on " + hostname +
         " (job " + job_id + ") from " + util::format_utc(start) + " for " +
         util::format_duration(end - start) + ": " + description;
}

std::vector<Rule> builtin_rules() {
  std::vector<Rule> rules;
  {
    Rule r;
    r.name = "idle_node";
    r.description = "CPU load near zero: node allocated but not computing";
    r.conditions.push_back(
        Condition{{"cpu", "user_percent"}, ThresholdOp::kBelow, 5.0});
    r.min_duration = 10 * util::kNanosPerMinute;
    r.severity = Severity::kWarning;
    rules.push_back(std::move(r));
  }
  {
    // The Fig. 4 rule: DP FP rate and memory bandwidth simultaneously below
    // thresholds for more than 10 minutes reveals a break in computation.
    Rule r;
    r.name = "compute_break";
    r.description = "FP rate and memory bandwidth below thresholds: break in computation";
    r.conditions.push_back(
        Condition{{"likwid_mem_dp", "dp_mflop_per_s"}, ThresholdOp::kBelow, 100.0});
    r.conditions.push_back(Condition{
        {"likwid_mem_dp", "memory_bandwidth_mbytes_per_s"}, ThresholdOp::kBelow, 500.0});
    r.min_duration = 10 * util::kNanosPerMinute;
    r.severity = Severity::kCritical;
    rules.push_back(std::move(r));
  }
  {
    Rule r;
    r.name = "memory_exceeded";
    r.description = "memory footprint close to node capacity";
    r.conditions.push_back(
        Condition{{"memory", "used_percent"}, ThresholdOp::kAbove, 95.0});
    r.min_duration = 2 * util::kNanosPerMinute;
    r.severity = Severity::kCritical;
    rules.push_back(std::move(r));
  }
  {
    Rule r;
    r.name = "low_ipc";
    r.description = "sustained very low instruction throughput";
    r.conditions.push_back(Condition{{"likwid_mem_dp", "cpi"}, ThresholdOp::kAbove, 5.0});
    r.min_duration = 10 * util::kNanosPerMinute;
    r.severity = Severity::kInfo;
    rules.push_back(std::move(r));
  }
  return rules;
}

namespace {

util::Result<Condition> parse_condition(std::string_view text) {
  using util::Result;
  const bool below = text.find('<') != std::string_view::npos;
  const bool above = text.find('>') != std::string_view::npos;
  if (below == above) {
    return Result<Condition>::error("condition '" + std::string(text) +
                                    "': expected exactly one of '<' or '>'");
  }
  const char op_char = below ? '<' : '>';
  const auto [lhs, rhs] = util::split_once(text, op_char);
  const auto [measurement, field] = util::split_once(util::trim(lhs), '.');
  const auto threshold = util::parse_double(util::trim(rhs));
  if (measurement.empty() || field.empty() || !threshold) {
    return Result<Condition>::error("condition '" + std::string(text) +
                                    "': want <measurement>.<field> " + op_char +
                                    " <number>");
  }
  Condition c;
  c.metric = MetricRef{std::string(util::trim(measurement)), std::string(util::trim(field))};
  c.op = below ? ThresholdOp::kBelow : ThresholdOp::kAbove;
  c.threshold = *threshold;
  return c;
}

}  // namespace

util::Result<std::vector<Rule>> rules_from_config(const util::Config& config) {
  using util::Result;
  std::vector<Rule> rules;
  for (const auto& section : config.sections()) {
    if (!util::starts_with(section, "rule:")) continue;
    Rule rule;
    rule.name = section.substr(5);
    if (rule.name.empty()) {
      return Result<std::vector<Rule>>::error("rule section with empty name");
    }
    rule.description = config.get_or(section, "description", rule.name);
    const std::string severity = config.get_or(section, "severity", "warning");
    if (severity == "info") {
      rule.severity = Severity::kInfo;
    } else if (severity == "warning") {
      rule.severity = Severity::kWarning;
    } else if (severity == "critical") {
      rule.severity = Severity::kCritical;
    } else {
      return Result<std::vector<Rule>>::error("rule " + rule.name +
                                              ": bad severity '" + severity + "'");
    }
    for (const char* key : {"min_duration", "resolution"}) {
      if (const auto v = config.get(section, key)) {
        const auto d = tsdb::parse_duration(*v);
        if (!d.ok()) {
          return Result<std::vector<Rule>>::error("rule " + rule.name + ": " + d.message());
        }
        (std::string_view(key) == "min_duration" ? rule.min_duration : rule.resolution) = *d;
      }
    }
    for (const auto& key : config.keys(section)) {
      if (!util::starts_with(key, "condition")) continue;
      auto cond = parse_condition(*config.get(section, key));
      if (!cond.ok()) {
        return Result<std::vector<Rule>>::error("rule " + rule.name + ": " + cond.message());
      }
      rule.conditions.push_back(cond.take());
    }
    if (rule.conditions.empty()) {
      return Result<std::vector<Rule>>::error("rule " + rule.name + ": no conditions");
    }
    rules.push_back(std::move(rule));
  }
  return rules;
}

RuleEngine::RuleEngine(const MetricFetcher& fetcher) : fetcher_(fetcher) {}

namespace {

struct Interval {
  util::TimeNs a = 0;
  util::TimeNs b = 0;
};

/// Violation intervals of one condition over its raw samples. A violating
/// sample at t covers [t, t + cover) where cover is the gap to the next
/// sample, capped at `max_gap` — producers may report the metric only every
/// few intervals (HPM group multiplexing), which must not break a
/// continuous violation. Overlapping/adjacent intervals are merged.
std::vector<Interval> violation_intervals(const MetricSeries& series, const Condition& cond,
                                          util::TimeNs max_gap) {
  std::vector<Interval> out;
  for (std::size_t i = 0; i < series.size(); ++i) {
    if (!cond.violated(series.values[i])) continue;
    const util::TimeNs t = series.times[i];
    util::TimeNs cover = max_gap;
    if (i + 1 < series.size()) {
      cover = std::min(series.times[i + 1] - t, max_gap);
    }
    if (!out.empty() && t <= out.back().b) {
      out.back().b = std::max(out.back().b, t + cover);
    } else {
      out.push_back(Interval{t, t + cover});
    }
  }
  return out;
}

/// Intersection of two sorted interval lists.
std::vector<Interval> intersect(const std::vector<Interval>& x,
                                const std::vector<Interval>& y) {
  std::vector<Interval> out;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < x.size() && j < y.size()) {
    const util::TimeNs a = std::max(x[i].a, y[j].a);
    const util::TimeNs b = std::min(x[i].b, y[j].b);
    if (a < b) out.push_back(Interval{a, b});
    if (x[i].b < y[j].b) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
}

/// Evaluate one rule for one host: per-condition violation intervals are
/// intersected (all conditions must hold simultaneously); intersections at
/// least min_duration long become findings — the threshold+timeout semantics
/// of the paper's Fig. 4.
std::vector<Finding> evaluate_rule(const JobFrame& frame, const Rule& rule,
                                   const std::string& hostname) {
  const util::TimeNs max_gap = 3 * rule.resolution;
  std::vector<Interval> combined;
  bool first = true;
  for (const auto& cond : rule.conditions) {
    const MetricSeries& series = frame.series(cond.metric, hostname);
    if (series.empty()) return {};
    auto intervals = violation_intervals(series, cond, max_gap);
    if (intervals.empty()) return {};
    combined = first ? std::move(intervals) : intersect(combined, intervals);
    first = false;
    if (combined.empty()) return {};
  }
  std::vector<Finding> findings;
  for (const auto& iv : combined) {
    if (iv.b - iv.a < rule.min_duration) continue;
    Finding f;
    f.rule = rule.name;
    f.description = rule.description;
    f.hostname = hostname;
    f.job_id = frame.job_id();
    f.severity = rule.severity;
    f.start = iv.a;
    f.end = iv.b;
    findings.push_back(std::move(f));
  }
  return findings;
}

}  // namespace

std::vector<MetricRef> RuleEngine::metrics() const {
  std::vector<MetricRef> refs;
  for (const auto& rule : rules_) {
    for (const auto& cond : rule.conditions) refs.push_back(cond.metric);
  }
  return refs;
}

std::vector<Finding> RuleEngine::evaluate_host(const JobFrame& frame,
                                               const std::string& hostname) const {
  std::vector<Finding> findings;
  for (const auto& rule : rules_) {
    auto fs = evaluate_rule(frame, rule, hostname);
    findings.insert(findings.end(), std::make_move_iterator(fs.begin()),
                    std::make_move_iterator(fs.end()));
  }
  return findings;
}

std::vector<Finding> RuleEngine::evaluate_job(const JobFrame& frame) const {
  std::vector<Finding> findings;
  for (const auto& host : frame.keys()) {
    auto fs = evaluate_host(frame, host);
    findings.insert(findings.end(), std::make_move_iterator(fs.begin()),
                    std::make_move_iterator(fs.end()));
  }
  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    if (a.start != b.start) return a.start < b.start;
    return a.hostname < b.hostname;
  });
  return findings;
}

std::vector<Finding> RuleEngine::evaluate_host(const std::string& hostname,
                                               const std::string& job_id, util::TimeNs t0,
                                               util::TimeNs t1) const {
  return evaluate_host(JobFrame(fetcher_, {hostname}, job_id, t0, t1, metrics()), hostname);
}

std::vector<Finding> RuleEngine::evaluate_job(const std::vector<std::string>& hosts,
                                              const std::string& job_id, util::TimeNs t0,
                                              util::TimeNs t1) const {
  return evaluate_job(JobFrame(fetcher_, hosts, job_id, t0, t1, metrics()));
}

}  // namespace lms::analysis

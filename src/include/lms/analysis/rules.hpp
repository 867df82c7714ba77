#pragma once

// Pathological job detection (paper §V): "simple rules for the resource
// utilization metrics using thresholds and timeouts". A rule is a
// conjunction of metric threshold conditions that must hold continuously
// for at least `min_duration` before a finding is raised — exactly the
// Fig. 4 scenario: DP FP rate AND memory bandwidth below thresholds for
// more than 10 minutes flags a break in computation.

#include <string>
#include <vector>

#include "lms/analysis/fetch.hpp"
#include "lms/util/config.hpp"

namespace lms::analysis {

enum class Severity { kInfo, kWarning, kCritical };
std::string_view severity_name(Severity s);

enum class ThresholdOp { kBelow, kAbove };

struct Condition {
  MetricRef metric;
  ThresholdOp op = ThresholdOp::kBelow;
  double threshold = 0.0;

  bool violated(double value) const {
    return op == ThresholdOp::kBelow ? value < threshold : value > threshold;
  }
  std::string to_string() const;
};

struct Rule {
  std::string name;
  std::string description;
  std::vector<Condition> conditions;  ///< all must be violated simultaneously
  util::TimeNs min_duration = 10 * util::kNanosPerMinute;
  Severity severity = Severity::kWarning;
  /// Evaluation resolution: conditions are checked on windows of this size.
  util::TimeNs resolution = 30 * util::kNanosPerSecond;
};

struct Finding {
  std::string rule;
  std::string description;
  std::string hostname;
  std::string job_id;
  Severity severity = Severity::kWarning;
  util::TimeNs start = 0;
  util::TimeNs end = 0;

  util::TimeNs duration() const { return end - start; }
  std::string to_string() const;
};

/// The default rule set covering the paper's pathological cases: idle
/// nodes, the Fig. 4 computation break, exceeded memory capacity, and a
/// low-IPC efficiency warning. Thresholds are site-tunable; these defaults
/// fit the simulated architecture.
std::vector<Rule> builtin_rules();

/// Parse site-tunable rules from INI config sections named "rule:<name>":
///
///   [rule:compute_break]
///   description  = break in computation
///   severity     = critical            ; info | warning | critical
///   min_duration = 10m
///   resolution   = 30s
///   condition    = likwid_mem_dp.dp_mflop_per_s < 100
///   condition2   = likwid_mem_dp.memory_bandwidth_mbytes_per_s < 500
///
/// Every key starting with "condition" adds one conjunct of the form
/// "<measurement>.<field> < <threshold>" (or ">"). Fails on the first
/// malformed rule.
util::Result<std::vector<Rule>> rules_from_config(const util::Config& config);

/// Offline evaluation over stored job data.
class RuleEngine {
 public:
  explicit RuleEngine(const MetricFetcher& fetcher);

  void add_rule(Rule rule) { rules_.push_back(std::move(rule)); }
  void clear_rules() { rules_.clear(); }
  const std::vector<Rule>& rules() const { return rules_; }

  /// The metrics the rules' conditions read (what a JobFrame must hold).
  std::vector<MetricRef> metrics() const;

  /// Evaluate all rules for every host of a frame; findings sorted by start,
  /// then host.
  std::vector<Finding> evaluate_job(const JobFrame& frame) const;

  /// Wrappers that read a frame first: one host, or every host of a job,
  /// over [t0, t1).
  std::vector<Finding> evaluate_host(const std::string& hostname, const std::string& job_id,
                                     util::TimeNs t0, util::TimeNs t1) const;
  std::vector<Finding> evaluate_job(const std::vector<std::string>& hosts,
                                    const std::string& job_id, util::TimeNs t0,
                                    util::TimeNs t1) const;

 private:
  std::vector<Finding> evaluate_host(const JobFrame& frame, const std::string& hostname) const;

  const MetricFetcher& fetcher_;
  std::vector<Rule> rules_;
};

}  // namespace lms::analysis

#include "lms/analysis/report.hpp"

#include <algorithm>
#include <cstdio>

#include "lms/obs/trace.hpp"
#include "lms/util/strings.hpp"

namespace lms::analysis {

std::string_view verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kOk:
      return "ok";
    case Verdict::kWarning:
      return "WARN";
    case Verdict::kCritical:
      return "CRIT";
    case Verdict::kNoData:
      return "n/a";
  }
  return "?";
}

std::vector<ReportCheck> default_checks() {
  return {
      {"CPU load", "%", {"cpu", "user_percent"}, CheckDirection::kLowIsBad, 30.0, 5.0},
      {"IPC", "", {"likwid_mem_dp", "ipc"}, CheckDirection::kLowIsBad, 0.5, 0.1},
      {"DP FP rate", "MFLOP/s", {"likwid_mem_dp", "dp_mflop_per_s"},
       CheckDirection::kLowIsBad, 200.0, 10.0},
      {"Memory bw", "MB/s", {"likwid_mem_dp", "memory_bandwidth_mbytes_per_s"},
       CheckDirection::kInfoOnly, 0.0, 0.0},
      {"Memory used", "%", {"memory", "used_percent"}, CheckDirection::kHighIsBad, 85.0, 95.0},
      {"Network I/O", "MB/s", {"network", "rx_bytes_per_sec"}, CheckDirection::kInfoOnly, 0.0,
       0.0},
      {"File I/O", "MB/s", {"disk", "write_bytes_per_sec"}, CheckDirection::kInfoOnly, 0.0,
       0.0},
  };
}

namespace {

Verdict judge(const ReportCheck& check, double value) {
  switch (check.direction) {
    case CheckDirection::kLowIsBad:
      if (value < check.crit_threshold) return Verdict::kCritical;
      if (value < check.warn_threshold) return Verdict::kWarning;
      return Verdict::kOk;
    case CheckDirection::kHighIsBad:
      if (value > check.crit_threshold) return Verdict::kCritical;
      if (value > check.warn_threshold) return Verdict::kWarning;
      return Verdict::kOk;
    case CheckDirection::kInfoOnly:
      return Verdict::kOk;
  }
  return Verdict::kNoData;
}

Verdict worst(Verdict a, Verdict b) {
  const auto rank = [](Verdict v) {
    switch (v) {
      case Verdict::kCritical:
        return 3;
      case Verdict::kWarning:
        return 2;
      case Verdict::kOk:
        return 1;
      case Verdict::kNoData:
        return 0;
    }
    return 0;
  };
  return rank(a) >= rank(b) ? a : b;
}

/// Scale bytes/s values to MB/s for the I/O rows.
double display_value(const ReportCheck& check, double raw) {
  if (check.metric.field.find("bytes_per_sec") != std::string::npos) return raw / 1e6;
  return raw;
}

}  // namespace

JobReporter::JobReporter(const MetricFetcher& fetcher, const hpm::CounterArchitecture& arch)
    : fetcher_(fetcher), arch_(arch), checks_(default_checks()), rule_engine_(fetcher) {
  for (auto& rule : builtin_rules()) rule_engine_.add_rule(std::move(rule));
}

void JobReporter::set_rules(std::vector<Rule> rules) {
  rule_engine_.clear_rules();
  for (auto& rule : rules) rule_engine_.add_rule(std::move(rule));
}

JobEvaluation JobReporter::evaluate(const std::string& job_id,
                                    const std::vector<std::string>& hosts, util::TimeNs t0,
                                    util::TimeNs t1) const {
  obs::Span span("analysis.evaluate", "analysis");
  std::vector<MetricRef> refs = rule_engine_.metrics();
  for (const auto& check : checks_) refs.push_back(check.metric);
  refs.insert(refs.end(), signature_metrics().begin(), signature_metrics().end());
  refs.insert(refs.end(), roofline_metrics().begin(), roofline_metrics().end());
  const JobFrame frame(fetcher_, hosts, job_id, t0, t1, refs);
  if (span.active()) {
    span.set_note("series=" + std::to_string(frame.series_count()) +
                  " samples=" + std::to_string(frame.sample_count()));
  }

  JobEvaluation eval;
  eval.job_id = job_id;
  eval.hosts = hosts;
  eval.t0 = t0;
  eval.t1 = t1;
  for (const auto& check : checks_) {
    ReportRow row;
    row.check = check;
    for (const auto& host : hosts) {
      ReportCell cell;
      if (const MetricSeries& series = frame.series(check.metric, host); !series.empty()) {
        cell.value = display_value(check, series.mean());
        cell.verdict = judge(check, cell.value);
      }
      row.overall = worst(row.overall, cell.verdict);
      row.cells.push_back(cell);
    }
    eval.rows.push_back(std::move(row));
  }
  eval.findings = rule_engine_.evaluate_job(frame);
  eval.classification = DecisionTree::default_tree().classify(signature_from_frame(frame, arch_));
  if (auto roofline = roofline_from_frame(frame, arch_); roofline.ok()) {
    eval.roofline = roofline.take();
  }
  return eval;
}

std::string render_text(const JobEvaluation& eval) {
  std::string out;
  out += "Job " + eval.job_id + "  [" + util::format_utc(eval.t0) + " .. " +
         util::format_utc(eval.t1) + "]\n";
  // Header row.
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-22s %-8s", "check", "verdict");
  out += buf;
  for (const auto& host : eval.hosts) {
    std::snprintf(buf, sizeof(buf), " %12s", host.c_str());
    out += buf;
  }
  out += "\n";
  for (const auto& row : eval.rows) {
    const std::string label =
        row.check.label + (row.check.unit.empty() ? "" : " [" + row.check.unit + "]");
    std::snprintf(buf, sizeof(buf), "%-22s %-8s", label.c_str(),
                  std::string(verdict_name(row.overall)).c_str());
    out += buf;
    for (const auto& cell : row.cells) {
      if (cell.verdict == Verdict::kNoData) {
        std::snprintf(buf, sizeof(buf), " %12s", "-");
      } else {
        std::snprintf(buf, sizeof(buf), " %12.2f", cell.value);
      }
      out += buf;
    }
    out += "\n";
  }
  if (eval.roofline) {
    out += "roofline: " + eval.roofline->to_string() + "\n";
  }
  out += "pattern: " + std::string(pattern_name(eval.classification.pattern)) +
         " (optimization potential " +
         util::format_double(eval.classification.optimization_potential) + ")\n";
  out += "  hint: " + std::string(pattern_recommendation(eval.classification.pattern)) + "\n";
  if (eval.findings.empty()) {
    out += "findings: none\n";
  } else {
    out += "findings:\n";
    for (const auto& f : eval.findings) {
      out += "  " + f.to_string() + "\n";
    }
  }
  return out;
}

json::Value to_json(const JobEvaluation& eval) {
  json::Object o;
  o["jobid"] = eval.job_id;
  o["from"] = static_cast<std::int64_t>(eval.t0);
  o["to"] = static_cast<std::int64_t>(eval.t1);
  json::Array hosts;
  for (const auto& h : eval.hosts) hosts.emplace_back(h);
  o["hosts"] = std::move(hosts);
  json::Array rows;
  for (const auto& row : eval.rows) {
    json::Object r;
    r["check"] = row.check.label;
    r["unit"] = row.check.unit;
    r["verdict"] = std::string(verdict_name(row.overall));
    json::Array cells;
    for (const auto& cell : row.cells) {
      json::Object c;
      if (cell.verdict == Verdict::kNoData) {
        c["value"] = nullptr;
      } else {
        c["value"] = cell.value;
      }
      c["verdict"] = std::string(verdict_name(cell.verdict));
      cells.emplace_back(std::move(c));
    }
    r["cells"] = std::move(cells);
    rows.emplace_back(std::move(r));
  }
  o["rows"] = std::move(rows);
  json::Array findings;
  for (const auto& f : eval.findings) {
    json::Object fo;
    fo["rule"] = f.rule;
    fo["hostname"] = f.hostname;
    fo["severity"] = std::string(severity_name(f.severity));
    fo["start"] = static_cast<std::int64_t>(f.start);
    fo["end"] = static_cast<std::int64_t>(f.end);
    fo["description"] = f.description;
    findings.emplace_back(std::move(fo));
  }
  o["findings"] = std::move(findings);
  json::Object cls;
  cls["pattern"] = std::string(pattern_name(eval.classification.pattern));
  cls["optimization_potential"] = eval.classification.optimization_potential;
  cls["recommendation"] = std::string(pattern_recommendation(eval.classification.pattern));
  json::Array path;
  for (const auto& step : eval.classification.path) path.emplace_back(step.to_string());
  cls["path"] = std::move(path);
  o["classification"] = std::move(cls);
  if (eval.roofline) {
    json::Object rl;
    rl["operational_intensity"] = eval.roofline->operational_intensity;
    rl["measured_gflops"] = eval.roofline->measured_gflops;
    rl["attainable_gflops"] = eval.roofline->attainable_gflops;
    rl["efficiency"] = eval.roofline->efficiency;
    rl["memory_bound"] = eval.roofline->memory_bound;
    o["roofline"] = std::move(rl);
  }
  return json::Value(std::move(o));
}

}  // namespace lms::analysis

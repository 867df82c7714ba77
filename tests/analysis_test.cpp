// Tests for the analysis layer: metric fetching, threshold+timeout pathology
// rules (offline and online — the Fig. 4 detection), the performance-pattern
// decision tree, and the Fig. 2 job evaluation report.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <thread>

#include "lms/analysis/fetch.hpp"
#include "lms/lineproto/codec.hpp"
#include "lms/analysis/online.hpp"
#include "lms/analysis/patterns.hpp"
#include "lms/analysis/report.hpp"
#include "lms/analysis/rules.hpp"
#include "lms/cluster/harness.hpp"
#include "lms/obs/trace.hpp"

namespace lms::analysis {
namespace {

using lineproto::make_point;
using util::kNanosPerMinute;
using util::kNanosPerSecond;

constexpr util::TimeNs kSec = kNanosPerSecond;
constexpr util::TimeNs kMin = kNanosPerMinute;

/// Write a series for host/job into the storage: value_fn(t_seconds).
void write_series(tsdb::Storage& storage, const std::string& measurement,
                  const std::string& field, const std::string& host, const std::string& job,
                  util::TimeNs t0, util::TimeNs t1, util::TimeNs step,
                  const std::function<double(double)>& value_fn) {
  std::vector<lineproto::Point> points;
  for (util::TimeNs t = t0; t < t1; t += step) {
    points.push_back(make_point(measurement, field, value_fn(util::ns_to_seconds(t - t0)), t,
                                {{"hostname", host}, {"jobid", job}}));
  }
  storage.write("lms", points, 0);
}

// ---------------------------------------------------------------- fetch

TEST(MetricSeriesTest, Statistics) {
  MetricSeries s;
  s.times = {1, 2, 3, 4};
  s.values = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), 1.29099, 1e-4);
  EXPECT_DOUBLE_EQ(s.fraction_below(2.5), 0.5);
  EXPECT_DOUBLE_EQ(s.fraction_above(3.5), 0.25);
  MetricSeries empty;
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
  EXPECT_DOUBLE_EQ(empty.stddev(), 0.0);
}

TEST(FetcherTest, FetchFilteredAndWindowed) {
  tsdb::Storage storage;
  write_series(storage, "cpu", "user_percent", "h1", "1", 0, 100 * kSec, 10 * kSec,
               [](double) { return 50.0; });
  write_series(storage, "cpu", "user_percent", "h2", "1", 0, 100 * kSec, 10 * kSec,
               [](double) { return 90.0; });
  MetricFetcher fetcher(storage, "lms");
  auto s = fetcher.fetch_host({"cpu", "user_percent"}, "h1", "1", 0, 100 * kSec);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->size(), 10u);
  EXPECT_DOUBLE_EQ(s->mean(), 50.0);
  // Windowed fetch.
  s = fetcher.fetch_host({"cpu", "user_percent"}, "h1", "1", 0, 100 * kSec, 50 * kSec);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->size(), 2u);
  // Unknown host -> empty.
  s = fetcher.fetch_host({"cpu", "user_percent"}, "h9", "1", 0, 100 * kSec);
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(s->empty());
  // Unknown database -> error.
  MetricFetcher bad(storage, "missing");
  EXPECT_FALSE(bad.fetch({"cpu", "user_percent"}, {}, 0, 100 * kSec).ok());
}

// ---------------------------------------------------------------- frame

TEST(JobFrameTest, DiscoversKeysOfJob) {
  tsdb::Storage storage;
  write_series(storage, "cpu", "user_percent", "h1", "1", 0, 10 * kSec, kSec,
               [](double) { return 1.0; });
  write_series(storage, "cpu", "user_percent", "h2", "1", 0, 10 * kSec, kSec,
               [](double) { return 1.0; });
  write_series(storage, "cpu", "user_percent", "h3", "2", 0, 10 * kSec, kSec,
               [](double) { return 1.0; });
  MetricFetcher fetcher(storage, "lms");
  const JobFrame frame(fetcher, "1", 0, 10 * kSec, {{"cpu", "user_percent"}}, "hostname");
  EXPECT_EQ(frame.keys(), (std::vector<std::string>{"h1", "h2"}));
}

std::vector<std::uint64_t> bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> out;
  for (const double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

/// The frame's oracle: every (ref, key) series it serves equals, in times
/// and value bits, what a single fetch of that key returns.
void expect_frame_matches_fetch(const MetricFetcher& fetcher, const JobFrame& frame,
                                const std::vector<MetricRef>& refs,
                                const std::string& group_key = "hostname") {
  for (const auto& ref : refs) {
    for (const auto& key : frame.keys()) {
      const auto expected =
          group_key == "hostname"
              ? fetcher.fetch_host(ref, key, frame.job_id(), frame.t0(), frame.t1())
              : fetcher.fetch(ref, {{"jobid", frame.job_id()}, {group_key, key}}, frame.t0(),
                              frame.t1());
      ASSERT_TRUE(expected.ok()) << expected.message();
      const MetricSeries& got = frame.series(ref, key);
      EXPECT_EQ(got.times, expected->times) << ref.to_string() << " " << key;
      EXPECT_EQ(bits(got.values), bits(expected->values)) << ref.to_string() << " " << key;
    }
  }
}

/// Write one point per (tag set, t) with value value_fn(index of tag set, t).
void write_tagged(
    tsdb::Storage& storage, const std::string& measurement, const std::string& field,
    const std::vector<std::vector<lineproto::Tag>>& tag_sets, util::TimeNs t0, util::TimeNs t1,
    util::TimeNs step,
    const std::function<lineproto::FieldValue(std::size_t, util::TimeNs)>& value_fn) {
  std::vector<lineproto::Point> points;
  for (util::TimeNs t = t0; t < t1; t += step) {
    for (std::size_t i = 0; i < tag_sets.size(); ++i) {
      lineproto::Point p;
      p.measurement = measurement;
      for (const auto& [k, v] : tag_sets[i]) p.set_tag(k, v);
      p.add_field(field, value_fn(i, t));
      p.timestamp = t;
      p.normalize();
      points.push_back(std::move(p));
    }
  }
  storage.write("lms", points, 0);
}

TEST(JobFrameTest, OracleOneSeriesPerHostHarnessJob) {
  cluster::ClusterHarness::Options opts;
  opts.nodes = 2;
  cluster::ClusterHarness harness(opts);
  const int job = harness.submit("stream", "alice", 2, 10 * kMin);
  ASSERT_TRUE(harness.run_until_done(job, 30 * kMin));
  const auto* record = harness.job_record(job);
  std::vector<MetricRef> refs;
  for (const auto& check : default_checks()) refs.push_back(check.metric);
  refs.insert(refs.end(), signature_metrics().begin(), signature_metrics().end());
  const JobFrame frame(harness.fetcher(), record->nodes, std::to_string(job),
                       record->start_time, record->end_time, refs);
  EXPECT_GT(frame.series_count(), 0u);
  expect_frame_matches_fetch(harness.fetcher(), frame, refs);
}

TEST(JobFrameTest, OracleSeveralSeriesPerHostWithEqualTimestamps) {
  tsdb::Storage storage;
  // cpu0..3 and cpu-total per host, all at the same timestamps.
  std::vector<std::vector<lineproto::Tag>> cpu_tags;
  for (const std::string host : {"h1", "h2"}) {
    for (const std::string cpu : {"cpu0", "cpu1", "cpu2", "cpu3", "cpu-total"}) {
      cpu_tags.push_back({{"hostname", host}, {"jobid", "1"}, {"cpu", cpu}});
    }
  }
  write_tagged(storage, "cpu", "user_percent", cpu_tags, 0, 5 * kMin, 10 * kSec,
               [](std::size_t i, util::TimeNs t) {
                 return lineproto::FieldValue(static_cast<double>(i) * 10.0 +
                                              util::ns_to_seconds(t) / 7.0);
               });
  // HPM node series plus one series per socket (per_socket_fields).
  write_tagged(storage, "likwid_mem_dp", "dp_mflop_per_s",
               {{{"hostname", "h1"}, {"jobid", "1"}},
                {{"hostname", "h1"}, {"jobid", "1"}, {"socket", "0"}},
                {{"hostname", "h1"}, {"jobid", "1"}, {"socket", "1"}},
                {{"hostname", "h2"}, {"jobid", "1"}}},
               0, 5 * kMin, 10 * kSec,
               [](std::size_t i, util::TimeNs) {
                 return lineproto::FieldValue(1000.0 + static_cast<double>(i));
               });
  MetricFetcher fetcher(storage, "lms");
  const std::vector<MetricRef> refs{{"cpu", "user_percent"}, {"likwid_mem_dp", "dp_mflop_per_s"}};
  const JobFrame frame(fetcher, {"h1", "h2"}, "1", 0, 5 * kMin, refs);
  // One value per timestamp survives, whichever series sorted last.
  EXPECT_EQ(frame.series(refs[0], "h1").size(), 30u);
  EXPECT_EQ(frame.series(refs[1], "h1").size(), 30u);
  expect_frame_matches_fetch(fetcher, frame, refs);
}

TEST(JobFrameTest, OracleDuplicateTimestampsAndStringWinners) {
  tsdb::Storage storage;
  // The same (series, t) written twice: both samples stay in the column.
  for (int round = 0; round < 2; ++round) {
    write_series(storage, "memory", "used_percent", "h1", "1", 0, 2 * kMin, 10 * kSec,
                 [round](double t) { return t + round * 0.5; });
  }
  // A string-valued series next to a numeric one of the same host: at some
  // timestamps the string sorts last and the fetch drops that row.
  write_tagged(storage, "network", "rx_bytes_per_sec",
               {{{"hostname", "h1"}, {"jobid", "1"}, {"iface", "eth0"}},
                {{"hostname", "h1"}, {"jobid", "1"}, {"iface", "ib0"}}},
               0, 2 * kMin, 10 * kSec, [](std::size_t i, util::TimeNs t) {
                 if (i == 1 && (t / (10 * kSec)) % 3 == 0) return lineproto::FieldValue("down");
                 return lineproto::FieldValue(static_cast<double>(i + 1));
               });
  // At 65 s only the string exists, so it always wins and the row drops.
  write_tagged(storage, "network", "rx_bytes_per_sec",
               {{{"hostname", "h1"}, {"jobid", "1"}, {"iface", "ib0"}}}, 65 * kSec, 66 * kSec,
               kSec, [](std::size_t, util::TimeNs) { return lineproto::FieldValue("down"); });
  MetricFetcher fetcher(storage, "lms");
  const std::vector<MetricRef> refs{{"memory", "used_percent"}, {"network", "rx_bytes_per_sec"}};
  const JobFrame frame(fetcher, {"h1"}, "1", 0, 2 * kMin, refs);
  EXPECT_EQ(frame.series(refs[0], "h1").size(), 12u);
  const auto& rx_times = frame.series(refs[1], "h1").times;
  EXPECT_EQ(std::count(rx_times.begin(), rx_times.end(), 65 * kSec), 0);
  expect_frame_matches_fetch(fetcher, frame, refs);
}

TEST(JobFrameTest, OracleEmptyJobIdMissingHostAndCutRange) {
  tsdb::Storage storage;
  for (const std::string host : {"h1", "h2"}) {
    for (const std::string job : {"1", "2"}) {
      write_series(storage, "cpu", "user_percent", host, job, 0, 10 * kMin, 10 * kSec,
                   [&](double t) { return t + (job == "1" ? 0.25 : 0.75); });
    }
  }
  MetricFetcher fetcher(storage, "lms");
  const std::vector<MetricRef> refs{{"cpu", "user_percent"}, {"cpu", "system_percent"},
                                    {"gpu", "util"}};
  // No job id: each host is matched on its own, across both jobs; h9 has
  // no data. The range cuts every series in the middle, off the grid.
  const util::TimeNs t0 = 2 * kMin + 5 * kSec;
  const util::TimeNs t1 = 7 * kMin + 5 * kSec;
  const JobFrame all_jobs(fetcher, {"h1", "h9", "h2"}, "", t0, t1, refs);
  EXPECT_EQ(all_jobs.series(refs[0], "h1").size(), 30u);
  EXPECT_TRUE(all_jobs.series(refs[0], "h9").empty());
  EXPECT_TRUE(all_jobs.series(refs[2], "h1").empty());
  expect_frame_matches_fetch(fetcher, all_jobs, refs);
  const JobFrame one_job(fetcher, {"h1", "h9", "h2"}, "2", t0, t1, refs);
  expect_frame_matches_fetch(fetcher, one_job, refs);
  // A missing database serves empty series.
  const MetricFetcher missing(storage, "missing");
  EXPECT_TRUE(JobFrame(missing, {"h1"}, "1", t0, t1, refs).series(refs[0], "h1").empty());
}

TEST(JobFrameTest, OracleGlobMeasurement) {
  tsdb::Storage storage;
  write_series(storage, "likwid_mem_dp", "cpi", "h1", "1", 0, kMin, 10 * kSec,
               [](double t) { return 1.0 + t; });
  write_series(storage, "likwid_flops_dp", "cpi", "h1", "1", 0, kMin, 10 * kSec,
               [](double t) { return 2.0 + t; });
  MetricFetcher fetcher(storage, "lms");
  const std::vector<MetricRef> refs{{"likwid_*", "cpi"}};
  const JobFrame frame(fetcher, {"h1"}, "1", 0, kMin, refs);
  EXPECT_EQ(frame.series(refs[0], "h1").size(), 12u);
  expect_frame_matches_fetch(fetcher, frame, refs);
}

TEST(JobFrameTest, OracleRegionGroupKey) {
  tsdb::Storage storage;
  std::vector<std::vector<lineproto::Tag>> tags;
  for (const std::string host : {"h1", "h2"}) {
    for (const std::string region : {"init", "solve"}) {
      tags.push_back({{"hostname", host}, {"jobid", "7"}, {"region", region}});
    }
  }
  tags.push_back({{"hostname", "h1"}, {"jobid", "8"}, {"region", "other_job"}});
  for (const std::string field : {"dp_mflop_per_s", "inclusive_ns"}) {
    write_tagged(storage, "lms_regions", field, tags, 0, 3 * kMin, 30 * kSec,
                 [](std::size_t i, util::TimeNs t) {
                   return lineproto::FieldValue(static_cast<double>(i + 1) *
                                                (1.0 + util::ns_to_seconds(t)));
                 });
  }
  MetricFetcher fetcher(storage, "lms");
  const std::vector<MetricRef> refs{{"lms_regions", "dp_mflop_per_s"},
                                    {"lms_regions", "inclusive_ns"},
                                    {"lms_regions", "count"}};
  const JobFrame frame(fetcher, "7", kMin, 3 * kMin, refs, "region");
  EXPECT_EQ(frame.keys(), (std::vector<std::string>{"init", "solve"}));
  EXPECT_EQ(frame.keys(), fetcher.tag_values("lms_regions", "region", {{"jobid", "7"}}));
  expect_frame_matches_fetch(fetcher, frame, refs, "region");
}

// ---------------------------------------------------------------- rules

/// The Fig. 4 scenario: compute 20 min, break 12 min, compute 20 min.
void write_fig4(tsdb::Storage& storage, const std::string& host, util::TimeNs break_start,
                util::TimeNs break_len) {
  const util::TimeNs end = 52 * kMin;
  auto in_break = [&](double ts) {
    const util::TimeNs t = util::seconds_to_ns(ts);
    return t >= break_start && t < break_start + break_len;
  };
  write_series(storage, "likwid_mem_dp", "dp_mflop_per_s", host, "1", 0, end, 10 * kSec,
               [&](double t) { return in_break(t) ? 5.0 : 2000.0; });
  write_series(storage, "likwid_mem_dp", "memory_bandwidth_mbytes_per_s", host, "1", 0, end,
               10 * kSec, [&](double t) { return in_break(t) ? 20.0 : 8000.0; });
}

TEST(RuleEngineTest, DetectsFig4ComputeBreak) {
  tsdb::Storage storage;
  write_fig4(storage, "h1", 20 * kMin, 12 * kMin);
  MetricFetcher fetcher(storage, "lms");
  RuleEngine engine(fetcher);
  for (auto& r : builtin_rules()) engine.add_rule(std::move(r));

  const auto findings = engine.evaluate_host("h1", "1", 0, 52 * kMin);
  ASSERT_EQ(findings.size(), 1u) << (findings.empty() ? "" : findings[0].to_string());
  const Finding& f = findings[0];
  EXPECT_EQ(f.rule, "compute_break");
  EXPECT_EQ(f.severity, Severity::kCritical);
  EXPECT_EQ(f.hostname, "h1");
  EXPECT_EQ(f.job_id, "1");
  // The detected window matches the injected break (within one resolution).
  EXPECT_NEAR(static_cast<double>(f.start), static_cast<double>(20 * kMin),
              static_cast<double>(30 * kSec));
  EXPECT_NEAR(static_cast<double>(f.duration()), static_cast<double>(12 * kMin),
              static_cast<double>(60 * kSec));
}

TEST(RuleEngineTest, ShortDipDoesNotFire) {
  tsdb::Storage storage;
  write_fig4(storage, "h1", 20 * kMin, 5 * kMin);  // below the 10-min timeout
  MetricFetcher fetcher(storage, "lms");
  RuleEngine engine(fetcher);
  for (auto& r : builtin_rules()) engine.add_rule(std::move(r));
  EXPECT_TRUE(engine.evaluate_host("h1", "1", 0, 52 * kMin).empty());
}

TEST(RuleEngineTest, SingleConditionViolationDoesNotFire) {
  // FP rate drops but bandwidth stays high (e.g. data movement phase):
  // the conjunction must not fire.
  tsdb::Storage storage;
  const util::TimeNs end = 52 * kMin;
  write_series(storage, "likwid_mem_dp", "dp_mflop_per_s", "h1", "1", 0, end, 10 * kSec,
               [](double t) { return t > 1200 && t < 2400 ? 5.0 : 2000.0; });
  write_series(storage, "likwid_mem_dp", "memory_bandwidth_mbytes_per_s", "h1", "1", 0, end,
               10 * kSec, [](double) { return 8000.0; });
  MetricFetcher fetcher(storage, "lms");
  RuleEngine engine(fetcher);
  for (auto& r : builtin_rules()) engine.add_rule(std::move(r));
  EXPECT_TRUE(engine.evaluate_host("h1", "1", 0, end).empty());
}

TEST(RuleEngineTest, MemoryExceededFires) {
  tsdb::Storage storage;
  write_series(storage, "memory", "used_percent", "h1", "1", 0, 10 * kMin, 10 * kSec,
               [](double t) { return t > 120 ? 97.0 : 50.0; });
  MetricFetcher fetcher(storage, "lms");
  RuleEngine engine(fetcher);
  for (auto& r : builtin_rules()) engine.add_rule(std::move(r));
  const auto findings = engine.evaluate_host("h1", "1", 0, 10 * kMin);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "memory_exceeded");
}

TEST(RuleEngineTest, EvaluateJobSortsAcrossHosts) {
  tsdb::Storage storage;
  write_fig4(storage, "h1", 20 * kMin, 12 * kMin);
  write_fig4(storage, "h2", 15 * kMin, 15 * kMin);
  MetricFetcher fetcher(storage, "lms");
  RuleEngine engine(fetcher);
  for (auto& r : builtin_rules()) engine.add_rule(std::move(r));
  const auto findings = engine.evaluate_job({"h1", "h2"}, "1", 0, 52 * kMin);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].hostname, "h2");  // earlier break first
  EXPECT_EQ(findings[1].hostname, "h1");
}

TEST(RuleEngineTest, NoDataNoFinding) {
  tsdb::Storage storage;
  storage.database("lms");
  MetricFetcher fetcher(storage, "lms");
  RuleEngine engine(fetcher);
  for (auto& r : builtin_rules()) engine.add_rule(std::move(r));
  EXPECT_TRUE(engine.evaluate_host("h1", "1", 0, 52 * kMin).empty());
}

// ---------------------------------------------------------------- online

Rule quick_rule() {
  Rule r;
  r.name = "quick_break";
  r.description = "test rule";
  r.conditions.push_back(
      Condition{{"likwid_mem_dp", "dp_mflop_per_s"}, ThresholdOp::kBelow, 100.0});
  r.conditions.push_back(Condition{
      {"likwid_mem_dp", "memory_bandwidth_mbytes_per_s"}, ThresholdOp::kBelow, 500.0});
  r.min_duration = 60 * kSec;
  r.resolution = 10 * kSec;
  r.severity = Severity::kCritical;
  return r;
}

lineproto::Point hpm_point(const std::string& host, double flops, double bw, util::TimeNs t) {
  lineproto::Point p;
  p.measurement = "likwid_mem_dp";
  p.set_tag("hostname", host);
  p.set_tag("jobid", "5");
  p.add_field("dp_mflop_per_s", flops);
  p.add_field("memory_bandwidth_mbytes_per_s", bw);
  p.timestamp = t;
  p.normalize();
  return p;
}

TEST(OnlineEngineTest, FiresAfterMinDuration) {
  OnlineRuleEngine engine({quick_rule()});
  util::TimeNs t = 0;
  // Healthy phase.
  for (int i = 0; i < 5; ++i) {
    engine.observe(hpm_point("h1", 2000, 8000, t));
    t += 10 * kSec;
  }
  EXPECT_TRUE(engine.take_findings().empty());
  // Violation persists: fires once min_duration is covered.
  std::vector<Finding> fired;
  for (int i = 0; i < 8; ++i) {
    engine.observe(hpm_point("h1", 5, 20, t));
    t += 10 * kSec;
    auto f = engine.take_findings();
    fired.insert(fired.end(), f.begin(), f.end());
  }
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].rule, "quick_break");
  EXPECT_EQ(fired[0].hostname, "h1");
  EXPECT_EQ(fired[0].job_id, "5");
  EXPECT_GE(fired[0].duration(), 60 * kSec);
  // Ongoing violation does not re-fire but is visible as active.
  engine.observe(hpm_point("h1", 5, 20, t));
  EXPECT_TRUE(engine.take_findings().empty());
  EXPECT_EQ(engine.active().size(), 1u);
}

TEST(OnlineEngineTest, RecoveryResetsState) {
  OnlineRuleEngine engine({quick_rule()});
  util::TimeNs t = 0;
  // 40 s violation, then recovery, then 40 s violation: never fires.
  for (int phase = 0; phase < 3; ++phase) {
    const bool bad = phase != 1;
    for (int i = 0; i < 4; ++i) {
      engine.observe(hpm_point("h1", bad ? 5 : 2000, bad ? 20 : 8000, t));
      t += 10 * kSec;
    }
  }
  EXPECT_TRUE(engine.take_findings().empty());
  EXPECT_TRUE(engine.active().empty());
}

TEST(OnlineEngineTest, PartialViolationDoesNotFire) {
  OnlineRuleEngine engine({quick_rule()});
  util::TimeNs t = 0;
  for (int i = 0; i < 10; ++i) {
    engine.observe(hpm_point("h1", 5, 8000, t));  // only FP rate low
    t += 10 * kSec;
  }
  EXPECT_TRUE(engine.take_findings().empty());
}

TEST(OnlineEngineTest, TracksHostsIndependently) {
  OnlineRuleEngine engine({quick_rule()});
  util::TimeNs t = 0;
  for (int i = 0; i < 8; ++i) {
    engine.observe(hpm_point("h1", 5, 20, t));      // broken
    engine.observe(hpm_point("h2", 2000, 8000, t)); // healthy
    t += 10 * kSec;
  }
  const auto fired = engine.take_findings();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].hostname, "h1");
}

TEST(OnlineEngineTest, DeallocationResetsHostState) {
  OnlineRuleEngine engine({quick_rule()});
  util::TimeNs t = 0;
  // 40 s of violation while allocated to job 5...
  for (int i = 0; i < 4; ++i) {
    engine.observe(hpm_point("h1", 5, 20, t));
    t += 10 * kSec;
  }
  // ...then the job ends: points arrive without a jobid tag. The host keeps
  // looking "broken" (it idles) but must not be attributed to job 5.
  for (int i = 0; i < 10; ++i) {
    lineproto::Point p = hpm_point("h1", 5, 20, t);
    p.tags.erase(std::remove_if(p.tags.begin(), p.tags.end(),
                                [](const auto& kv) { return kv.first == "jobid"; }),
                 p.tags.end());
    engine.observe(p);
    t += 10 * kSec;
  }
  EXPECT_TRUE(engine.take_findings().empty());
  EXPECT_TRUE(engine.active().empty());
}

TEST(OnlineEngineTest, NewJobOnHostResetsState) {
  OnlineRuleEngine engine({quick_rule()});
  util::TimeNs t = 0;
  // Job 5 violates for 50 s (not yet fired)...
  for (int i = 0; i < 5; ++i) {
    engine.observe(hpm_point("h1", 5, 20, t));
    t += 10 * kSec;
  }
  // ...then job 6 takes the node and also starts out below thresholds
  // (startup); the violation clock must restart.
  lineproto::Point p = hpm_point("h1", 5, 20, t);
  p.set_tag("jobid", "6");
  p.normalize();
  engine.observe(p);
  t += 10 * kSec;
  EXPECT_TRUE(engine.take_findings().empty());
  // Five more bad samples under job 6: now 60 s under job 6 -> fires for 6.
  for (int i = 0; i < 6; ++i) {
    lineproto::Point q = hpm_point("h1", 5, 20, t);
    q.set_tag("jobid", "6");
    q.normalize();
    engine.observe(q);
    t += 10 * kSec;
  }
  const auto fired = engine.take_findings();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].job_id, "6");
}

TEST(OnlineEngineTest, ObserveLinesParsesBatch) {
  OnlineRuleEngine engine({quick_rule()});
  std::string batch;
  util::TimeNs t = 0;
  for (int i = 0; i < 8; ++i) {
    batch += lineproto::serialize(hpm_point("h1", 5, 20, t)) + "\n";
    t += 10 * kSec;
  }
  engine.observe_lines(batch);
  EXPECT_EQ(engine.take_findings().size(), 1u);
}

// ---------------------------------------------------------------- patterns

JobSignature healthy_signature() {
  JobSignature s;
  s.cpu_load = 0.95;
  s.ipc = 2.0;
  s.flops_dp_fraction = 0.3;
  s.mem_bw_fraction = 0.3;
  s.vectorization_ratio = 0.6;
  s.branch_miss_ratio = 0.01;
  s.load_imbalance_cv = 0.05;
  s.nodes = 4;
  return s;
}

TEST(DecisionTreeTest, ClassifiesCanonicalSignatures) {
  const DecisionTree& tree = DecisionTree::default_tree();

  JobSignature idle = healthy_signature();
  idle.cpu_load = 0.02;
  EXPECT_EQ(tree.classify(idle).pattern, Pattern::kIdle);

  JobSignature bw = healthy_signature();
  bw.mem_bw_fraction = 0.85;
  EXPECT_EQ(tree.classify(bw).pattern, Pattern::kBandwidthSaturation);

  JobSignature compute = healthy_signature();
  compute.flops_dp_fraction = 0.7;
  EXPECT_EQ(tree.classify(compute).pattern, Pattern::kComputeBound);

  JobSignature imbalanced = healthy_signature();
  imbalanced.load_imbalance_cv = 0.6;
  EXPECT_EQ(tree.classify(imbalanced).pattern, Pattern::kLoadImbalance);

  JobSignature latency = healthy_signature();
  latency.ipc = 0.2;
  latency.branch_miss_ratio = 0.01;
  EXPECT_EQ(tree.classify(latency).pattern, Pattern::kMemoryLatencyBound);

  JobSignature branchy = healthy_signature();
  branchy.ipc = 0.3;
  branchy.branch_miss_ratio = 0.09;
  EXPECT_EQ(tree.classify(branchy).pattern, Pattern::kBranchMispredict);

  JobSignature scalar = healthy_signature();
  scalar.vectorization_ratio = 0.05;
  EXPECT_EQ(tree.classify(scalar).pattern, Pattern::kScalarCode);

  JobSignature overhead = healthy_signature();
  overhead.flops_dp_fraction = 0.01;
  EXPECT_EQ(tree.classify(overhead).pattern, Pattern::kInstructionOverhead);

  EXPECT_EQ(tree.classify(healthy_signature()).pattern, Pattern::kBalanced);
}

TEST(DecisionTreeTest, PathIsEvidence) {
  const auto c = DecisionTree::default_tree().classify(healthy_signature());
  ASSERT_FALSE(c.path.empty());
  EXPECT_EQ(c.path.front().feature, "cpu_load");
  EXPECT_TRUE(c.path.front().went_high);
  for (const auto& step : c.path) {
    EXPECT_FALSE(step.to_string().empty());
  }
  EXPECT_GE(c.optimization_potential, 0.0);
  EXPECT_LE(c.optimization_potential, 1.0);
}

TEST(DecisionTreeTest, EveryPatternHasNameAndRecommendation) {
  for (const Pattern p :
       {Pattern::kIdle, Pattern::kBandwidthSaturation, Pattern::kComputeBound,
        Pattern::kLoadImbalance, Pattern::kMemoryLatencyBound, Pattern::kBranchMispredict,
        Pattern::kInstructionOverhead, Pattern::kScalarCode, Pattern::kBalanced}) {
    EXPECT_FALSE(pattern_name(p).empty());
    EXPECT_FALSE(pattern_recommendation(p).empty());
  }
}

TEST(SignatureTest, BuiltFromStoredMetrics) {
  tsdb::Storage storage;
  const util::TimeNs end = 10 * kMin;
  for (const std::string host : {"h1", "h2"}) {
    const double flops = host == "h1" ? 20000.0 : 10000.0;  // imbalanced
    write_series(storage, "cpu", "user_percent", host, "1", 0, end, 10 * kSec,
                 [](double) { return 80.0; });
    write_series(storage, "likwid_mem_dp", "cpi", host, "1", 0, end, 10 * kSec,
                 [](double) { return 0.5; });
    write_series(storage, "likwid_mem_dp", "dp_mflop_per_s", host, "1", 0, end, 10 * kSec,
                 [flops](double) { return flops; });
    write_series(storage, "likwid_mem_dp", "memory_bandwidth_mbytes_per_s", host, "1", 0, end,
                 10 * kSec, [](double) { return 20000.0; });
    write_series(storage, "likwid_flops_dp", "vectorization_ratio", host, "1", 0, end,
                 10 * kSec, [](double) { return 70.0; });
    write_series(storage, "likwid_branch", "branch_misprediction_ratio", host, "1", 0, end,
                 10 * kSec, [](double) { return 0.02; });
    write_series(storage, "memory", "used_percent", host, "1", 0, end, 10 * kSec,
                 [](double) { return 40.0; });
  }
  MetricFetcher fetcher(storage, "lms");
  const JobSignature sig =
      signature_from_db(fetcher, {"h1", "h2"}, "1", 0, end, hpm::simx86());
  EXPECT_NEAR(sig.cpu_load, 0.8, 1e-6);
  EXPECT_NEAR(sig.ipc, 2.0, 1e-6);
  EXPECT_NEAR(sig.vectorization_ratio, 0.7, 1e-6);
  EXPECT_NEAR(sig.branch_miss_ratio, 0.02, 1e-6);
  EXPECT_NEAR(sig.mem_used_fraction, 0.4, 1e-6);
  EXPECT_EQ(sig.nodes, 2);
  // 15 GFLOP/s mean vs 2-socket peak; imbalance CV = std/mean of {20,10} GF.
  const double peak = hpm::simx86().peak_dp_flops_per_core * hpm::simx86().total_cores();
  EXPECT_NEAR(sig.flops_dp_fraction, 15e9 / peak, 1e-6);
  EXPECT_NEAR(sig.load_imbalance_cv, std::sqrt(2.0) * 5.0 / 15.0, 1e-6);
}

// ---------------------------------------------------------------- report

TEST(ReportTest, Fig2TablePerNodeColumns) {
  tsdb::Storage storage;
  const util::TimeNs end = 20 * kMin;
  for (const std::string host : {"h1", "h2", "h3", "h4"}) {
    const bool idle = host == "h3";  // one pathological node
    write_series(storage, "cpu", "user_percent", host, "1", 0, end, 10 * kSec,
                 [idle](double) { return idle ? 1.0 : 90.0; });
    write_series(storage, "likwid_mem_dp", "ipc", host, "1", 0, end, 10 * kSec,
                 [idle](double) { return idle ? 0.05 : 1.8; });
    write_series(storage, "likwid_mem_dp", "dp_mflop_per_s", host, "1", 0, end, 10 * kSec,
                 [idle](double) { return idle ? 1.0 : 5000.0; });
    write_series(storage, "memory", "used_percent", host, "1", 0, end, 10 * kSec,
                 [](double) { return 50.0; });
  }
  MetricFetcher fetcher(storage, "lms");
  JobReporter reporter(fetcher, hpm::simx86());
  const JobEvaluation eval = reporter.evaluate("1", {"h1", "h2", "h3", "h4"}, 0, end);

  ASSERT_EQ(eval.hosts.size(), 4u);
  ASSERT_FALSE(eval.rows.empty());
  // Row 0: CPU load. h3 is critical; the row verdict is the worst cell.
  const ReportRow& cpu = eval.rows[0];
  EXPECT_EQ(cpu.check.label, "CPU load");
  ASSERT_EQ(cpu.cells.size(), 4u);
  EXPECT_EQ(cpu.cells[0].verdict, Verdict::kOk);
  EXPECT_EQ(cpu.cells[2].verdict, Verdict::kCritical);
  EXPECT_EQ(cpu.overall, Verdict::kCritical);
  // Rows without data say so.
  bool found_nodata = false;
  for (const auto& row : eval.rows) {
    if (row.check.label == "Network I/O") {
      EXPECT_EQ(row.overall, Verdict::kNoData);
      found_nodata = true;
    }
  }
  EXPECT_TRUE(found_nodata);

  // Text rendering contains the node columns and the pattern line.
  const std::string text = render_text(eval);
  EXPECT_NE(text.find("h1"), std::string::npos);
  EXPECT_NE(text.find("h4"), std::string::npos);
  EXPECT_NE(text.find("CPU load"), std::string::npos);
  EXPECT_NE(text.find("pattern:"), std::string::npos);

  // JSON rendering is valid and mirrors the table.
  const json::Value j = to_json(eval);
  EXPECT_EQ(j["jobid"].as_string(), "1");
  EXPECT_EQ(j["hosts"].get_array().size(), 4u);
  EXPECT_EQ(j["rows"][0]["check"].as_string(), "CPU load");
  EXPECT_EQ(j["rows"][0]["cells"].get_array().size(), 4u);
  EXPECT_EQ(j["rows"][0]["cells"][2]["verdict"].as_string(), "CRIT");
  EXPECT_TRUE(j["classification"]["pattern"].is_string());
}

TEST(ReportTest, CustomChecksAndRules) {
  tsdb::Storage storage;
  write_series(storage, "gpu", "util", "h1", "1", 0, 10 * kMin, 10 * kSec,
               [](double) { return 3.0; });
  MetricFetcher fetcher(storage, "lms");
  JobReporter reporter(fetcher, hpm::simx86());
  reporter.set_checks({{"GPU util", "%", {"gpu", "util"}, CheckDirection::kLowIsBad, 50, 10}});
  reporter.set_rules({});
  const JobEvaluation eval = reporter.evaluate("1", {"h1"}, 0, 10 * kMin);
  ASSERT_EQ(eval.rows.size(), 1u);
  EXPECT_EQ(eval.rows[0].overall, Verdict::kCritical);
  EXPECT_TRUE(eval.findings.empty());
}

TEST(ReportTest, EvaluateRecordsOneSpan) {
  tsdb::Storage storage;
  write_series(storage, "cpu", "user_percent", "h1", "1", 0, 10 * kMin, 10 * kSec,
               [](double) { return 50.0; });
  MetricFetcher fetcher(storage, "lms");
  const JobReporter reporter(fetcher, hpm::simx86());
  obs::SpanRecorder& recorder = obs::SpanRecorder::global();
  const std::uint64_t before = recorder.recorded();
  (void)reporter.evaluate("1", {"h1"}, 0, 10 * kMin);
  ASSERT_EQ(recorder.recorded(), before + 1);
  const obs::SpanRecord span = recorder.recent(1).at(0);
  EXPECT_EQ(span.name, "analysis.evaluate");
  EXPECT_EQ(span.component, "analysis");
  EXPECT_EQ(span.note, "series=1 samples=60");
  {
    const obs::TraceSuppressGuard quiet;
    (void)reporter.evaluate("1", {"h1"}, 0, 10 * kMin);
  }
  EXPECT_EQ(recorder.recorded(), before + 1);
}

TEST(ReportTest, EvaluateWhileTwoThreadsWrite) {
  tsdb::Storage storage;
  const util::TimeNs end = 10 * kMin;
  for (const std::string host : {"h1", "h2"}) {
    write_series(storage, "cpu", "user_percent", host, "1", 0, end, 10 * kSec,
                 [](double) { return 50.0; });
    write_fig4(storage, host, 2 * kMin, 5 * kMin);
  }
  MetricFetcher fetcher(storage, "lms");
  const JobReporter reporter(fetcher, hpm::simx86());
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      // Writer 0 appends to the job's own series, writer 1 to other hosts.
      const std::string host = w == 0 ? "h1" : "h" + std::to_string(10 + w);
      for (util::TimeNs t = end; !stop.load(); t += kSec) {
        write_series(storage, "cpu", "user_percent", host, "1", t, t + kSec, kSec,
                     [](double) { return 10.0; });
      }
    });
  }
  for (int i = 0; i < 20; ++i) {
    const JobEvaluation eval = reporter.evaluate("1", {"h1", "h2"}, 0, end);
    ASSERT_EQ(eval.rows[0].cells.size(), 2u);
    // Writes land after `end`, so the window's answer never changes.
    EXPECT_EQ(eval.rows[0].cells[0].value, 50.0);
    EXPECT_EQ(eval.rows[0].cells[1].value, 50.0);
  }
  stop = true;
  for (auto& t : writers) t.join();
}

}  // namespace
}  // namespace lms::analysis

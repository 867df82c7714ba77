// Tests for lms::obs::CpuProfiler and its lms_profiles export — deterministic
// sample_once()/process_once() paths, trace/task correlation, the timer
// (SIGPROF) mode, the lms_profiles export format, and the HTTP surfaces
// (/debug/pprof, /debug/runtime, /flamegraph) across the full harness.
//
// The profiler is process-global (signals and interval timers are), so
// every test stops and clears it on entry and exit, and asserts on deltas
// of the cumulative counters rather than absolute values.

#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "lms/cluster/harness.hpp"
#include "lms/core/runtime.hpp"
#include "lms/obs/cpuprofiler.hpp"
#include "lms/obs/exporter.hpp"
#include "lms/obs/trace.hpp"
#include "lms/tsdb/storage.hpp"
#include "lms/util/clock.hpp"

namespace {

using namespace lms;
using cluster::ClusterHarness;
using obs::CpuProfiler;
using obs::Exporter;
using obs::ProfileStack;

constexpr util::TimeNs kSec = util::kNanosPerSecond;

/// Per-test reset of the process-global profiler.
struct ProfilerReset {
  ProfilerReset() { reset(); }
  ~ProfilerReset() { reset(); }
  static void reset() {
    CpuProfiler::instance().detach();
    CpuProfiler::instance().stop();
    CpuProfiler::instance().clear();
  }
};

CpuProfiler::Options manual_options() {
  CpuProfiler::Options o;
  o.timer = false;  // the test drives capture explicitly
  return o;
}

TEST(CpuProfiler, ManualSampleFoldsIntoCollapsedStacks) {
  ProfilerReset reset;
  CpuProfiler& prof = CpuProfiler::instance();
  const CpuProfiler::Stats before = prof.stats();
  ASSERT_TRUE(prof.start(manual_options()).ok());
  EXPECT_TRUE(prof.running());

  for (int i = 0; i < 5; ++i) prof.sample_once();
  const std::size_t folded = prof.process_once();
  EXPECT_EQ(folded, 5u);

  const CpuProfiler::Stats after = prof.stats();
  EXPECT_EQ(after.samples_captured - before.samples_captured, 5u);
  EXPECT_EQ(after.samples_folded - before.samples_folded, 5u);
  EXPECT_GE(after.rings_active, 1u);
  EXPECT_GE(after.stacks, 1u);

  const std::vector<ProfileStack> stacks = prof.snapshot();
  ASSERT_FALSE(stacks.empty());
  std::uint64_t total = 0;
  for (const ProfileStack& s : stacks) total += s.count;
  EXPECT_EQ(total, 5u);

  // Collapsed text: "stack count\n" per line, heaviest first.
  const std::string text = prof.collapsed();
  ASSERT_FALSE(text.empty());
  const std::size_t space = text.find(' ');
  ASSERT_NE(space, std::string::npos);
  EXPECT_GT(space, 0u);
  EXPECT_EQ(text.back(), '\n');
}

TEST(CpuProfiler, SampleOnceIsNoOpWhenStopped) {
  ProfilerReset reset;
  CpuProfiler& prof = CpuProfiler::instance();
  const CpuProfiler::Stats before = prof.stats();
  EXPECT_FALSE(prof.running());
  prof.sample_once();
  prof.stop();  // idempotent
  EXPECT_EQ(prof.stats().samples_captured, before.samples_captured);
}

TEST(CpuProfiler, SampleCarriesTraceIdIntoFoldTable) {
  ProfilerReset reset;
  const double prev_rate = obs::trace_sample_rate();
  obs::set_trace_sample_rate(1.0);
  CpuProfiler& prof = CpuProfiler::instance();
  ASSERT_TRUE(prof.start(manual_options()).ok());

  std::uint64_t trace_id = 0;
  {
    obs::Span span("test.profiled", "test");
    trace_id = span.context().trace_id;
    prof.sample_once();
  }
  prof.process_once();
  obs::set_trace_sample_rate(prev_rate);

  ASSERT_NE(trace_id, 0u);
  bool found = false;
  for (const ProfileStack& s : prof.snapshot()) {
    if (s.trace_id == trace_id) found = true;
  }
  EXPECT_TRUE(found) << "no folded stack carries the sampled trace id";
}

TEST(CpuProfiler, SampleCarriesSchedulerTaskName) {
  ProfilerReset reset;
  CpuProfiler& prof = CpuProfiler::instance();
  ASSERT_TRUE(prof.start(manual_options()).ok());
  {
    core::runtime::TaskNameScope scope("test.sampled.task");
    prof.sample_once();
  }
  prof.process_once();
  bool found = false;
  for (const ProfileStack& s : prof.snapshot()) {
    if (s.stack.rfind("task:test.sampled.task", 0) == 0) found = true;
  }
  EXPECT_TRUE(found) << "no folded stack starts with the synthetic task root";
}

TEST(CpuProfiler, StackTableOverflowFoldsIntoOverflowBucket) {
  ProfilerReset reset;
  CpuProfiler& prof = CpuProfiler::instance();
  CpuProfiler::Options opts = manual_options();
  opts.max_stacks = 1;
  ASSERT_TRUE(prof.start(opts).ok());
  const std::uint64_t overflows_before = prof.stats().stack_overflows;

  {
    core::runtime::TaskNameScope scope("test.overflow.a");
    prof.sample_once();
  }
  prof.process_once();  // first distinct stack occupies the whole table
  {
    core::runtime::TaskNameScope scope("test.overflow.b");
    prof.sample_once();
  }
  prof.process_once();

  EXPECT_GT(prof.stats().stack_overflows, overflows_before);
  bool overflow_bucket = false;
  for (const ProfileStack& s : prof.snapshot()) {
    if (s.stack == "(overflow)") overflow_bucket = true;
  }
  EXPECT_TRUE(overflow_bucket);
}

TEST(CpuProfiler, ClearResetsAggregateNotCounters) {
  ProfilerReset reset;
  CpuProfiler& prof = CpuProfiler::instance();
  ASSERT_TRUE(prof.start(manual_options()).ok());
  prof.sample_once();
  prof.process_once();
  ASSERT_GE(prof.stats().stacks, 1u);
  const std::uint64_t captured = prof.stats().samples_captured;
  prof.clear();
  EXPECT_EQ(prof.stats().stacks, 0u);
  EXPECT_EQ(prof.stats().samples_captured, captured);
}

TEST(CpuProfiler, StartWhileRunningFails) {
  ProfilerReset reset;
  CpuProfiler& prof = CpuProfiler::instance();
  ASSERT_TRUE(prof.start(manual_options()).ok());
  EXPECT_FALSE(prof.start(manual_options()).ok());
  prof.stop();
  EXPECT_TRUE(prof.start(manual_options()).ok());
}

TEST(CpuProfiler, TimerModeCapturesBusyLoop) {
  ProfilerReset reset;
  CpuProfiler& prof = CpuProfiler::instance();
  const std::uint64_t captured_before = prof.stats().samples_captured;
  CpuProfiler::Options opts;
  opts.hz = 250;
  opts.timer = true;  // real SIGPROF
  ASSERT_TRUE(prof.start(opts).ok());
  EXPECT_TRUE(prof.stats().timer);

  // Burn CPU until a few ticks landed (sanitizer builds accumulate CPU time
  // slower, hence the generous wall-clock deadline).
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  volatile double sink = 0;
  while (prof.stats().samples_captured - captured_before < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    for (int i = 0; i < 1000000; ++i) sink = sink + static_cast<double>(i) * 0.5;
  }
  prof.stop();  // disarms the timer and folds pending samples

  EXPECT_GT(prof.stats().samples_captured, captured_before);
  EXPECT_FALSE(prof.collapsed().empty());
  // Stopped: no further ticks arrive.
  const std::uint64_t after_stop = prof.stats().samples_captured;
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(prof.stats().samples_captured, after_stop);
}

// ------------------------------------------------------- lms_profiles export

TEST(ProfileExporter, ExportsTopStacksAsLineProtocol) {
  ProfilerReset reset;
  const double prev_rate = obs::trace_sample_rate();
  obs::set_trace_sample_rate(1.0);
  CpuProfiler& prof = CpuProfiler::instance();
  ASSERT_TRUE(prof.start(manual_options()).ok());

  std::uint64_t trace_id = 0;
  {
    obs::Span span("test.export", "test");
    trace_id = span.context().trace_id;
    core::runtime::TaskNameScope scope("test.export.task");
    prof.sample_once();
  }
  obs::set_trace_sample_rate(prev_rate);

  util::SimClock clock(1'500'000'000LL * kSec);
  std::vector<std::string> bodies;
  Exporter exporter("obs.profileexport", 0, obs::profile_source(prof, clock, "test-host", 5),
                    [&](const std::string& body) -> util::Status {
                      bodies.push_back(body);
                      return util::Status();
                    });

  ASSERT_TRUE(exporter.export_once().ok());
  EXPECT_EQ(exporter.exports(), 1u);
  EXPECT_GT(exporter.points_exported(), 0u);
  ASSERT_EQ(bodies.size(), 1u);
  const std::string& body = bodies[0];
  EXPECT_NE(body.find("lms_profiles"), std::string::npos);
  EXPECT_NE(body.find("host=test-host"), std::string::npos);
  EXPECT_NE(body.find("rank=0"), std::string::npos);
  EXPECT_NE(body.find("samples="), std::string::npos);
  EXPECT_NE(body.find("stack="), std::string::npos);
  EXPECT_NE(body.find("frame="), std::string::npos);
  EXPECT_NE(body.find("trace_id=" + obs::trace_id_hex(trace_id)), std::string::npos);
  EXPECT_NE(body.find(std::to_string(clock.now())), std::string::npos);
}

TEST(ProfileExporter, EmptyAggregateWritesNothing) {
  ProfilerReset reset;
  CpuProfiler& prof = CpuProfiler::instance();
  ASSERT_TRUE(prof.start(manual_options()).ok());
  int writes = 0;
  Exporter exporter("obs.profileexport", 0,
                    obs::profile_source(prof, util::WallClock::instance(), "", 20),
                    [&](const std::string&) -> util::Status {
                      ++writes;
                      return util::Status();
                    });
  EXPECT_TRUE(exporter.export_once().ok());
  EXPECT_EQ(writes, 0);
  EXPECT_EQ(exporter.points_exported(), 0u);
}

// ------------------------------------------------------- harness wiring

TEST(HarnessProfile, PprofAnswers503WithoutProfiler) {
  ProfilerReset reset;
  ClusterHarness::Options opts;
  opts.nodes = 1;
  ClusterHarness harness(opts);
  EXPECT_EQ(harness.profile_exporter(), nullptr);
  auto resp = harness.client().get("inproc://router/debug/pprof");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 503);
}

TEST(HarnessProfile, DebugRuntimeShapeOnAllFourAgents) {
  ProfilerReset reset;
  ClusterHarness::Options opts;
  opts.nodes = 2;
  opts.enable_cpuprofile = true;
  ClusterHarness harness(opts);
  ASSERT_NE(harness.profile_exporter(), nullptr);
  harness.run_for(20 * kSec);

  const std::vector<std::string> endpoints = {
      "inproc://router/debug/runtime", "inproc://tsdb/debug/runtime",
      "inproc://grafana/debug/runtime", "inproc://agent-h1/debug/runtime"};
  for (const std::string& url : endpoints) {
    auto resp = harness.client().get(url);
    ASSERT_TRUE(resp.ok()) << url;
    EXPECT_EQ(resp->status, 200) << url;
    for (const char* key :
         {"\"build\"", "\"lock_stats\"", "\"queues\"", "\"loops\"", "\"scheds\"",
          "\"queue_delays\"", "\"profiler\"", "\"samples_captured\"", "\"rings_active\""}) {
      EXPECT_NE(resp->body.find(key), std::string::npos) << url << " missing " << key;
    }
    EXPECT_NE(resp->body.find("\"running\":true"), std::string::npos) << url;
  }
}

TEST(HarnessProfile, PprofAndFlamegraphServeHarnessSamples) {
  ProfilerReset reset;
  ClusterHarness::Options opts;
  opts.nodes = 1;
  opts.enable_cpuprofile = true;
  ClusterHarness harness(opts);
  harness.run_for(30 * kSec);  // 30 steps → 30 deterministic samples

  auto pprof = harness.client().get("inproc://router/debug/pprof");
  ASSERT_TRUE(pprof.ok());
  EXPECT_EQ(pprof->status, 200);
  ASSERT_FALSE(pprof->body.empty());
  // Collapsed format: every line is "stack count".
  const std::size_t eol = pprof->body.find('\n');
  ASSERT_NE(eol, std::string::npos);
  const std::string first_line = pprof->body.substr(0, eol);
  const std::size_t space = first_line.rfind(' ');
  ASSERT_NE(space, std::string::npos);
  EXPECT_GT(std::stoull(first_line.substr(space + 1)), 0u);

  // Same body on every agent's port.
  for (const char* ep : {"inproc://tsdb/debug/pprof", "inproc://grafana/debug/pprof",
                         "inproc://agent-h1/debug/pprof"}) {
    auto resp = harness.client().get(ep);
    ASSERT_TRUE(resp.ok()) << ep;
    EXPECT_EQ(resp->status, 200) << ep;
    EXPECT_FALSE(resp->body.empty()) << ep;
  }

  auto flame = harness.client().get("inproc://grafana/flamegraph");
  ASSERT_TRUE(flame.ok());
  EXPECT_EQ(flame->status, 200);
  EXPECT_NE(flame->headers.get_or("Content-Type", "").find("text/html"), std::string::npos);
  EXPECT_NE(flame->body.find("flamegraph"), std::string::npos);
}

TEST(HarnessProfile, ProfilePointsLandInTsdbWithResolvableTraceId) {
  ProfilerReset reset;
  ClusterHarness::Options opts;
  opts.nodes = 2;
  opts.enable_cpuprofile = true;
  opts.enable_tracing = true;
  opts.async_ingest = true;  // profiles must survive the queued write path
  ClusterHarness harness(opts);
  obs::SpanRecorder::global().clear();

  // Keep a root span open across the simulation: every per-step CPU sample
  // of the harness thread is taken inside it, so the hottest folded stack
  // carries this trace id.
  std::uint64_t trace_id = 0;
  {
    obs::Span span("test.profiled.run", "test");
    trace_id = span.context().trace_id;
    harness.run_for(60 * kSec);
  }
  ASSERT_NE(trace_id, 0u);
  ASSERT_GT(harness.drain_traces(), 0u);
  ASSERT_GT(harness.drain_profiles(), 0u);

  // The lms_profiles measurement exists and a point is tagged with the
  // trace id sampled during the run.
  std::string hex;
  {
    const tsdb::ReadSnapshot snap = harness.storage().snapshot("lms");
    ASSERT_TRUE(snap);
    bool tagged = false;
    std::size_t profile_series = 0;
    for (const tsdb::Series* s :
         snap->series_matching(std::string(obs::kProfileMeasurement), {})) {
      ++profile_series;
      if (s->tag("trace_id") == obs::trace_id_hex(trace_id)) tagged = true;
    }
    ASSERT_GT(profile_series, 0u) << "no lms_profiles series in the TSDB";
    EXPECT_TRUE(tagged) << "no profile point tagged with the sampled trace id";
    hex = obs::trace_id_hex(trace_id);
  }

  // The profile→trace pivot resolves: GET /trace/<id> renders the span the
  // samples were captured under.
  auto page = harness.client().get("inproc://grafana/trace/" + hex);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->status, 200);
  EXPECT_NE(page->body.find("test.profiled.run"), std::string::npos);

  // The flamegraph links hot stacks to their trace.
  auto flame = harness.client().get("inproc://grafana/flamegraph");
  ASSERT_TRUE(flame.ok());
  EXPECT_EQ(flame->status, 200);
  EXPECT_NE(flame->body.find("/trace/" + hex), std::string::npos);
}

TEST(HarnessProfile, SelfScrapeExportsProfilerGauges) {
  ProfilerReset reset;
  ClusterHarness::Options opts;
  opts.nodes = 1;
  opts.enable_cpuprofile = true;
  opts.enable_self_scrape = true;
  ClusterHarness harness(opts);
  harness.run_for(90 * kSec);

  auto resp = harness.client().get("inproc://router/metrics");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 200);
  EXPECT_NE(resp->body.find("lms_profile_running 1"), std::string::npos);
  EXPECT_NE(resp->body.find("lms_profile_samples_captured_total"), std::string::npos);
  EXPECT_NE(resp->body.find("lms_runtime_sched_queue_delay_count{task="), std::string::npos);
  // Satellite: the exposition carries HELP/TYPE headers.
  EXPECT_NE(resp->body.find("# TYPE lms_profile_running gauge"), std::string::npos);
  EXPECT_NE(resp->body.find("# HELP "), std::string::npos);
}

}  // namespace

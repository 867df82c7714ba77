// Tests for the lms::obs self-monitoring subsystem: metrics registry,
// request tracing across transports, and the exporter that writes the
// stack's own instruments, spans and profiles back into its TSDB.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "lms/core/router.hpp"
#include "lms/lineproto/codec.hpp"
#include "lms/net/tcp_http.hpp"
#include "lms/net/transport.hpp"
#include "lms/core/runtime.hpp"
#include "lms/obs/cpuprofiler.hpp"
#include "lms/obs/exporter.hpp"
#include "lms/obs/metrics.hpp"
#include "lms/obs/runtime.hpp"
#include "lms/obs/trace.hpp"
#include "lms/tsdb/http_api.hpp"
#include "lms/tsdb/storage.hpp"
#include "lms/util/clock.hpp"
#include "lms/util/queue.hpp"

namespace lms::obs {
namespace {

// ---------------------------------------------------------------- registry

TEST(Registry, CounterIncrementsAndInterns) {
  Registry reg;
  Counter& c = reg.counter("requests");
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);
  // Same (name, labels) -> same instrument; label order must not matter.
  EXPECT_EQ(&reg.counter("requests"), &c);
  Counter& ab = reg.counter("requests", {{"a", "1"}, {"b", "2"}});
  Counter& ba = reg.counter("requests", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&ab, &ba);
  EXPECT_NE(&ab, &c);
  EXPECT_EQ(reg.instrument_count(), 2u);
}

TEST(Registry, GaugeSetAndAdd) {
  Registry reg;
  Gauge& g = reg.gauge("depth");
  g.set(10.5);
  EXPECT_DOUBLE_EQ(g.value(), 10.5);
  g.add(-0.5);
  EXPECT_DOUBLE_EQ(g.value(), 10.0);
}

TEST(Registry, HistogramPercentilesWithinLogBucketError) {
  Registry reg;
  Histogram& h = reg.histogram("lat");
  // 100 samples 1..100: p50 ~ 50, p99 ~ 99. Log2 buckets bound the relative
  // error to 2x, so assert the half-to-double bracket.
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 5050u);
  const double p50 = h.percentile(0.5);
  const double p99 = h.percentile(0.99);
  EXPECT_GE(p50, 25.0);
  EXPECT_LE(p50, 100.0);
  EXPECT_GE(p99, 50.0);
  EXPECT_LE(p99, 200.0);
  EXPECT_LE(p50, p99);
  const Histogram::Summary s = h.summary();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.p50, p50);
}

TEST(Registry, HistogramZeroAndLargeValues) {
  Registry reg;
  Histogram& h = reg.histogram("sizes");
  h.record(0);
  h.record(1ULL << 40);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
  EXPECT_GE(h.percentile(1.0), static_cast<double>(1ULL << 39));
}

TEST(Registry, GaugeFnSampledAtCollect) {
  Registry reg;
  double depth = 3;
  reg.gauge_fn("queue_depth", {{"q", "spool"}}, [&depth] { return depth; });
  auto find = [&]() -> double {
    for (const Sample& s : reg.collect()) {
      if (s.name == "queue_depth") return s.value;
    }
    return -1;
  };
  EXPECT_DOUBLE_EQ(find(), 3.0);
  depth = 7;
  EXPECT_DOUBLE_EQ(find(), 7.0);
  reg.remove_gauge_fn("queue_depth", {{"q", "spool"}});
  EXPECT_DOUBLE_EQ(find(), -1.0);
}

TEST(Registry, CounterIsThreadSafe) {
  Registry reg;
  Counter& c = reg.counter("hits");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 10000; ++i) c.inc();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), 40000u);
}

TEST(Registry, RenderTextFormat) {
  Registry reg;
  reg.counter("reqs", {{"route", "/write"}}).inc(3);
  reg.gauge("temp").set(1.5);
  reg.histogram("lat").record(100);
  const std::string text = render_text(reg);
  EXPECT_NE(text.find("reqs{route=\"/write\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("temp 1.5\n"), std::string::npos);
  EXPECT_NE(text.find("lat_count 1\n"), std::string::npos);
  EXPECT_NE(text.find("lat_p99 "), std::string::npos);
  // Every family carries a HELP/TYPE header ahead of its series.
  EXPECT_NE(text.find("# TYPE reqs counter\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE temp gauge\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat_count counter\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat_sum counter\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat_p99 gauge\n"), std::string::npos);
  EXPECT_NE(text.find("# HELP reqs "), std::string::npos);
  EXPECT_NE(text.find("# HELP lat_count "), std::string::npos);
  // The header precedes the series it introduces.
  EXPECT_LT(text.find("# TYPE lat_count counter\n"), text.find("lat_count 1\n"));
  // No exemplar family appears when no exemplar was captured.
  EXPECT_EQ(text.find("_exemplar"), std::string::npos);
}

TEST(Registry, RenderTextKeepsHistogramFamiliesContiguous) {
  Registry reg;
  reg.histogram("lat", {{"route", "/a"}}).record(100);
  reg.histogram("lat", {{"route", "/b"}}).record(200);
  const std::string text = render_text(reg);
  // Both label sets of the _count family sit together, before any _sum
  // series (Prometheus requires a family's series to be contiguous).
  const auto count_a = text.find("lat_count{route=\"/a\"}");
  const auto count_b = text.find("lat_count{route=\"/b\"}");
  const auto sum_a = text.find("lat_sum{route=\"/a\"}");
  ASSERT_NE(count_a, std::string::npos);
  ASSERT_NE(count_b, std::string::npos);
  ASSERT_NE(sum_a, std::string::npos);
  EXPECT_LT(count_a, sum_a);
  EXPECT_LT(count_b, sum_a);
  // One header per family, not one per label set.
  const auto first_type = text.find("# TYPE lat_count counter\n");
  ASSERT_NE(first_type, std::string::npos);
  EXPECT_EQ(text.find("# TYPE lat_count counter\n", first_type + 1), std::string::npos);
}

TEST(Registry, ToPointsCarriesTagsAndFields) {
  Registry reg;
  reg.counter("reqs", {{"route", "/write"}}).inc(2);
  reg.histogram("lat").record(64);
  const auto points = to_points(reg, "lms_internal", {{"hostname", "h1"}}, 12345);
  ASSERT_EQ(points.size(), 2u);
  for (const auto& p : points) {
    EXPECT_EQ(p.measurement, "lms_internal");
    EXPECT_EQ(p.tag("hostname"), "h1");
    EXPECT_EQ(p.timestamp, 12345);
  }
  const auto& counter_pt = points[0].tag("metric") == "reqs" ? points[0] : points[1];
  const auto& hist_pt = points[0].tag("metric") == "lat" ? points[0] : points[1];
  EXPECT_EQ(counter_pt.tag("route"), "/write");
  ASSERT_NE(counter_pt.field("value"), nullptr);
  EXPECT_DOUBLE_EQ(counter_pt.field("value")->as_double(), 2.0);
  ASSERT_NE(hist_pt.field("count"), nullptr);
  EXPECT_DOUBLE_EQ(hist_pt.field("count")->as_double(), 1.0);
  ASSERT_NE(hist_pt.field("p50"), nullptr);
  EXPECT_GT(hist_pt.field("p50")->as_double(), 0.0);
}

// ---------------------------------------------------------------- tracing

TEST(Trace, HeaderRoundTrip) {
  const TraceContext ctx{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  const std::string header = format_trace_header(ctx);
  EXPECT_EQ(header, "0123456789abcdef-fedcba9876543210");
  const auto parsed = parse_trace_header(header);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->trace_id, ctx.trace_id);
  EXPECT_EQ(parsed->span_id, ctx.span_id);
  EXPECT_FALSE(parse_trace_header("").has_value());
  EXPECT_FALSE(parse_trace_header("zzz").has_value());
  EXPECT_FALSE(parse_trace_header("0123456789abcdef_fedcba9876543210").has_value());
}

TEST(Trace, SpanNestingAndParenting) {
  SpanRecorder recorder(16);
  std::uint64_t trace_id = 0;
  std::uint64_t outer_id = 0;
  {
    Span outer("outer", "test", &recorder);
    ASSERT_TRUE(outer.active());
    trace_id = outer.context().trace_id;
    outer_id = outer.context().span_id;
    EXPECT_EQ(current_trace().trace_id, trace_id);
    {
      Span inner("inner", "test", &recorder);
      EXPECT_EQ(inner.context().trace_id, trace_id);  // same trace
      EXPECT_NE(inner.context().span_id, outer_id);
    }
    EXPECT_EQ(current_trace().span_id, outer_id);  // restored
  }
  EXPECT_FALSE(current_trace().valid());
  const auto spans = recorder.by_trace(trace_id);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "inner");  // inner finished first
  EXPECT_EQ(spans[0].parent_span_id, outer_id);
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(spans[1].parent_span_id, 0u);  // root
}

TEST(Trace, ScopedContextAdoption) {
  SpanRecorder recorder(16);
  const TraceContext remote{new_trace_id(), new_trace_id()};
  {
    ScopedTraceContext adopt(remote);
    Span server("server", "test", &recorder);
    EXPECT_EQ(server.context().trace_id, remote.trace_id);
  }
  EXPECT_FALSE(current_trace().valid());
  const auto spans = recorder.by_trace(remote.trace_id);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].parent_span_id, remote.span_id);
}

TEST(Trace, RecorderBoundsAndEviction) {
  SpanRecorder recorder(4);
  for (int i = 0; i < 10; ++i) {
    Span s("s" + std::to_string(i), "test", &recorder);
  }
  EXPECT_EQ(recorder.size(), 4u);
  EXPECT_EQ(recorder.recorded(), 10u);
  EXPECT_EQ(recorder.evicted(), 6u);
  const auto recent = recorder.recent(2);
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[1].name, "s9");
  recorder.clear();
  EXPECT_EQ(recorder.size(), 0u);
}

TEST(Trace, DisabledTracingIsNoOp) {
  SpanRecorder recorder(16);
  set_tracing_enabled(false);
  {
    Span s("ghost", "test", &recorder);
    EXPECT_FALSE(s.active());
    EXPECT_FALSE(current_trace().valid());
  }
  set_tracing_enabled(true);
  EXPECT_EQ(recorder.size(), 0u);
}

TEST(Trace, UnsampledHeaderRoundTrip) {
  // The head-sampling decision travels with the header: "-u" marks an
  // unsampled trace; the sampled form stays the pre-sampling 33 characters.
  TraceContext ctx{0x0123456789abcdefULL, 0xfedcba9876543210ULL, false};
  const std::string header = format_trace_header(ctx);
  EXPECT_EQ(header, "0123456789abcdef-fedcba9876543210-u");
  const auto parsed = parse_trace_header(header);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->trace_id, ctx.trace_id);
  EXPECT_EQ(parsed->span_id, ctx.span_id);
  EXPECT_FALSE(parsed->sampled);

  ctx.sampled = true;
  const std::string sampled_header = format_trace_header(ctx);
  EXPECT_EQ(sampled_header.size(), 33u);
  const auto sampled_parsed = parse_trace_header(sampled_header);
  ASSERT_TRUE(sampled_parsed.has_value());
  EXPECT_TRUE(sampled_parsed->sampled);
  EXPECT_FALSE(parse_trace_header("0123456789abcdef-fedcba9876543210-x").has_value());
}

TEST(Trace, HeadSamplingIsDeterministicPerTraceId) {
  const double prev = trace_sample_rate();
  set_trace_sample_rate(1.0);
  EXPECT_TRUE(trace_head_sampled(1));
  EXPECT_TRUE(trace_head_sampled(0xdeadbeefULL));
  set_trace_sample_rate(0.0);
  EXPECT_FALSE(trace_head_sampled(1));
  EXPECT_FALSE(trace_head_sampled(0xdeadbeefULL));

  // The decision is a hash of the id, not a coin flip: stable across calls,
  // and at 50% roughly half of a batch of ids is kept.
  set_trace_sample_rate(0.5);
  int kept = 0;
  for (std::uint64_t id = 1; id <= 1000; ++id) {
    const bool first = trace_head_sampled(id);
    EXPECT_EQ(first, trace_head_sampled(id));
    if (first) ++kept;
  }
  EXPECT_GT(kept, 350);
  EXPECT_LT(kept, 650);
  set_trace_sample_rate(prev);
}

TEST(Trace, UnsampledSpansPropagateContextButSkipRecorder) {
  const double prev = trace_sample_rate();
  set_trace_sample_rate(0.0);
  SpanRecorder recorder(16);
  {
    Span outer("outer", "test", &recorder);
    EXPECT_TRUE(outer.active());  // timing still runs; only recording stops
    EXPECT_FALSE(outer.sampled());
    EXPECT_TRUE(current_trace().valid());
    EXPECT_FALSE(current_trace().sampled);
    Span inner("inner", "test", &recorder);
    EXPECT_EQ(inner.context().trace_id, outer.context().trace_id);
    EXPECT_FALSE(inner.sampled());
  }
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_EQ(recorder.recorded(), 0u);
  set_trace_sample_rate(prev);
}

TEST(Trace, TailKeepRecordsErroredAndSlowSpansOfUnsampledTraces) {
  const double prev_rate = trace_sample_rate();
  const bool prev_errors = trace_keep_errors();
  const std::int64_t prev_slow = trace_slow_keep_ns();
  set_trace_sample_rate(0.0);

  SpanRecorder recorder(16);
  {
    Span fine("fine", "test", &recorder);
  }
  EXPECT_EQ(recorder.size(), 0u);  // unsampled + healthy + fast: dropped

  set_trace_keep_errors(true);
  {
    Span failed("failed", "test", &recorder);
    failed.set_ok(false);
    failed.set_note("boom");
  }
  auto spans = recorder.recent(4);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "failed");
  EXPECT_FALSE(spans[0].ok);
  EXPECT_NE(spans[0].trace_id, 0u);  // reconstructed despite head-drop

  set_trace_keep_errors(false);
  {
    Span failed_again("failed_again", "test", &recorder);
    failed_again.set_ok(false);
  }
  EXPECT_EQ(recorder.recent(4).size(), 1u);  // keep-errors off: dropped

  set_trace_slow_keep_ns(1);  // any measurable duration counts as slow
  {
    Span slow("slow", "test", &recorder);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  spans = recorder.recent(4);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].name, "slow");
  EXPECT_GE(spans[1].duration_ns, 1);

  set_trace_sample_rate(prev_rate);
  set_trace_keep_errors(prev_errors);
  set_trace_slow_keep_ns(prev_slow);
}

TEST(Trace, SuppressGuardStopsSpansAndNests) {
  SpanRecorder recorder(16);
  EXPECT_FALSE(tracing_suppressed());
  {
    TraceSuppressGuard outer;
    EXPECT_TRUE(tracing_suppressed());
    {
      TraceSuppressGuard inner;
      Span s("invisible", "test", &recorder);
      EXPECT_FALSE(s.active());
    }
    EXPECT_TRUE(tracing_suppressed());  // survives inner guard exit
  }
  EXPECT_FALSE(tracing_suppressed());
  EXPECT_EQ(recorder.recorded(), 0u);
  {
    Span s("visible", "test", &recorder);
    EXPECT_TRUE(s.active());
  }
  EXPECT_EQ(recorder.recorded(), 1u);
}

TEST(Trace, DrainEmptiesRingWithoutCountingEviction) {
  SpanRecorder recorder(8);
  for (int i = 0; i < 5; ++i) {
    Span s("s" + std::to_string(i), "test", &recorder);
  }
  auto first = recorder.drain(2);  // bounded take: oldest first
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0].name, "s0");
  EXPECT_EQ(first[1].name, "s1");
  auto rest = recorder.drain();
  ASSERT_EQ(rest.size(), 3u);
  EXPECT_EQ(rest[2].name, "s4");
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_EQ(recorder.drained(), 5u);
  EXPECT_EQ(recorder.evicted(), 0u);  // drained spans were consumed, not lost
  EXPECT_TRUE(recorder.drain().empty());
}

TEST(Trace, SpanToPointCarriesWholeSpan) {
  SpanRecord span;
  span.trace_id = 0x0123456789abcdefULL;
  span.span_id = 2;
  span.parent_span_id = 1;
  span.name = "tsdb.write";
  span.component = "tsdb";
  span.start_wall_ns = 1'500'000'000'000'000'000LL;
  span.duration_ns = 4200;
  span.ok = false;
  span.note = "error=backpressure";

  const lineproto::Point pt = span_to_point(span, "h7");
  EXPECT_EQ(pt.measurement, "lms_traces");
  EXPECT_EQ(pt.tag("trace_id"), "0123456789abcdef");
  EXPECT_EQ(pt.tag("component"), "tsdb");
  EXPECT_EQ(pt.tag("host"), "h7");
  EXPECT_EQ(pt.timestamp, span.start_wall_ns);
  ASSERT_NE(pt.field("duration_ns"), nullptr);
  EXPECT_EQ(pt.field("duration_ns")->as_int(), 4200);
  ASSERT_NE(pt.field("name"), nullptr);
  EXPECT_EQ(pt.field("name")->as_string(), "tsdb.write");
  // The span field is a self-contained JSON record — every attribute
  // survives the trip without row-aligning separate columns.
  ASSERT_NE(pt.field("span"), nullptr);
  const std::string json = pt.field("span")->as_string();
  EXPECT_NE(json.find("\"span_id\":\"0000000000000002\""), std::string::npos);
  EXPECT_NE(json.find("\"parent\":\"0000000000000001\""), std::string::npos);
  EXPECT_NE(json.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(json.find("error=backpressure"), std::string::npos);
  EXPECT_NE(json.find("tsdb.write"), std::string::npos);
}

// ------------------------------------------------------- stack integration

/// Router + TSDB over the in-process transport sharing one registry — the
/// harness topology in miniature.
struct MiniStack {
  util::SimClock clock{1'500'000'000LL * util::kNanosPerSecond};
  Registry registry;
  net::InprocNetwork network;
  net::InprocHttpClient client{network};
  tsdb::Storage storage;
  std::unique_ptr<tsdb::HttpApi> db_api;
  std::unique_ptr<core::MetricsRouter> router;

  MiniStack() {
    network.set_registry(&registry);
    tsdb::HttpApi::Options db_opts;
    db_opts.registry = &registry;
    db_api = std::make_unique<tsdb::HttpApi>(storage, clock, db_opts);
    network.bind("tsdb", db_api->handler());
    core::MetricsRouter::Options router_opts;
    router_opts.db_url = "inproc://tsdb";
    router_opts.registry = &registry;
    router = std::make_unique<core::MetricsRouter>(client, clock, router_opts, nullptr);
    network.bind("router", router->handler());
  }

  /// Exporter write target: POST to the router's /write?db=lms.
  Exporter::WriteFn write_to_router() {
    return [this](const std::string& body) {
      return net::post_write(client, "inproc://router", "lms", body);
    };
  }
};

/// The three exporter sources, each with something pending to export: a
/// registry with one counter, a private span recorder holding one finished
/// span, and the process-wide CpuProfiler started timer-less with one
/// sample captured (stopped and cleared again on destruction).
struct ExportSources {
  struct Named {
    std::string task;
    std::string_view measurement;
    Exporter::Source source;
  };

  util::SimClock clock{1'500'000'000LL * util::kNanosPerSecond};
  Registry registry;
  SpanRecorder recorder{16};

  ExportSources() {
    registry.counter("ticks").inc();
    { Span s("pending", "test", &recorder); }
    CpuProfiler::Options prof_opts;
    prof_opts.timer = false;
    EXPECT_TRUE(CpuProfiler::instance().start(prof_opts).ok());
    CpuProfiler::instance().sample_once();
  }
  ~ExportSources() {
    CpuProfiler::instance().stop();
    CpuProfiler::instance().clear();
  }

  std::vector<Named> all() {
    return {
        {"obs.selfscrape", kInternalMeasurement,
         registry_source(registry, clock, {{"hostname", "h1"}})},
        {"obs.traceexport", kTraceMeasurement, span_source(recorder, "h1")},
        {"obs.profileexport", kProfileMeasurement,
         profile_source(CpuProfiler::instance(), clock, "h1", 5)},
    };
  }
};

TEST(ObsIntegration, TracedWriteSharesOneTraceAcrossHops) {
  MiniStack stack;
  SpanRecorder::global().clear();

  auto resp = stack.client.post("inproc://router/write?db=lms",
                                "cpu,hostname=h1 user_percent=42\n", "text/plain");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 204);

  // Find the innermost span (the TSDB write) and walk its whole trace.
  std::uint64_t trace_id = 0;
  for (const auto& s : SpanRecorder::global().recent(64)) {
    if (s.name == "tsdb.write") trace_id = s.trace_id;
  }
  ASSERT_NE(trace_id, 0u);
  const auto spans = SpanRecorder::global().by_trace(trace_id);
  // One trace covers: client send -> router server -> router.write ->
  // router.forward -> client send -> tsdb server -> tsdb.write.
  std::vector<std::string> names;
  for (const auto& s : spans) {
    EXPECT_EQ(s.trace_id, trace_id);
    names.push_back(s.name);
  }
  auto has = [&](const std::string& n) {
    for (const auto& name : names) {
      if (name.find(n) != std::string::npos) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("tsdb.write"));
  EXPECT_TRUE(has("router.write"));
  EXPECT_TRUE(has("router.forward"));
  EXPECT_TRUE(has("http.server"));
  EXPECT_TRUE(has("http.client"));
  EXPECT_GE(spans.size(), 5u);
  // Exactly one root: the originating client span.
  int roots = 0;
  for (const auto& s : spans) {
    if (s.parent_span_id == 0) ++roots;
  }
  EXPECT_EQ(roots, 1);
}

TEST(ObsIntegration, MetricsEndpointShowsIngestAndLatency) {
  MiniStack stack;
  for (int i = 0; i < 3; ++i) {
    auto resp = stack.client.post("inproc://router/write?db=lms",
                                  "cpu,hostname=h1 user_percent=42\n", "text/plain");
    ASSERT_TRUE(resp.ok() && resp->status == 204);
  }

  auto metrics = stack.client.get("inproc://router/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->status, 200);
  // Scrapers negotiate on the exposition content type.
  EXPECT_EQ(metrics->headers.get_or("Content-Type", ""), kTextExpositionContentType);
  const std::string& body = metrics->body;
  EXPECT_NE(body.find("router_points_in 3\n"), std::string::npos);
  EXPECT_NE(body.find("router_points_out 3\n"), std::string::npos);
  EXPECT_NE(body.find("tsdb_points_written 3\n"), std::string::npos);
  EXPECT_NE(body.find("router_write_ns_count 3\n"), std::string::npos);
  // Latency percentiles are present and non-zero.
  const auto p99_pos = body.find("router_write_ns_p99 ");
  ASSERT_NE(p99_pos, std::string::npos);
  EXPECT_GT(std::stod(body.substr(p99_pos + std::string("router_write_ns_p99 ").size())), 0.0);
  // The shared registry also carries the transport's view of the same traffic.
  EXPECT_NE(body.find("http_server_requests"), std::string::npos);

  // The TSDB endpoint serves the same registry.
  auto db_metrics = stack.client.get("inproc://tsdb/metrics");
  ASSERT_TRUE(db_metrics.ok());
  EXPECT_EQ(db_metrics->headers.get_or("Content-Type", ""), kTextExpositionContentType);
  EXPECT_NE(db_metrics->body.find("tsdb_points_written 3\n"), std::string::npos);

  // JSON endpoints say so.
  auto stats = stack.client.get("inproc://router/stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->headers.get_or("Content-Type", ""), "application/json");
  auto health = stack.client.get("inproc://router/health");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->headers.get_or("Content-Type", ""), "application/json");
}

TEST(ObsIntegration, SpanEvictionVisibleInMetrics) {
  // A small recorder forced to evict, exported through the registry: the
  // trace_spans_* instruments land in /metrics like any other.
  Registry registry;
  SpanRecorder recorder(4);
  register_trace_metrics(registry, recorder);
  for (int i = 0; i < 10; ++i) {
    Span s("s" + std::to_string(i), "test", &recorder);
  }
  const std::string text = render_text(registry);
  EXPECT_NE(text.find("trace_spans_recorded 10\n"), std::string::npos);
  EXPECT_NE(text.find("trace_spans_evicted 6\n"), std::string::npos);
  EXPECT_NE(text.find("trace_spans_retained 4\n"), std::string::npos);
  remove_trace_metrics(registry);
  EXPECT_EQ(render_text(registry).find("trace_spans_evicted"), std::string::npos);
}

TEST(ObsIntegration, SelfScrapeLandsInOwnTsdbQueryable) {
  MiniStack stack;
  // Produce some traffic so the registry has non-trivial values.
  for (int i = 0; i < 5; ++i) {
    auto resp = stack.client.post("inproc://router/write?db=lms",
                                  "cpu,hostname=h1 user_percent=42\n", "text/plain");
    ASSERT_TRUE(resp.ok() && resp->status == 204);
  }

  Exporter scrape("obs.selfscrape", 0,
                  registry_source(stack.registry, stack.clock, {{"hostname", "stack"}}),
                  stack.write_to_router());
  ASSERT_TRUE(scrape.export_once().ok());
  EXPECT_EQ(scrape.exports(), 1u);
  EXPECT_EQ(scrape.failures(), 0u);

  // The registry snapshot is now a regular measurement in the stack's own
  // TSDB, queryable through the Influx-compatible API.
  auto resp = stack.client.get(
      "inproc://tsdb/query?db=lms&q=SELECT%20last(value)%20FROM%20lms_internal%20WHERE%20"
      "metric%3D%27router_points_in%27");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 200);
  EXPECT_NE(resp->body.find("lms_internal"), std::string::npos);
  // 5 data writes happened before the scrape snapshot.
  EXPECT_NE(resp->body.find("5"), std::string::npos);

  // Histogram instruments arrive with percentile fields.
  auto hist = stack.client.get(
      "inproc://tsdb/query?db=lms&q=SELECT%20last(p99)%20FROM%20lms_internal%20WHERE%20"
      "metric%3D%27router_write_ns%27");
  ASSERT_TRUE(hist.ok());
  EXPECT_EQ(hist->status, 200);
  EXPECT_NE(hist->body.find("lms_internal"), std::string::npos);
}

TEST(ObsIntegration, SelfScrapeAttachedToSchedulerWritesPeriodically) {
  Registry reg;
  reg.counter("ticks").inc();
  util::WallClock clock;
  std::atomic<int> writes{0};
  Exporter scrape("obs.selfscrape", 5 * util::kNanosPerMilli, registry_source(reg, clock, {}),
                  [&](const std::string& body) -> util::Status {
                    EXPECT_NE(body.find("ticks"), std::string::npos);
                    ++writes;
                    return util::Status();
                  });
  core::TaskScheduler::Options sched_opts;
  sched_opts.workers = 1;
  sched_opts.name = "test.obs.sched";
  core::TaskScheduler sched(sched_opts);
  scrape.attach(sched);
  EXPECT_TRUE(scrape.attached());
  const util::TimeNs deadline = util::monotonic_now_ns() + 2 * util::kNanosPerSecond;
  while (writes.load() < 2 && util::monotonic_now_ns() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  scrape.detach();
  EXPECT_FALSE(scrape.attached());
  EXPECT_GE(writes.load(), 2);

  // detach() exports once more. With an interval no periodic run reaches,
  // that final export is the only write, for every source.
  ExportSources sources;
  for (ExportSources::Named& named : sources.all()) {
    std::vector<std::string> bodies;
    Exporter exporter(named.task, util::kNanosPerHour, std::move(named.source),
                      [&](const std::string& body) -> util::Status {
                        bodies.push_back(body);
                        return util::Status();
                      });
    exporter.attach(sched);
    exporter.detach();
    ASSERT_EQ(bodies.size(), 1u) << named.task;
    EXPECT_EQ(bodies[0].rfind(named.measurement, 0), 0u) << named.task;
    EXPECT_GT(exporter.points_exported(), 0u) << named.task;
  }
}

TEST(ObsIntegration, TcpTracePropagationAndClientMetrics) {
  Registry server_reg;
  net::TcpHttpServer::Options srv_opts;
  srv_opts.registry = &server_reg;
  net::TcpHttpServer server(
      [](const net::HttpRequest&) { return net::HttpResponse::text(200, "ok"); }, srv_opts);
  ASSERT_TRUE(server.start().ok());

  Registry client_reg;
  net::TcpHttpClient::Options cl_opts;
  cl_opts.registry = &client_reg;
  net::TcpHttpClient client(cl_opts);

  SpanRecorder::global().clear();
  auto resp = client.get(server.url() + "/hello");
  server.stop();
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 200);

  // Client and server spans (different threads) joined one trace over the
  // X-LMS-Trace header.
  std::uint64_t trace_id = 0;
  for (const auto& s : SpanRecorder::global().recent(16)) {
    if (s.name.find("http.client") != std::string::npos) trace_id = s.trace_id;
  }
  ASSERT_NE(trace_id, 0u);
  const auto spans = SpanRecorder::global().by_trace(trace_id);
  bool server_span = false;
  for (const auto& s : spans) {
    if (s.name.find("http.server") != std::string::npos) server_span = true;
  }
  EXPECT_TRUE(server_span);

  // Both sides counted the request in their registries.
  bool client_counted = false;
  for (const Sample& s : client_reg.collect()) {
    if (s.name == "http_client_requests" && s.value == 1) client_counted = true;
  }
  EXPECT_TRUE(client_counted);
  bool server_counted = false;
  for (const Sample& s : server_reg.collect()) {
    if (s.name == "http_server_requests" && s.value == 1) server_counted = true;
  }
  EXPECT_TRUE(server_counted);
}

TEST(ObsIntegration, TraceExporterLandsSpansInTsdbAndTraceEndpointAssembles) {
  MiniStack stack;
  SpanRecorder recorder(64);
  std::uint64_t trace_id = 0;
  {
    Span root("selftest.root", "test", &recorder);
    trace_id = root.context().trace_id;
    Span child("selftest.child", "test", &recorder);
    child.set_note("points=3");
  }
  ASSERT_EQ(recorder.size(), 2u);

  Exporter exporter("obs.traceexport", 0, span_source(recorder, "h1"),
                    stack.write_to_router());
  ASSERT_TRUE(exporter.export_once().ok());
  EXPECT_EQ(exporter.exports(), 1u);
  EXPECT_EQ(exporter.points_exported(), 2u);
  EXPECT_EQ(exporter.points_dropped(), 0u);
  EXPECT_EQ(recorder.size(), 0u);  // drained, not evicted
  // The export write itself ran under a TraceSuppressGuard: no spans about
  // exporting spans showed up in the recorder afterwards.
  EXPECT_EQ(recorder.recorded(), 2u);

  // The spans are regular lms_traces points now; /trace/<id> on the TSDB
  // API stitches them back into one tree.
  auto resp = stack.client.get("inproc://tsdb/trace/" + trace_id_hex(trace_id));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 200);
  EXPECT_NE(resp->body.find("selftest.root"), std::string::npos);
  EXPECT_NE(resp->body.find("selftest.child"), std::string::npos);
  EXPECT_NE(resp->body.find("points=3"), std::string::npos);

  auto waterfall =
      stack.client.get("inproc://tsdb/trace/" + trace_id_hex(trace_id) + "?format=waterfall");
  ASSERT_TRUE(waterfall.ok());
  EXPECT_EQ(waterfall->status, 200);
  EXPECT_NE(waterfall->body.find("selftest.root"), std::string::npos);

  auto bad = stack.client.get("inproc://tsdb/trace/nothex");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->status, 400);
  auto missing = stack.client.get("inproc://tsdb/trace/00000000000000ff");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 200);  // empty trace: a tree with zero spans
  EXPECT_NE(missing->body.find("\"span_count\":0"), std::string::npos);

  // Exporting with nothing pending is OK and writes nothing.
  ASSERT_TRUE(exporter.export_once().ok());
  EXPECT_EQ(exporter.points_exported(), 2u);
}

TEST(ObsIntegration, TraceExporterCountsFailedWritesAndDropsSpans) {
  ExportSources sources;
  for (ExportSources::Named& named : sources.all()) {
    std::size_t produced = 0;
    Exporter exporter(
        named.task, 0,
        [&produced, source = std::move(named.source)] {
          std::vector<lineproto::Point> points = source();
          produced = points.size();
          return points;
        },
        [](const std::string&) { return util::Status::error("stack unreachable"); });
    EXPECT_FALSE(exporter.export_once().ok()) << named.task;
    EXPECT_GT(produced, 0u) << named.task;
    EXPECT_EQ(exporter.failures(), 1u) << named.task;
    EXPECT_EQ(exporter.points_dropped(), produced) << named.task;
    EXPECT_EQ(exporter.points_exported(), 0u) << named.task;
  }
  EXPECT_EQ(sources.recorder.size(), 0u);  // not re-queued: the ring would re-evict
}

// Exports travel through the router like any batch, but under a
// TraceSuppressGuard: no source may write spans about exporting telemetry
// into the process-wide recorder (which would feed back into lms_traces).
TEST(ObsIntegration, ExportsThroughRouterRecordNoSpans) {
  const double prev = trace_sample_rate();
  set_trace_sample_rate(1.0);
  MiniStack stack;
  ExportSources sources;
  const std::uint64_t before = SpanRecorder::global().recorded();
  for (ExportSources::Named& named : sources.all()) {
    Exporter exporter(named.task, 0, std::move(named.source), stack.write_to_router());
    EXPECT_TRUE(exporter.export_once().ok()) << named.task;
    EXPECT_GT(exporter.points_exported(), 0u) << named.task;
    EXPECT_EQ(SpanRecorder::global().recorded(), before) << named.task;
  }
  set_trace_sample_rate(prev);
}

TEST(ObsIntegration, HistogramExemplarLinksSlowObservationToTrace) {
  const double prev = trace_sample_rate();
  set_trace_sample_rate(1.0);
  Registry reg;
  Histogram& h = reg.histogram("write_ns");
  h.enable_exemplar();

  SpanRecorder recorder(16);
  std::uint64_t slow_trace = 0;
  {
    Span s("slow write", "test", &recorder);
    slow_trace = s.context().trace_id;
    h.record(5000);
  }
  {
    Span s("fast write", "test", &recorder);
    h.record(10);  // smaller: must not displace the slow exemplar
  }
  const Histogram::Exemplar ex = h.exemplar();
  EXPECT_EQ(ex.trace_id, slow_trace);
  EXPECT_EQ(ex.value, 5000u);

  const std::string text = render_text(reg);
  EXPECT_NE(text.find("write_ns_exemplar{trace_id=\"" + trace_id_hex(slow_trace) + "\"} 5000"),
            std::string::npos);

  h.reset_exemplar();
  EXPECT_EQ(h.exemplar().trace_id, 0u);
  // Without an active sampled trace no exemplar is captured (it would dangle).
  h.record(9000);
  EXPECT_EQ(h.exemplar().trace_id, 0u);
  EXPECT_EQ(render_text(reg).find("_exemplar"), std::string::npos);
  set_trace_sample_rate(prev);
}

TEST(ObsIntegration, ScopedTraceMetricsUnregistersOnDestruction) {
  Registry reg;
  SpanRecorder recorder(8);
  {
    ScopedTraceMetrics scoped(reg, recorder);
    {
      Span s("one", "test", &recorder);
    }
    EXPECT_NE(render_text(reg).find("trace_spans_retained 1\n"), std::string::npos);
  }
  EXPECT_EQ(render_text(reg).find("trace_spans_retained"), std::string::npos);
}

// Concurrency stress for the tracing pipeline, sized for the sanitizer jobs
// in ci/sanitize.sh: parallel span producers (nested spans, errors, notes)
// race an exporter draining the shared ring while another thread flips the
// sampling rate. TSan watches the recorder/exporter locks, ASan the span
// string handling.
TEST(TracingStress, ConcurrentProducersExporterAndSamplingFlips) {
  const double prev = trace_sample_rate();
  SpanRecorder recorder(256);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> produced{0};

  std::vector<std::thread> producers;
  for (int t = 0; t < 4; ++t) {
    producers.emplace_back([&recorder, &produced, t] {
      for (int i = 0; i < 2000; ++i) {
        Span outer("stress.outer", "test", &recorder);
        Span inner("stress.inner." + std::to_string(t), "test", &recorder);
        if (i % 7 == 0) inner.set_ok(false);
        if (i % 5 == 0) inner.set_note("iteration=" + std::to_string(i));
        produced.fetch_add(2);
      }
    });
  }

  std::atomic<std::uint64_t> exported_bytes{0};
  Exporter exporter("obs.traceexport", 0, span_source(recorder, ""),
                    [&exported_bytes](const std::string& body) {
                      exported_bytes.fetch_add(body.size());
                      return util::Status();
                    });
  std::thread drainer([&] {
    while (!stop.load()) {
      (void)exporter.export_once();
    }
    (void)exporter.export_once();  // final sweep
  });
  std::thread sampler([&] {
    while (!stop.load()) {
      set_trace_sample_rate(0.5);
      set_trace_sample_rate(1.0);
    }
    set_trace_sample_rate(1.0);
  });

  for (auto& th : producers) th.join();
  stop.store(true);
  drainer.join();
  sampler.join();

  // Conservation: every produced span was recorded or head-dropped, and every
  // recorded span was exported, evicted, or still sits in the ring.
  EXPECT_LE(recorder.recorded(), produced.load());
  EXPECT_EQ(recorder.recorded(),
            exporter.points_exported() + recorder.evicted() + recorder.size());
  EXPECT_GT(exporter.points_exported(), 0u);
  EXPECT_GT(exported_bytes.load(), 0u);
  set_trace_sample_rate(prev);
}

// ------------------------------------------------------- runtime export

TEST(RuntimeExport, BuildInfoGaugeCarriesConfiguration) {
  Registry reg;
  register_build_info(reg);
  const std::string text = render_text(reg);
  EXPECT_NE(text.find("lms_build_info{"), std::string::npos);
  EXPECT_NE(text.find("build_type="), std::string::npos);
  EXPECT_NE(text.find("lock_stats="), std::string::npos);
  EXPECT_NE(text.find("rank_checks="), std::string::npos);
  const BuildInfo info = build_info();
  EXPECT_FALSE(info.compiler.empty());
  EXPECT_FALSE(info.build_type.empty());
  EXPECT_FALSE(build_info_summary().empty());
}

TEST(RuntimeExport, UpdateRuntimeMetricsExportsQueuesAndLoops) {
  util::BoundedQueue<int> q(8, "obs.test.queue");
  core::runtime::LoopStats loop("obs.test.loop");
  {
    const core::runtime::BusyScope busy(loop);
  }
  ASSERT_TRUE(q.push(1));

  Registry reg;
  update_runtime_metrics(reg);
  const std::string text = render_text(reg);
  EXPECT_NE(text.find("lms_runtime_queue_depth{queue=\"obs.test.queue\"}"), std::string::npos);
  EXPECT_NE(text.find("lms_runtime_queue_capacity{queue=\"obs.test.queue\"}"), std::string::npos);
  EXPECT_NE(text.find("lms_runtime_queue_pushes_total{queue=\"obs.test.queue\"}"),
            std::string::npos);
  EXPECT_NE(text.find("lms_runtime_loop_iterations_total{loop=\"obs.test.loop\"}"),
            std::string::npos);
  EXPECT_NE(text.find("lms_runtime_loop_duty_pct{loop=\"obs.test.loop\"}"), std::string::npos);
  EXPECT_NE(text.find("lms_lock_stats_enabled"), std::string::npos);
  // Per-site lock series only exist when the binary carries the
  // instrumented wrappers (-DLMS_LOCK_STATS=ON CI pass).
  if constexpr (core::sync::kLockStatsEnabled) {
    EXPECT_NE(text.find("lms_lock_acquisitions_total"), std::string::npos);
    EXPECT_NE(text.find("lms_lock_wait_ns_total"), std::string::npos);
  }
}

TEST(RuntimeExport, RefreshedGaugesTrackCounters) {
  util::BoundedQueue<int> q(4, "obs.test.refresh");
  Registry reg;
  update_runtime_metrics(reg);
  ASSERT_TRUE(q.push(1));
  ASSERT_TRUE(q.push(2));
  update_runtime_metrics(reg);  // plain gauges are re-set on every update
  const std::string text = render_text(reg);
  EXPECT_NE(text.find("lms_runtime_queue_depth{queue=\"obs.test.refresh\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("lms_runtime_queue_high_watermark{queue=\"obs.test.refresh\"} 2"),
            std::string::npos);
}

}  // namespace
}  // namespace lms::obs

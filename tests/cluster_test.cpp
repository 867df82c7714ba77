// Tests for the cluster module: the miniMD proxy's physics, the workload
// library's profiles, and the harness's basic lifecycle.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <set>

#include "lms/cluster/harness.hpp"
#include "lms/cluster/minimd.hpp"
#include "lms/cluster/workload.hpp"
#include "lms/tsdb/trace_assembly.hpp"

namespace lms::cluster {
namespace {

using util::kNanosPerMinute;
using util::kNanosPerSecond;

// ---------------------------------------------------------------- minimd

TEST(MiniMdTest, InitialConditions) {
  MiniMd md(MiniMd::Params{}, 1);
  EXPECT_EQ(md.natoms(), 4 * 4 * 4 * 4);  // fcc, 4 cells/side
  // Initial kinetic temperature matches the requested one.
  EXPECT_NEAR(md.temperature(), 1.44, 1e-9);
  // LJ fcc lattice at rho=0.8442 has large negative potential energy.
  EXPECT_LT(md.potential_energy(), -4.0);
  EXPECT_GT(md.box_length(), 0.0);
}

TEST(MiniMdTest, VelocityVerletConservesEnergyApproximately) {
  MiniMd md(MiniMd::Params{}, 2);
  md.step(20);  // settle past the first few steps
  const double e0 = md.total_energy();
  md.step(100);
  const double e1 = md.total_energy();
  // Reduced-unit LJ with dt=0.005: drift well under 1% over 100 steps.
  EXPECT_NEAR(e1, e0, std::abs(e0) * 0.01);
  EXPECT_EQ(md.steps_done(), 120);
}

TEST(MiniMdTest, EquilibratesToPositiveObservables) {
  MiniMd md(MiniMd::Params{}, 3);
  md.step(150);
  // After equilibration half the initial kinetic energy went into potential;
  // temperature stays positive and finite, pressure is finite.
  EXPECT_GT(md.temperature(), 0.2);
  EXPECT_LT(md.temperature(), 2.0);
  EXPECT_TRUE(std::isfinite(md.pressure()));
  EXPECT_TRUE(std::isfinite(md.total_energy()));
}

TEST(MiniMdTest, DeterministicForSeed) {
  MiniMd a(MiniMd::Params{}, 7);
  MiniMd b(MiniMd::Params{}, 7);
  a.step(50);
  b.step(50);
  EXPECT_DOUBLE_EQ(a.total_energy(), b.total_energy());
  EXPECT_DOUBLE_EQ(a.pressure(), b.pressure());
}

// ---------------------------------------------------------------- workloads

TEST(WorkloadFactory, AllNamesConstruct) {
  for (const auto& name : workload_names()) {
    auto w = make_workload(name, 1);
    ASSERT_NE(w, nullptr) << name;
    EXPECT_EQ(w->name(), name);
  }
  EXPECT_EQ(make_workload("not_a_workload", 1), nullptr);
}

TEST(WorkloadProfiles, MatchIntent) {
  const auto& arch = hpm::simx86();
  util::Rng rng(1);
  const util::TimeNs t = kNanosPerMinute;

  auto act = make_workload("dgemm", 1)->activity(0, 1, t, arch, rng);
  // Compute bound: high flops, low membw.
  EXPECT_GT(act.hpm.cores[0].flops_dp_per_sec, 0.5 * arch.peak_dp_flops_per_core);
  EXPECT_LT(act.hpm.sockets[0].mem_read_bw_bytes_per_sec +
                act.hpm.sockets[0].mem_write_bw_bytes_per_sec,
            0.3 * arch.peak_mem_bw_per_socket);

  act = make_workload("stream", 1)->activity(0, 1, t, arch, rng);
  EXPECT_GT(act.hpm.sockets[0].mem_read_bw_bytes_per_sec +
                act.hpm.sockets[0].mem_write_bw_bytes_per_sec,
            0.7 * arch.peak_mem_bw_per_socket);

  act = make_workload("idle", 1)->activity(0, 1, t, arch, rng);
  EXPECT_LT(act.kernel.cpu_user_fraction, 0.05);

  act = make_workload("scalar", 1)->activity(0, 1, t, arch, rng);
  EXPECT_LT(act.hpm.cores[0].dp_simd_fraction, 0.1);

  act = make_workload("latency", 1)->activity(0, 1, t, arch, rng);
  EXPECT_LT(act.hpm.cores[0].ipc, 0.5);
}

TEST(WorkloadProfiles, ComputeBreakPhases) {
  auto w = make_workload("compute_break", 1);
  const auto& arch = hpm::simx86();
  util::Rng rng(1);
  // Break is minutes 10..22.
  auto before = w->activity(0, 4, 5 * kNanosPerMinute, arch, rng);
  auto during = w->activity(0, 4, 15 * kNanosPerMinute, arch, rng);
  auto after = w->activity(0, 4, 30 * kNanosPerMinute, arch, rng);
  EXPECT_GT(before.kernel.cpu_user_fraction, 0.9);
  EXPECT_LT(during.kernel.cpu_user_fraction, 0.1);
  EXPECT_GT(after.kernel.cpu_user_fraction, 0.9);
  EXPECT_LT(during.hpm.cores[0].flops_dp_per_sec, 1.0);
}

TEST(WorkloadProfiles, ImbalancedNodeZeroHeavy) {
  auto w = make_workload("imbalanced", 1);
  const auto& arch = hpm::simx86();
  util::Rng rng(1);
  auto heavy = w->activity(0, 4, kNanosPerMinute, arch, rng);
  auto light = w->activity(2, 4, kNanosPerMinute, arch, rng);
  EXPECT_GT(heavy.hpm.cores[0].flops_dp_per_sec, 3 * light.hpm.cores[0].flops_dp_per_sec);
}

TEST(WorkloadProfiles, MemleakGrowsOverTime) {
  auto w = make_workload("memleak", 1);
  const auto& arch = hpm::simx86();
  util::Rng rng(1);
  auto early = w->activity(0, 1, kNanosPerMinute, arch, rng);
  auto late = w->activity(0, 1, 100 * kNanosPerMinute, arch, rng);
  EXPECT_GT(late.kernel.mem_used_bytes, early.kernel.mem_used_bytes + 1e9);
}

// ---------------------------------------------------------------- harness

TEST(HarnessTest, JobLifecycleAndRecords) {
  ClusterHarness::Options opts;
  opts.nodes = 3;
  ClusterHarness harness(opts);
  EXPECT_EQ(harness.node_names(), (std::vector<std::string>{"h1", "h2", "h3"}));

  const int job = harness.submit("dgemm", "alice", 2, 3 * kNanosPerMinute);
  EXPECT_GT(job, 0);
  EXPECT_EQ(harness.submit("not_a_workload", "x", 1, kNanosPerMinute), -1);

  ASSERT_TRUE(harness.run_until_done(job, 10 * kNanosPerMinute));
  const auto* record = harness.job_record(job);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->workload, "dgemm");
  EXPECT_EQ(record->user, "alice");
  EXPECT_EQ(record->nodes.size(), 2u);
  EXPECT_GT(record->end_time, record->start_time);
  // ~3 simulated minutes.
  EXPECT_NEAR(util::ns_to_seconds(record->end_time - record->start_time), 180.0, 5.0);
}

TEST(HarnessTest, MetricsFlowEndToEnd) {
  ClusterHarness::Options opts;
  opts.nodes = 2;
  ClusterHarness harness(opts);
  const int job = harness.submit("stream", "bob", 2, 5 * kNanosPerMinute);
  harness.run_for(2 * kNanosPerMinute);

  // System + HPM measurements for the job exist and carry the job tags.
  tsdb::Database* db = harness.storage().find_database("lms");
  ASSERT_NE(db, nullptr);
  const std::string job_str = std::to_string(job);
  EXPECT_FALSE(db->series_matching("cpu", {{"jobid", job_str}}).empty());
  EXPECT_FALSE(db->series_matching("memory", {{"jobid", job_str}}).empty());
  EXPECT_FALSE(db->series_matching("likwid_mem_dp", {{"jobid", job_str}}).empty());
  EXPECT_FALSE(
      db->series_matching("likwid_mem_dp", {{"user", "bob"}, {"hostname", "h1"}}).empty());
  // Job start annotation event present.
  EXPECT_FALSE(db->series_matching("events", {{"jobid", job_str}}).empty());

  // The bandwidth measured via the full pipeline matches the stream profile
  // (~85% of peak).
  const auto series =
      harness.fetcher().fetch_host({"likwid_mem_dp", "memory_bandwidth_mbytes_per_s"}, "h1",
                                   job_str, 0, harness.now());
  ASSERT_TRUE(series.ok());
  ASSERT_FALSE(series->empty());
  const auto& arch = *harness.options().arch;
  const double peak_mb = arch.peak_mem_bw_per_socket * arch.sockets / 1e6;
  EXPECT_NEAR(series->mean(), 0.85 * peak_mb, 0.08 * peak_mb);
}

TEST(HarnessTest, QueueingWhenClusterFull) {
  ClusterHarness::Options opts;
  opts.nodes = 2;
  ClusterHarness harness(opts);
  const int a = harness.submit("dgemm", "alice", 2, 2 * kNanosPerMinute);
  const int b = harness.submit("stream", "bob", 2, 2 * kNanosPerMinute);
  harness.run_for(30 * kNanosPerSecond);
  EXPECT_EQ(harness.scheduler().running().size(), 1u);
  EXPECT_EQ(harness.scheduler().pending().size(), 1u);
  ASSERT_TRUE(harness.run_until_done(b, 10 * kNanosPerMinute));
  EXPECT_NE(harness.job_record(a), nullptr);
  EXPECT_NE(harness.job_record(b), nullptr);
  // b started only after a finished.
  EXPECT_GE(harness.job_record(b)->start_time, harness.job_record(a)->end_time);
}

TEST(HarnessTest, IdleNodesStayQuiet) {
  ClusterHarness::Options opts;
  opts.nodes = 2;
  ClusterHarness harness(opts);
  const int job = harness.submit("dgemm", "alice", 1, 5 * kNanosPerMinute);
  harness.run_for(2 * kNanosPerMinute);
  // Node h2 idles: its CPU metric is near zero, and unlike h1 it carries no
  // job tag.
  const auto busy_host = harness.job_record(job)->nodes[0];
  const std::string idle_host = busy_host == "h1" ? "h2" : "h1";
  auto idle_cpu = harness.fetcher().fetch({"cpu", "user_percent"},
                                          {{"hostname", idle_host}}, 0, harness.now());
  ASSERT_TRUE(idle_cpu.ok());
  ASSERT_FALSE(idle_cpu->empty());
  EXPECT_LT(idle_cpu->mean(), 5.0);
  tsdb::Database* db = harness.storage().find_database("lms");
  EXPECT_TRUE(db->series_matching("cpu", {{"hostname", idle_host},
                                          {"jobid", std::to_string(job)}})
                  .empty());
}

TEST(HarnessTest, PerUserDuplicationOption) {
  ClusterHarness::Options opts;
  opts.nodes = 2;
  opts.duplicate_per_user = true;
  ClusterHarness harness(opts);
  harness.submit("minimd", "carol", 2, 3 * kNanosPerMinute);
  harness.run_for(kNanosPerMinute);
  tsdb::Database* user_db = harness.storage().find_database("user_carol");
  ASSERT_NE(user_db, nullptr);
  EXPECT_GT(user_db->sample_count(), 0u);
}

TEST(HarnessTest, SelfScrapeFeedsLmsInternal) {
  ClusterHarness::Options opts;
  opts.nodes = 2;
  opts.enable_self_scrape = true;
  ClusterHarness harness(opts);
  harness.submit("minimd", "alice", 2, 3 * kNanosPerMinute);
  harness.run_for(5 * kNanosPerMinute);

  ASSERT_NE(harness.self_scrape(), nullptr);
  EXPECT_GE(harness.self_scrape()->exports(), 4u);
  EXPECT_EQ(harness.self_scrape()->failures(), 0u);

  // The registry snapshots flowed through the router into the lms database
  // and are queryable like any measurement: the router's own ingest counter
  // grows over sim time.
  auto series = tsdb::Engine(harness.storage())
                    .query("lms",
                           "SELECT last(value) FROM lms_internal WHERE "
                           "metric='router_points_in'",
                           harness.now());
  ASSERT_TRUE(series.ok());
  ASSERT_FALSE(series->series.empty());
  ASSERT_FALSE(series->series[0].values.empty());
  EXPECT_GT(series->series[0].values[0][1].as_double(), 0.0);

  // Per-node collector gauges carry the hostname label into tags.
  tsdb::Database* db = harness.storage().find_database("lms");
  ASSERT_NE(db, nullptr);
  EXPECT_FALSE(db->series_matching("lms_internal",
                                   {{"metric", "collector_points_collected"},
                                    {"hostname", "h1"}})
                   .empty());
  // The internals dashboard renders from the same measurement.
  const auto dash = harness.dashboards().generate_internals_dashboard(harness.now());
  EXPECT_NE(harness.dashboards().find_dashboard("internals"), nullptr);
  EXPECT_NE(dash.dump().find("lms_internal"), std::string::npos);
}

TEST(HarnessTest, DistributedTraceCoversCollectorRouterAndTsdb) {
  ClusterHarness::Options opts;
  opts.nodes = 2;
  opts.enable_tracing = true;
  opts.async_ingest = true;  // spans must survive the queued write path
  ClusterHarness harness(opts);
  obs::SpanRecorder::global().clear();

  harness.submit("dgemm", "alice", 2, 5 * kNanosPerMinute);
  harness.run_for(3 * opts.collect_interval);  // a few delivery cycles
  ASSERT_NE(harness.trace_exporter(), nullptr);
  const std::size_t exported = harness.drain_traces();
  EXPECT_GT(exported, 0u);

  // Every collector flush opens a root span; the batch carries its context
  // through the router's async ingest queue into the TSDB append. Find a
  // flush whose trace covers all three processes.
  std::set<std::string> best_components;
  std::uint64_t full_trace = 0;
  {
    // Scoped: the snapshot's shard locks must be released before the HTTP
    // requests below — the inproc handlers run on this thread and take
    // their own snapshot of the same storage (the lock-rank checker flags
    // holding tsdb.shard while entering the transport).
    const tsdb::ReadSnapshot snap = harness.storage().snapshot("lms");
    ASSERT_TRUE(snap);
    for (const tsdb::Series* s : snap->series_matching(std::string(obs::kTraceMeasurement),
                                                       {{"component", "collector"}})) {
      const auto id = obs::parse_trace_id_hex(s->tag("trace_id"));
      if (!id) continue;
      const tsdb::TraceTree tree = tsdb::assemble_trace(snap, *id);
      std::set<std::string> components;
      std::function<void(const tsdb::TraceNode&)> visit = [&](const tsdb::TraceNode& n) {
        components.insert(n.component);
        for (const auto& c : n.children) visit(c);
      };
      for (const auto& r : tree.roots) visit(r);
      if (components.count("collector") != 0u && components.count("router") != 0u &&
          components.count("tsdb") != 0u) {
        best_components = components;
        full_trace = *id;
        break;
      }
    }
  }
  ASSERT_NE(full_trace, 0u) << "no collector flush trace reached the TSDB";
  EXPECT_GE(best_components.size(), 3u);

  // The same story through the HTTP surfaces: the TSDB serves the tree, the
  // dashboard agent renders the waterfall page.
  const std::string hex = obs::trace_id_hex(full_trace);
  auto api = harness.client().get("inproc://tsdb/trace/" + hex);
  ASSERT_TRUE(api.ok());
  EXPECT_EQ(api->status, 200);
  EXPECT_NE(api->body.find("collector.flush"), std::string::npos);
  EXPECT_NE(api->body.find("tsdb.write"), std::string::npos);

  auto page = harness.client().get("inproc://grafana/trace/" + hex);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->status, 200);
  EXPECT_NE(page->headers.get_or("Content-Type", "").find("text/html"), std::string::npos);
  EXPECT_NE(page->body.find("collector.flush"), std::string::npos);
}

TEST(HarnessTest, BackpressuredWriteProducesErrorSpan) {
  // A router with room for a single point rejects a two-point batch with
  // 429 + Retry-After, and the router.write span records the backpressure.
  util::SimClock clock(0);
  net::InprocNetwork network;
  net::InprocHttpClient client(network);
  tsdb::Storage storage;
  tsdb::HttpApi db_api(storage, clock);
  network.bind("tsdb", db_api.handler());
  core::MetricsRouter::Options router_opts;
  router_opts.db_url = "inproc://tsdb";
  router_opts.async_ingest = true;
  router_opts.ingest_queue_capacity = 1;
  core::MetricsRouter router(client, clock, router_opts, nullptr);
  network.bind("router", router.handler());

  obs::SpanRecorder::global().clear();
  auto resp = client.post("inproc://router/write?db=lms",
                          "cpu,hostname=h1 v=1 10\ncpu,hostname=h1 v=2 20\n", "text/plain");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 429);
  EXPECT_FALSE(resp->headers.get_or("Retry-After", "").empty());
  EXPECT_EQ(router.stats().ingest_rejected, 2u);

  bool found = false;
  for (const auto& s : obs::SpanRecorder::global().recent(16)) {
    if (s.name == "router.write" && s.note == "error=backpressure") {
      EXPECT_FALSE(s.ok);
      found = true;
    }
  }
  EXPECT_TRUE(found) << "no router.write span tagged error=backpressure";
}

}  // namespace
}  // namespace lms::cluster

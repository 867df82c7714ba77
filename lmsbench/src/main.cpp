// lms_bench: end-to-end benchmark of the LIKWID Monitoring Stack.
//
//   lms_bench --workload ingest|dashboard --seed N --seconds S
//             --trace 0|1 [--work-dir DIR]
//
// --trace 0 times the workload and prints the end-to-end metrics; --trace 1
// replays every stage on the same seeded inputs under spans and prints the
// per-layer ledger. The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "ledger.hpp"
#include "lms/tsdb/persist.hpp"
#include "model.hpp"
#include "runner.hpp"
#include "stack.hpp"

#ifndef LMS_BUILD_TYPE_NAME
#define LMS_BUILD_TYPE_NAME "unknown"
#endif

namespace lmsbench {
namespace {

/// Set-up is repeated and its median reported, so that work moved into
/// set-up shows against a steady figure.
constexpr int kSetupReps = 3;

struct Workload {
  const char* name;
  /// Share of every slice spent writing; the rest loads dashboards.
  double write_share;
  /// Writes and loads the traced run replays stage by stage, each twice
  /// (with and without spans), and writes it posts to the async router.
  int replay_writes;
  int replay_loads;
};

// Why these two: see lmsbench/README.md. Each spends three quarters of every
// slice on its own path and the rest on the other one, so every end-to-end
// metric exists on every workload.
const Workload kWorkloads[] = {
    {"ingest", 0.75, 2048, 16},
    {"dashboard", 0.25, 2048, 16},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else if (k == "--work-dir") {
      a.work_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0 : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den != 0 ? num / den : 0; }

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string number(double v) {
  std::string s;
  append_number(s, v);
  return s;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

void print_result(bool correct, const Tally& t, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(t.attempted) +
                    ", \"failed\": " + std::to_string(t.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += quoted(metrics[i].name) + ": {\"value\": " + number(metrics[i].value) +
           ", \"unit\": " + quoted(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

/// Sum and count of every instrument of one histogram family.
std::pair<double, double> histogram_family(const lms::obs::Registry& reg, std::string_view name) {
  double sum = 0;
  double count = 0;
  for (const auto& s : reg.collect()) {
    if (s.name == name && s.kind == lms::obs::Sample::Kind::kHistogram) {
      sum += static_cast<double>(s.histogram.sum);
      count += static_cast<double>(s.histogram.count);
    }
  }
  return {sum, count};
}

double counter(lms::obs::Registry& reg, std::string_view name) {
  return static_cast<double>(reg.counter(name).value());
}

/// End-to-end metrics of an untraced run.
std::vector<Metric> end_to_end(const Tally& t, const std::vector<double>& setup_s,
                               double mem_bytes_per_sample) {
  return {
      {"setup_s", median(setup_s), "s"},
      {"ingest_pts_per_s", t.windowed_median(&Window::pts_per_s), "1/s"},
      {"ingest_cpu_us_per_pt", t.windowed_median(&Window::cpu_us_per_pt), "us"},
      {"write_p50_ms", t.windowed_median(&Window::write_ms), "ms"},
      {"dash_load_p50_ms", t.windowed_median(&Window::load_ms), "ms"},
      {"query_p50_ms", t.windowed_median(&Window::query_ms), "ms"},
      {"mem_bytes_per_sample", mem_bytes_per_sample, "B"},
  };
}

/// Per-layer metrics of a traced run: stage replays, transport probes and
/// the stack's own registry after the closed loop.
std::vector<Metric> per_layer(const Workload& w, Stack& stack, const SpanRecorder& rec,
                              const Runner::Replay& r, const Runner::AsyncIngest& async,
                              const Tally& plain) {
  const auto layers = rec.layers();
  const auto layer = [&](const char* name) {
    const auto it = layers.find(name);
    return it != layers.end() ? it->second : SpanRecorder::Layer{};
  };
  const auto ns = [&](const char* name) { return static_cast<double>(layer(name).total_ns); };
  const auto allocs = [&](const char* name) { return static_cast<double>(layer(name).allocs); };
  const auto per_call = [&](const char* name) {
    return ratio(ns(name), static_cast<double>(layer(name).count));
  };
  lms::obs::Registry& reg = stack.registry();
  const double points_in = counter(reg, "router_points_in");
  const double write_ns = static_cast<double>(reg.histogram("router_write_ns").sum());
  const double forward_ns = static_cast<double>(reg.histogram("router_forward_ns").sum());
  const auto [client_ns, client_reqs] = histogram_family(reg, "http_client_request_ns");
  const auto& query_hist = reg.histogram("tsdb_query_ns");

  // Coverage: the replayed stages of the workload's main operation against
  // the same operation through the stack, untraced. Overhead: the replayed
  // operations under spans against the ones in between without.
  const bool writes = w.write_share >= 0.5;
  const double replay_op = per_call(writes ? "op.write" : "op.dash_load");
  const double real_op = mean(plain.all(writes ? &Window::write_ms : &Window::load_ms)) * 1e6;
  const double coverage = ratio(replay_op, real_op);
  const Runner::OpTimes& times = writes ? r.write_times : r.load_times;
  const double traced_op = ratio(static_cast<double>(times.traced_ns),
                                 static_cast<double>(times.traced));
  const double plain_op = ratio(static_cast<double>(times.plain_ns),
                                static_cast<double>(times.plain));
  const double overhead_pct = ratio(traced_op - plain_op, plain_op) * 100;
  const double evaluate_ms = per_call("analysis.evaluate") / 1e6;

  std::printf("ledger: coverage %.3f (%s replay %.0f ns vs %.0f ns untraced through the "
              "stack); tracing overhead %.2f %% (%.0f ns traced vs %.0f ns)\n",
              coverage, writes ? "write" : "dashboard load", replay_op, real_op, overhead_pct,
              traced_op, plain_op);
  std::printf("%-22s %8s %12s %12s %10s\n", "span", "calls", "total_ms", "self_ms", "allocs");
  for (const auto& [name, l] : layers) {
    std::printf("%-22s %8llu %12.3f %12.3f %10llu\n", name.c_str(),
                static_cast<unsigned long long>(l.count), static_cast<double>(l.total_ns) / 1e6,
                static_cast<double>(l.self_ns) / 1e6, static_cast<unsigned long long>(l.allocs));
  }

  const double lines = static_cast<double>(r.lines);
  const double applied = static_cast<double>(r.points_applied);
  const double queries = static_cast<double>(r.queries);
  const double rows = static_cast<double>(r.rows);
  const double examined = static_cast<double>(r.examined);
  return {
      {"lineproto.parse_ns_per_line", ratio(ns("lineproto.parse"), lines), "ns"},
      {"lineproto.serialize_ns_per_line",
       ratio(ns("lineproto.serialize"), static_cast<double>(r.serialized)), "ns"},
      {"lineproto.allocs_per_line",
       ratio(allocs("lineproto.parse") + allocs("lineproto.serialize"), lines), "count"},
      {"core.router_ns_per_pt", ratio(write_ns, points_in), "ns"},
      {"core.router_self_ns_per_pt", ratio(write_ns - forward_ns, points_in), "ns"},
      {"core.enrich_ns_per_pt", ratio(ns("core.enrich"), lines), "ns"},
      {"core.flush_ns_per_pt", ratio(async.flush_ns, async.flushed), "ns"},
      {"core.queue_hwm_pts", async.queue_hwm, "count"},
      {"core.rejected_ratio", ratio(async.rejected, async.points_in), "ratio"},
      {"net.inproc_req_ns", per_call("net.inproc_probe"), "ns"},
      {"net.tcp_req_us", per_call("net.tcp_probe") / 1e3, "us"},
      {"net.http_client_us_per_req", ratio(client_ns, client_reqs) / 1e3, "us"},
      {"tsdb.write_ns_per_pt",
       ratio(static_cast<double>(reg.histogram("tsdb_write_ns").sum()),
             counter(reg, "tsdb_points_written")),
       "ns"},
      {"tsdb.parse_ns_per_line", ratio(ns("tsdb.parse"), applied), "ns"},
      {"tsdb.apply_ns_per_pt", ratio(ns("tsdb.apply"), applied), "ns"},
      {"tsdb.allocs_per_pt", ratio(allocs("tsdb.parse") + allocs("tsdb.apply"), applied), "count"},
      {"tsdb.query_parse_ns", ratio(ns("tsdb.query_parse"), queries), "ns"},
      {"tsdb.snapshot_ns", ratio(ns("tsdb.snapshot"), queries), "ns"},
      {"tsdb.scan_ns_per_sample", ratio(ns("tsdb.execute"), examined), "ns"},
      {"tsdb.json_ns_per_row", ratio(ns("tsdb.json"), rows), "ns"},
      {"tsdb.samples_per_row", ratio(examined, rows), "count"},
      {"tsdb.allocs_per_query", ratio(allocs("tsdb.execute") + allocs("tsdb.json"), queries),
       "count"},
      {"tsdb.query_ns", ratio(static_cast<double>(query_hist.sum()),
                              static_cast<double>(query_hist.count())),
       "ns"},
      {"analysis.evaluate_ms", evaluate_ms, "ms"},
      {"dashboard.generate_ms", per_call("dashboard.generate") / 1e6, "ms"},
      {"dashboard.queries_per_load", ratio(queries, static_cast<double>(r.loads)), "count"},
      {"trace.coverage", coverage, "ratio"},
      {"trace.overhead_pct", overhead_pct, "%"},
  };
}

int run(const Args& args) {
  const Workload* w = nullptr;
  for (const auto& cand : kWorkloads) {
    if (args.workload == cand.name) w = &cand;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Model model(args.seed);
  const std::string snapshot = args.work_dir + "/warm-" + args.workload + "-" +
                               std::to_string(args.seed) + "-" + std::to_string(getpid()) +
                               ".lms";
  const std::unique_ptr<const char, void (*)(const char*)> remove_snapshot(
      snapshot.c_str(), [](const char* p) { std::remove(p); });
  if (!model.write_snapshot(snapshot)) {
    std::fprintf(stderr, "cannot write the warm store to %s\n", snapshot.c_str());
    return 3;
  }

  std::unique_ptr<Stack> stack;
  std::vector<double> setup_s;
  for (int rep = 0; rep < (args.trace ? 1 : kSetupReps); ++rep) {
    stack.reset();
    const std::int64_t t0 = now_ns();
    stack = std::make_unique<Stack>(model, snapshot);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (!stack->error().empty()) {
      std::fprintf(stderr, "set-up failed: %s\n", stack->error().c_str());
      return 3;
    }
  }
  const std::size_t samples = stack->storage().totals().samples;
  const double mem_bytes_per_sample =
      static_cast<double>(mallinfo2().uordblks) / static_cast<double>(samples);

  Runner runner(model, *stack);
  Tally total;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;
  if (!args.trace) {
    total = runner.run(w->write_share, args.seconds);
    problems = runner.check_store(total.fields_acked);
    metrics = end_to_end(total, setup_s, mem_bytes_per_sample);
  } else {
    lms::tsdb::Storage scratch;
    if (auto loaded = lms::tsdb::load_snapshot(scratch, snapshot); !loaded.ok()) {
      std::fprintf(stderr, "scratch store: %s\n", loaded.message().c_str());
      return 3;
    }
    SpanRecorder rec;
    // The untraced loop is the coverage baseline. The stage replay follows
    // it, so replay and loop see an equally warm process.
    total = runner.run(w->write_share, args.seconds);
    const Runner::Replay r = runner.replay(w->replay_writes, w->replay_loads, scratch, rec);
    const Runner::AsyncIngest async =
        runner.replay_async(2 * w->replay_writes, w->replay_writes, scratch, problems);
    runner.probe_transports(2000, 64, rec);
    for (auto& p : runner.check_store(total.fields_acked)) problems.push_back(std::move(p));
    metrics = per_layer(*w, *stack, rec, r, async, total);
    const std::string spans = args.work_dir + "/spans-" + args.workload + ".jsonl";
    if (!rec.write(spans)) std::fprintf(stderr, "cannot write spans to %s\n", spans.c_str());
  }

  for (const auto& e : total.errors) std::fprintf(stderr, "failed op: %s\n", e.c_str());
  for (const auto& p : problems) std::fprintf(stderr, "output check: %s\n", p.c_str());
  total.failed += problems.size();

  std::string setups;
  for (double s : setup_s) setups += (setups.empty() ? "" : ", ") + number(s);
  std::printf(
      "{\"lmsbench\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, \"hosts\": %d, "
      "\"jobs\": %d, \"warm_ticks\": %lld, \"samples_in_store\": %zu, \"lines_per_batch\": %d, "
      "\"fields_per_batch\": %d, \"queries_per_load\": %d, \"write_share\": %s, "
      "\"writes\": %zu, \"loads\": %zu, \"queries\": %zu, "
      "\"client\": \"1 thread, closed loop\", \"hardware_threads\": %u, "
      "\"build_type\": \"%s\", \"setup_s\": [%s]}\n",
      quoted(w->name).c_str(), static_cast<unsigned long long>(args.seed),
      number(args.seconds).c_str(), args.trace ? 1 : 0, kHosts, kJobs,
      static_cast<long long>(kWarmTicks), samples, lines_per_batch(), fields_per_batch(),
      kQueriesPerLoad, number(w->write_share).c_str(), total.all(&Window::write_ms).size(),
      total.all(&Window::load_ms).size(), total.all(&Window::query_ms).size(),
      std::thread::hardware_concurrency(),
      LMS_BUILD_TYPE_NAME, setups.c_str());
  print_result(problems.empty() && total.wrong == 0, total, metrics);
  return 0;
}

}  // namespace
}  // namespace lmsbench

int main(int argc, char** argv) {
  lmsbench::Args args;
  if (!lmsbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: lms_bench --workload ingest|dashboard --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR]\n");
    return 2;
  }
  return lmsbench::run(args);
}

#include "runner.hpp"

#include <algorithm>
#include <cmath>
#include <ctime>
#include <thread>

#include "lms/analysis/fetch.hpp"
#include "lms/analysis/report.hpp"
#include "lms/core/router.hpp"
#include "lms/core/runtime.hpp"
#include "lms/core/taskscheduler.hpp"
#include "lms/hpm/arch.hpp"
#include "lms/json/json.hpp"
#include "lms/lineproto/codec.hpp"
#include "lms/tsdb/http_api.hpp"
#include "lms/tsdb/ingest.hpp"
#include "lms/tsdb/query.hpp"

namespace lmsbench {

namespace net = lms::net;
namespace tsdb = lms::tsdb;
namespace json = lms::json;

namespace {

constexpr const char* kMetricMeasurements[] = {"cpu", "memory", "network", "likwid_mem_dp"};

std::int64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Every target query of a generated job dashboard, in panel order.
std::vector<std::string> panel_queries(const json::Value& dash) {
  std::vector<std::string> out;
  const json::Value& rows = dash["rows"];
  if (!rows.is_array()) return out;
  for (const json::Value& row : rows.get_array()) {
    const json::Value& panels = row["panels"];
    if (!panels.is_array()) continue;
    for (const json::Value& panel : panels.get_array()) {
      const json::Value& targets = panel["targets"];
      if (!targets.is_array()) continue;
      for (const json::Value& target : targets.get_array()) {
        if (target["query"].is_string()) out.push_back(target["query"].get_string());
      }
    }
  }
  return out;
}

net::HttpRequest write_request(std::string body, const std::string& db) {
  net::HttpRequest req = net::HttpRequest::post("/write", std::move(body), "text/plain");
  req.query.set("db", db);
  return req;
}

net::HttpRequest query_request(const std::string& q) {
  net::HttpRequest req = net::HttpRequest::get("/query");
  req.query.set("db", kDb);
  req.query.set("q", q);
  return req;
}

double ms_since(std::int64_t t0) { return static_cast<double>(now_ns() - t0) / 1e6; }

/// Check that every metric series of `db` carries its host's jobid and user
/// (and, in a user_<user> database, belongs to that user). Returns the
/// number of metric series.
std::size_t check_tags(const Model& model, tsdb::Storage& storage, const std::string& db,
                       std::vector<std::string>& problems) {
  const bool user_db = db != kDb;
  std::size_t series = 0;
  const tsdb::ReadSnapshot snap = storage.snapshot(db);
  for (const char* m : kMetricMeasurements) {
    for (const tsdb::Series* s : snap->series_of(m)) {
      ++series;
      const int h = host_index(s->tag("hostname"));
      const int j = h >= 0 ? model.job_of(h) : -1;
      if (j < 0 || s->tag("jobid") != model.job_id(j) || s->tag("user") != model.user_of_job(j) ||
          (user_db && db != "user_" + model.user_of_job(j))) {
        if (problems.size() < 8) {
          problems.push_back("series " + std::string(m) + " of host '" +
                             std::string(s->tag("hostname")) + "' in " + db + " carries jobid='" +
                             std::string(s->tag("jobid")) + "' user='" +
                             std::string(s->tag("user")) + "'");
        }
      }
    }
  }
  return series;
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  if (v.size() % 2 == 1) return *mid;
  return (*mid + *std::max_element(v.begin(), mid)) / 2;
}

std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }
std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

void Tally::fail(std::string why) {
  ++failed;
  if (errors.size() < 8) errors.push_back(std::move(why));
}

void Tally::wrong_answer(std::string why) {
  ++wrong;
  fail(std::move(why));
}

std::vector<double> Tally::all(std::vector<double> Window::*field) const {
  std::vector<double> out;
  for (const Window& w : windows) out.insert(out.end(), (w.*field).begin(), (w.*field).end());
  return out;
}

double Tally::windowed_median(std::vector<double> Window::*field) const {
  double sum = 0;
  int n = 0;
  for (const Window& w : windows) {
    if ((w.*field).empty()) continue;
    sum += median(w.*field);
    ++n;
  }
  return n > 0 ? sum / n : 0;
}

Runner::Runner(const Model& model, Stack& stack)
    : model_(model), stack_(stack), samples_at_start_(stack.storage().totals().samples) {}

Tally Runner::run(double write_share, double seconds) {
  Tally t;
  const std::int64_t start = now_ns();
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  const auto slices = std::max<std::int64_t>(1, std::llround(seconds / kSliceSeconds));
  const auto per_window = std::llround(kWindowSeconds / kSliceSeconds);
  for (std::int64_t k = 0; k < slices; ++k) {
    if (k > 0 && k % per_window == 0) t.windows.emplace_back();
    const std::int64_t slice_end = start + (end - start) * (k + 1) / slices;
    const std::int64_t split =
        slice_end - static_cast<std::int64_t>((1 - write_share) * (end - start) / slices);
    const std::uint64_t lines0 = t.lines_acked;
    const std::int64_t busy0 = t.write_busy_ns;
    measure_cpu(t, [&] { phase_writes(split, t); });
    close_slice(t, lines0, busy0);
    phase_loads(slice_end, t);
  }
  return t;
}

void Runner::close_slice(Tally& t, std::uint64_t lines0, std::int64_t busy0) {
  if (t.write_busy_ns > busy0) {
    t.window().pts_per_s.push_back(static_cast<double>(t.lines_acked - lines0) * 1e9 /
                                   static_cast<double>(t.write_busy_ns - busy0));
  }
}

void Runner::write_op(std::string body, Tally& t) {
  net::HttpRequest req = write_request(std::move(body), kDb);
  ++t.attempted;
  const std::int64_t t0 = now_ns();
  auto resp = stack_.client().send(Stack::kRouterUrl, std::move(req));
  const std::int64_t dt = now_ns() - t0;
  t.write_busy_ns += dt;
  t.window().write_ms.push_back(static_cast<double>(dt) / 1e6);
  if (!resp.ok()) {
    t.fail("write: " + resp.message());
    return;
  }
  if (!resp->ok()) {
    t.fail("write: HTTP " + std::to_string(resp->status) + " " + resp->body.substr(0, 160));
    return;
  }
  t.lines_acked += static_cast<std::uint64_t>(lines_per_batch());
  t.fields_acked += static_cast<std::uint64_t>(fields_per_batch());
}

void Runner::phase_writes(std::int64_t until_ns, Tally& t) {
  constexpr int kChunk = 256;
  std::vector<std::string> bodies;
  while (now_ns() < until_ns) {
    const std::int64_t c0 = thread_cpu_ns();
    bodies.clear();
    for (std::int64_t i = next_write_; i < next_write_ + kChunk; ++i) {
      bodies.push_back(model_.batch(model_.write_host(i), model_.write_tick(i)));
    }
    own_cpu_ns_ += thread_cpu_ns() - c0;
    for (auto& body : bodies) {
      write_op(std::move(body), t);
      ++next_write_;
      if (now_ns() >= until_ns) break;
    }
  }
}

void Runner::dash_load(std::int64_t i, Tally& t) {
  const int j = model_.dash_job(i);
  std::vector<std::string> queries;
  std::vector<int> statuses;  // HTTP status, -1 = transport error
  std::vector<std::string> bodies;
  const std::int64_t t0 = now_ns();
  const json::Value dash = stack_.agent().generate_job_dashboard(stack_.job(j), kWindowEnd);
  queries = panel_queries(dash);
  for (const std::string& q : queries) {
    const std::int64_t q0 = now_ns();
    auto resp = stack_.client().send(Stack::kTsdbUrl, query_request(q));
    t.window().query_ms.push_back(ms_since(q0));
    statuses.push_back(resp.ok() ? resp->status : -1);
    bodies.push_back(resp.ok() ? std::move(resp->body) : resp.message());
  }
  t.window().load_ms.push_back(ms_since(t0));

  const std::int64_t c0 = thread_cpu_ns();
  ++t.attempted;
  if (queries.size() != static_cast<std::size_t>(kQueriesPerLoad)) {
    t.wrong_answer("dashboard of job " + model_.job_id(j) + " has " +
                   std::to_string(queries.size()) + " panel queries, expected " +
                   std::to_string(kQueriesPerLoad));
  }
  for (std::size_t k = 0; k < queries.size(); ++k) {
    ++t.attempted;
    if (statuses[k] < 200 || statuses[k] >= 300) {
      t.fail("query: status " + std::to_string(statuses[k]) + " " + bodies[k].substr(0, 160));
      continue;
    }
    auto parsed = json::parse(bodies[k]);
    const std::string why =
        parsed.ok() ? model_.check_query(queries[k], *parsed) : "unparseable response";
    if (!why.empty()) t.wrong_answer("query '" + queries[k] + "': " + why);
  }
  own_cpu_ns_ += thread_cpu_ns() - c0;
}

void Runner::phase_loads(std::int64_t until_ns, Tally& t) {
  while (now_ns() < until_ns) dash_load(next_load_++, t);
}

std::vector<std::string> Runner::check_store(std::uint64_t fields_acked) {
  std::vector<std::string> problems;
  const std::size_t stored = stack_.storage().totals().samples - samples_at_start_;
  if (stored != fields_acked) {
    problems.push_back("stored " + std::to_string(stored) + " new samples, expected " +
                       std::to_string(fields_acked));
  }
  const std::size_t primary_series = check_tags(model_, stack_.storage(), kDb, problems);
  const std::size_t expected_series = static_cast<std::size_t>(kHosts * lines_per_batch());
  if (primary_series != expected_series) {
    problems.push_back("primary database holds " + std::to_string(primary_series) +
                       " metric series, expected " + std::to_string(expected_series));
  }
  return problems;
}

void Runner::ensure_noop() {
  if (noop_net_.has("noop")) return;
  const net::HttpHandler noop = [](const net::HttpRequest&) {
    return net::HttpResponse::no_content();
  };
  noop_net_.bind("noop", noop);
  net::TcpHttpClient::Options client_opts;
  client_opts.registry = &stack_.registry();
  noop_client_ = std::make_unique<net::TcpHttpClient>(client_opts);
  noop_server_ = std::make_unique<net::TcpHttpServer>(noop);
  if (auto port = noop_server_->start(); !port.ok()) noop_server_.reset();
}

void Runner::replay_write(std::int64_t i, lms::core::TagStore& tags, tsdb::Storage& scratch,
                          Replay& r, SpanRecorder* rec) {
  const net::HttpRequest in =
      write_request(model_.batch(model_.write_host(i), model_.write_tick(i)), kDb);
  std::vector<std::string> parse_errors;
  const Scoped root(rec, "op.write");
  {
    const Scoped span(rec, "net.transport");
    (void)noop_net_.request("noop", in);
  }
  std::vector<lms::lineproto::Point> points;
  {
    const Scoped router(rec, "core.router");
    {
      const Scoped span(rec, "lineproto.parse");
      points = lms::lineproto::parse_lenient(in.body, &parse_errors);
    }
    const Scoped span(rec, "core.enrich");
    for (auto& p : points) tags.enrich(p);
  }
  // The router's forward: serialize, the hop, then the TSDB's parse and
  // apply.
  std::string body;
  {
    const Scoped span(rec, "lineproto.serialize");
    body = lms::lineproto::serialize_batch(points);
  }
  const net::HttpRequest out = write_request(std::move(body), kDb);
  {
    const Scoped span(rec, "net.transport");
    (void)noop_net_.request("noop", out);
  }
  const Scoped tsdb_span(rec, "tsdb.write");
  auto parsed = [&] {
    const Scoped span(rec, "tsdb.parse");
    return tsdb::parse_write_request(out, kDb, kWindowEnd);
  }();
  if (!parsed.ok()) return;
  {
    const Scoped span(rec, "tsdb.apply");
    scratch.write(parsed->batch);
  }
  if (rec == nullptr) return;
  r.lines += points.size();
  r.serialized += points.size();
  r.points_applied += parsed->batch.points.size();
}

void Runner::replay_load(std::int64_t i, lms::dashboard::DashboardAgent& templates_only,
                         Replay& r, SpanRecorder* rec) {
  const lms::core::RunningJob& job = stack_.job(model_.dash_job(i));
  Replay counts;
  const Scoped root(rec, "op.dash_load");
  {
    const Scoped span(rec, "analysis.evaluate");
    (void)stack_.reporter().evaluate(job.job_id, job.nodes, job.start_time, kWindowEnd);
  }
  json::Value dash;
  {
    const Scoped span(rec, "dashboard.generate");
    dash = templates_only.generate_job_dashboard(job, kWindowEnd);
  }
  for (const std::string& q : panel_queries(dash)) {
    const Scoped query_span(rec, "tsdb.query");
    {
      const Scoped span(rec, "net.transport");
      (void)noop_net_.request("noop", query_request(q));
    }
    auto stmt = [&] {
      const Scoped span(rec, "tsdb.query_parse");
      return tsdb::parse_query(q, kWindowEnd);
    }();
    if (!stmt.ok()) continue;
    tsdb::ReadSnapshot snap;
    {
      const Scoped span(rec, "tsdb.snapshot");
      snap = stack_.storage().snapshot(kDb);
    }
    tsdb::QueryStats stats;
    auto result = [&] {
      const Scoped span(rec, "tsdb.execute");
      return tsdb::execute(snap, *stmt, &stats);
    }();
    snap.release();
    if (!result.ok()) continue;
    {
      const Scoped span(rec, "tsdb.json");
      (void)tsdb::to_influx_json(*result);
    }
    counts.examined += stats.points_examined;
    for (const auto& rs : result->series) counts.rows += rs.values.size();
    ++counts.queries;
  }
  if (rec == nullptr) return;
  r.examined += counts.examined;
  r.rows += counts.rows;
  r.queries += counts.queries;
  ++r.loads;
}

Runner::Replay Runner::replay(int writes, int loads, tsdb::Storage& scratch, SpanRecorder& rec) {
  ensure_noop();
  Replay r;
  // Every other operation runs under spans. The ones in between time the
  // same stages without spans, on the same host at the same time, which
  // gives the cost of tracing.
  const auto timed = [](OpTimes& times, SpanRecorder* on, auto&& op) {
    const std::int64_t t0 = now_ns();
    op(on);
    const std::int64_t dt = now_ns() - t0;
    (on != nullptr ? times.traced_ns : times.plain_ns) += dt;
    ++(on != nullptr ? times.traced : times.plain);
  };

  // A copy of the router's running-job tag store.
  lms::core::TagStore tags;
  for (int h = 0; h < kHosts; ++h) {
    tags.set_tags(model_.host(h), stack_.router().tag_store().tags_for(model_.host(h)));
  }
  for (int i = 0; i < 2 * writes; ++i) {
    timed(r.write_times, i % 2 == 1 ? &rec : nullptr,
          [&](SpanRecorder* on) { replay_write(i, tags, scratch, r, on); });
  }

  // The dashboard agent's own share of a load, without the analysis header:
  // the same templates and discovery over the same store, with a reporter
  // whose fetcher reads an empty store.
  lms::tsdb::Storage empty;
  const lms::analysis::MetricFetcher no_data(empty, kDb);
  const lms::analysis::JobReporter no_analysis(no_data, lms::hpm::simx86());
  lms::util::SimClock clock;
  clock.set(kWindowEnd);
  lms::dashboard::DashboardAgent::Options agent_opts;
  agent_opts.database = kDb;
  agent_opts.datasource = kDb;
  lms::dashboard::DashboardAgent templates_only(stack_.storage(), no_analysis, clock,
                                                agent_opts);
  for (int i = 0; i < 2 * loads; ++i) {
    timed(r.load_times, i % 2 == 1 ? &rec : nullptr,
          [&](SpanRecorder* on) { replay_load(i, templates_only, r, on); });
  }
  return r;
}

Runner::AsyncIngest Runner::replay_async(std::int64_t first, int writes, tsdb::Storage& scratch,
                                         std::vector<std::string>& problems) {
  AsyncIngest a;
  lms::obs::Registry registry;
  lms::util::SimClock clock;
  lms::tsdb::HttpApi::Options api_opts;
  api_opts.default_db = kDb;
  api_opts.registry = &registry;
  lms::tsdb::HttpApi api(scratch, clock, api_opts);
  net::InprocNetwork network;
  network.bind("tsdb", api.handler());
  net::InprocHttpClient db_client(network);
  lms::core::TaskScheduler::Options sched_opts;
  sched_opts.workers = 1;
  sched_opts.name = "lmsbench.sched";
  lms::core::TaskScheduler sched(sched_opts);
  lms::core::MetricsRouter::Options router_opts;
  router_opts.database = kDb;
  router_opts.db_url = Stack::kTsdbUrl;
  router_opts.registry = &registry;
  router_opts.async_ingest = true;
  router_opts.duplicate_per_user = true;
  router_opts.scheduler = &sched;
  lms::core::MetricsRouter router(db_client, clock, router_opts);
  network.bind("router", router.handler());
  net::InprocHttpClient client(network);
  std::string error;
  start_jobs(model_, clock, router, error);
  if (!error.empty()) {
    problems.push_back("async router: " + error);
    return a;
  }

  const std::size_t samples0 = scratch.totals().samples;
  std::vector<std::string> bodies;
  for (std::int64_t i = first; i < first + writes; ++i) {
    bodies.push_back(model_.batch(model_.write_host(i), model_.write_tick(i)));
  }
  for (const std::string& body : bodies) {
    const std::int64_t deadline = now_ns() + 5'000'000'000;
    for (;;) {
      auto resp = client.send(Stack::kRouterUrl, write_request(body, kDb));
      if (resp.ok() && resp->ok()) break;
      if (!resp.ok() || resp->status != 429 || now_ns() > deadline) {
        problems.push_back("async router write: " +
                           (resp.ok() ? "HTTP " + std::to_string(resp->status) : resp.message()));
        return a;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  router.flush_ingest();
  // The flusher task may still be landing the batch it took last.
  const std::uint64_t copies = 2 * static_cast<std::uint64_t>(writes * lines_per_batch());
  lms::obs::Counter& flushed = registry.counter("router_ingest_flushed");
  const std::int64_t deadline = now_ns() + 5'000'000'000;
  while (flushed.value() < copies && now_ns() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const std::size_t stored = scratch.totals().samples - samples0;
  const std::size_t expected = 2 * static_cast<std::size_t>(writes * fields_per_batch());
  if (flushed.value() != copies || stored != expected) {
    problems.push_back("async router flushed " + std::to_string(flushed.value()) +
                       " points and stored " + std::to_string(stored) +
                       " samples, expected " + std::to_string(copies) + " and " +
                       std::to_string(expected));
  }
  std::size_t user_series = 0;
  for (const std::string& db : scratch.databases()) {
    if (db.rfind("user_", 0) == 0) user_series += check_tags(model_, scratch, db, problems);
  }
  // Every host of the replayed writes posted at least once.
  const std::size_t expected_series =
      static_cast<std::size_t>(std::min(writes, kHosts) * lines_per_batch());
  if (user_series != expected_series) {
    problems.push_back("user databases hold " + std::to_string(user_series) +
                       " metric series, expected " + std::to_string(expected_series));
  }
  a.points_in = static_cast<double>(registry.counter("router_points_in").value());
  a.rejected = static_cast<double>(registry.counter("router_ingest_rejected").value());
  a.flushed = static_cast<double>(flushed.value());
  a.flush_ns = static_cast<double>(registry.histogram("router_ingest_flush_ns").sum());
  for (const auto& q : lms::core::runtime::queue_snapshot()) {
    if (q.name == "core.router.ingest") a.queue_hwm = static_cast<double>(q.high_watermark);
  }
  return a;
}

void Runner::probe_transports(int n, int n_tcp, SpanRecorder& rec) {
  ensure_noop();
  const net::HttpRequest req =
      write_request(model_.batch(model_.write_host(0), model_.write_tick(0)), kDb);
  for (int i = 0; i < n; ++i) {
    const Scoped span(&rec, "net.inproc_probe");
    (void)noop_net_.request("noop", req);
  }
  if (!noop_server_) return;
  for (int i = 0; i < n_tcp; ++i) {
    const Scoped span(&rec, "net.tcp_probe");
    (void)noop_client_->send(noop_server_->url(), req);
  }
}

}  // namespace lmsbench

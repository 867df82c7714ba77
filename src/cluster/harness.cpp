#include "lms/cluster/harness.hpp"

#include <algorithm>
#include <iterator>

#include "lms/collector/plugins.hpp"
#include "lms/lineproto/codec.hpp"
#include "lms/obs/trace.hpp"
#include "lms/util/logging.hpp"
#include "lms/util/strings.hpp"

namespace lms::cluster {

namespace {

constexpr util::TimeNs kSelfScrapeInterval = util::kNanosPerMinute;
constexpr util::TimeNs kProfileExportInterval = 30 * util::kNanosPerSecond;
constexpr std::size_t kProfileTopK = 20;

}  // namespace

ClusterHarness::ClusterHarness(Options options)
    : options_(std::move(options)),
      clock_(options_.start_time),
      sched_([] {
        core::TaskScheduler::Options o;
        o.manual = true;  // step_once() advances it along the sim clock
        o.workers = 1;
        o.name = "harness.sched";
        return o;
      }()),
      groups_(*options_.arch),
      rng_(options_.seed) {
  client_ = std::make_unique<net::InprocHttpClient>(network_);

  // Every component reports into the harness-wide registry so one
  // self-scrape covers the whole stack.
  network_.set_registry(&registry_);
  broker_.set_registry(&registry_);

  // Database back-end with its InfluxDB-compatible API.
  tsdb::HttpApi::Options db_opts;
  db_opts.registry = &registry_;
  db_api_ = std::make_unique<tsdb::HttpApi>(storage_, clock_, db_opts);
  network_.bind(kDbEndpoint, db_api_->handler());

  // Metrics router in front of it.
  core::MetricsRouter::Options router_opts;
  router_opts.db_url = std::string("inproc://") + kDbEndpoint;
  router_opts.database = options_.database;
  router_opts.duplicate_per_user = options_.duplicate_per_user;
  router_opts.async_ingest = options_.async_ingest;
  router_opts.scheduler = &sched_;  // flusher task rides the manual scheduler
  router_opts.registry = &registry_;
  router_ = std::make_unique<core::MetricsRouter>(*client_, clock_, router_opts, &broker_);
  network_.bind(kRouterEndpoint, router_->handler());

  // Scheduler with job notifier wired to the router.
  node_names_.reserve(static_cast<std::size_t>(options_.nodes));
  for (int i = 1; i <= options_.nodes; ++i) {
    node_names_.push_back(options_.node_prefix + std::to_string(i));
  }
  scheduler_ = std::make_unique<sched::Scheduler>(node_names_);
  notifier_ = std::make_unique<sched::JobNotifier>(*client_,
                                                   std::string("inproc://") + kRouterEndpoint);
  scheduler_->set_on_start([this](const sched::Job& job) {
    (void)notifier_->notify_start(job);
    on_job_start(job);
  });
  scheduler_->set_on_end([this](const sched::Job& job) {
    (void)notifier_->notify_end(job);
    on_job_end(job);
  });

  // Analysis + dashboards.
  fetcher_ = std::make_unique<analysis::MetricFetcher>(storage_, options_.database);
  reporter_ = std::make_unique<analysis::JobReporter>(*fetcher_, *options_.arch);
  dashboard::DashboardAgent::Options dash_opts;
  dash_opts.database = options_.database;
  dashboard_agent_ =
      std::make_unique<dashboard::DashboardAgent>(storage_, *reporter_, clock_, dash_opts);
  network_.bind(kDashboardEndpoint, dashboard_agent_->handler());

  // Stream analyzer tapping the router's PUB/SUB (online pathology rules).
  analyzer_ = std::make_unique<analysis::StreamAnalyzer>(broker_, analysis::builtin_rules());

  // Optional job-level stream aggregator on the same tap.
  if (options_.enable_aggregator) {
    analysis::StreamAggregator::Options agg_opts;
    agg_opts.window = options_.aggregator_window;
    agg_opts.router_url = std::string("inproc://") + kRouterEndpoint;
    agg_opts.database = options_.database;
    aggregator_ = std::make_unique<analysis::StreamAggregator>(broker_, *client_, agg_opts);
  }

  if (options_.record_findings) {
    finding_recorder_ = std::make_unique<analysis::FindingRecorder>(
        *client_, std::string("inproc://") + kRouterEndpoint, options_.database);
  }

  // Optional downsampling rollups (continuous queries) for the data-volume
  // story: raw expires with `retention`, rollups persist.
  if (options_.enable_rollups) {
    tsdb::CqRunner::Options cq_opts;
    cq_opts.run_interval = util::kNanosPerMinute;  // the old maintenance cadence
    cq_opts.clock = &clock_;
    cq_runner_ = std::make_unique<tsdb::CqRunner>(storage_, options_.database, cq_opts);
    tsdb::ContinuousQuery cpu_cq;
    cpu_cq.name = "cpu_rollup";
    cpu_cq.source_measurement = "cpu";
    cpu_cq.target_measurement = "cpu_rollup";
    cpu_cq.fields = {{"user_percent", tsdb::Aggregator::kMean},
                     {"user_percent", tsdb::Aggregator::kMax}};
    cq_runner_->add(std::move(cpu_cq));
    tsdb::ContinuousQuery hpm_cq;
    hpm_cq.name = "mem_dp_rollup";
    hpm_cq.source_measurement = "likwid_mem_dp";
    hpm_cq.target_measurement = "likwid_mem_dp_rollup";
    hpm_cq.fields = {{"dp_mflop_per_s", tsdb::Aggregator::kMean},
                     {"memory_bandwidth_mbytes_per_s", tsdb::Aggregator::kMean}};
    cq_runner_->add(std::move(hpm_cq));
  }

  // Simulated nodes with their host agents.
  nodes_.reserve(node_names_.size());
  for (std::size_t i = 0; i < node_names_.size(); ++i) {
    SimNode node;
    node.name = node_names_[i];
    node.kernel = std::make_unique<sysmon::SimulatedKernel>(options_.arch->total_hwthreads(),
                                                            64ULL << 30);
    node.counters = std::make_unique<hpm::CounterSimulator>(
        *options_.arch, options_.seed + 1000 + i, options_.counter_noise_sigma);

    collector::HostAgent::Options agent_opts;
    agent_opts.router_url = std::string("inproc://") + kRouterEndpoint;
    agent_opts.database = options_.database;
    agent_opts.flush_interval = options_.collect_interval;
    agent_opts.self_monitor_interval = util::kNanosPerMinute;
    agent_opts.hostname = node.name;
    agent_opts.registry = &registry_;
    node.agent = std::make_unique<collector::HostAgent>(*client_, agent_opts);
    node.agent->add_plugin(std::make_unique<collector::CpuPlugin>(*node.kernel, node.name),
                           options_.collect_interval);
    node.agent->add_plugin(std::make_unique<collector::MemoryPlugin>(*node.kernel, node.name),
                           options_.collect_interval);
    node.agent->add_plugin(std::make_unique<collector::NetworkPlugin>(*node.kernel, node.name),
                           options_.collect_interval);
    node.agent->add_plugin(std::make_unique<collector::DiskPlugin>(*node.kernel, node.name),
                           options_.collect_interval);
    hpm::HpmMonitor::Options mon_opts;
    mon_opts.groups = options_.hpm_groups;
    mon_opts.hostname = node.name;
    auto monitor = hpm::HpmMonitor::create(groups_, *node.counters, mon_opts);
    if (monitor.ok()) {
      node.agent->add_plugin(std::make_unique<collector::HpmPlugin>(monitor.take()),
                             options_.hpm_interval);
    }
    nodes_.push_back(std::move(node));
    // Probe surface per node so the deadman story is inspectable over HTTP.
    network_.bind(kAgentEndpointPrefix + nodes_.back().name, nodes_.back().agent->handler());
  }
  // Every exporter writes through the router, the hop every collector
  // batch takes.
  const auto write_to_router = [this](const std::string& body) {
    return net::post_write(*client_, std::string("inproc://") + kRouterEndpoint,
                           options_.database, body);
  };

  // The stack monitoring itself: scrape the shared registry back through
  // the router so lms_internal is queryable like any other measurement.
  if (options_.enable_self_scrape) {
    self_scrape_ = std::make_unique<obs::Exporter>(
        "obs.selfscrape", kSelfScrapeInterval,
        obs::registry_source(registry_, clock_, {{"hostname", "lms-stack"}}), write_to_router);
  }

  // Distributed tracing: head-sampling rate + a deterministic exporter
  // draining the process-global recorder. drain_traces() drives it; it is
  // never attached, so simulations remain reproducible.
  prev_trace_sample_rate_ = obs::trace_sample_rate();
  if (options_.enable_tracing) {
    obs::set_trace_sample_rate(options_.trace_sample_rate);
    trace_exporter_ = std::make_unique<obs::Exporter>(
        "obs.traceexport", 0, obs::span_source(obs::SpanRecorder::global(), "lms-stack"),
        write_to_router);
  }

  // Continuous CPU profiling, deterministic flavor: the process-wide
  // profiler starts timer-less (no SIGPROF in a simulation), step_once()
  // captures one sample per step, the fold task rides the manual scheduler
  // and the exporter writes lms_profiles through the router with sim-clock
  // timestamps. start() can fail when another harness (or a daemon in the
  // same process) already owns the profiler — then this harness simply
  // runs without one.
  if (options_.enable_cpuprofile) {
    obs::CpuProfiler::Options prof_opts;
    prof_opts.timer = false;
    prof_opts.fold_interval = options_.step;
    obs::CpuProfiler& profiler = obs::CpuProfiler::instance();
    cpuprofile_started_ = profiler.start(prof_opts).ok();
    if (cpuprofile_started_) {
      profile_exporter_ = std::make_unique<obs::Exporter>(
          "obs.profileexport", kProfileExportInterval,
          obs::profile_source(profiler, clock_, "lms-stack", kProfileTopK), write_to_router);
    }
  }

  // Alerting: an evaluator over the shared storage, with a deadman watch
  // per node and transitions published on the "alerts" topic.
  if (options_.enable_alerts) {
    alert::Evaluator::Options alert_opts;
    alert_opts.database = options_.database;
    alert_opts.deadman_window = options_.deadman_window;
    // Watch the host agents' own telemetry: job-level streams (usermetric)
    // keep flowing while an agent is down and must not mask its silence.
    alert_opts.deadman_measurement = "cpu";
    alert_opts.registry = &registry_;
    alert_opts.eval_interval = options_.alert_interval;
    alert_opts.clock = &clock_;
    alert_evaluator_ = std::make_unique<alert::Evaluator>(storage_, alert_opts);
    for (const auto& name : node_names_) {
      alert_evaluator_->register_host(name);
    }
    alert_evaluator_->add_sink(std::make_unique<alert::LogSink>());
    alert_evaluator_->add_sink(std::make_unique<alert::PubSubSink>(broker_));
  }

  // Periodic work attaches to the manual scheduler in the order the old
  // per-step cadence checks ran: self-scrape, alert evaluation, then
  // maintenance (continuous queries + retention). The router's ingest
  // flusher attached first, in the router's constructor.
  if (self_scrape_ != nullptr) self_scrape_->attach(sched_);
  if (alert_evaluator_ != nullptr) alert_evaluator_->attach(sched_);
  if (cq_runner_ != nullptr) cq_runner_->attach(sched_);
  if (cpuprofile_started_) obs::CpuProfiler::instance().attach(sched_);
  if (profile_exporter_ != nullptr) profile_exporter_->attach(sched_);
  if (options_.retention > 0) {
    retention_task_ =
        sched_.submit_periodic("harness.retention", util::kNanosPerMinute, [this] {
          // Raw data expires; rollups and job-level aggregates persist.
          storage_.drop_before_if(clock_.now() - options_.retention,
                                  [](const std::string& m) {
                                    return !util::ends_with(m, "_rollup") &&
                                           !util::ends_with(m, "_job");
                                  });
        });
  }

  idle_activity_.hpm = hpm::idle_load(*options_.arch);
  idle_activity_.kernel = sysmon::KernelLoad{};
  idle_activity_.kernel.cpu_user_fraction = 0.005;
  idle_activity_.kernel.mem_used_bytes = 2e9;
}

ClusterHarness::~ClusterHarness() {
  // Head sampling is process-global; hand back whatever was configured
  // before this harness so tests cannot leak a rate into each other.
  obs::set_trace_sample_rate(prev_trace_sample_rate_);
  // The CpuProfiler is process-global too: let the exporter's detach write
  // its final batch while the stack is still up, then stop the profiler and
  // clear its aggregate so the next harness starts from an empty profile.
  if (cpuprofile_started_) {
    profile_exporter_.reset();
    obs::CpuProfiler& prof = obs::CpuProfiler::instance();
    prof.detach();
    prof.stop();
    prof.clear();
  }
}

std::size_t ClusterHarness::drain_traces() { return drain(trace_exporter_.get()); }

std::size_t ClusterHarness::drain_profiles() { return drain(profile_exporter_.get()); }

std::size_t ClusterHarness::drain(obs::Exporter* exporter) {
  if (exporter == nullptr) return 0;
  const std::uint64_t before = exporter->points_exported();
  (void)exporter->export_once();
  // Land the exported points: with async ingest on they are still sitting
  // in the router's queues after the POST above.
  if (options_.async_ingest) (void)router_->flush_ingest();
  return static_cast<std::size_t>(exporter->points_exported() - before);
}

void ClusterHarness::set_node_active(const std::string& name, bool active) {
  for (auto& node : nodes_) {
    if (node.name == name) node.active = active;
  }
}

int ClusterHarness::submit(const std::string& workload, const std::string& user, int nodes,
                           util::TimeNs duration, util::TimeNs walltime_limit) {
  auto w = make_workload(workload, rng_.next_u64());
  if (w == nullptr) return -1;
  return submit_workload(std::move(w), user, nodes, duration, walltime_limit);
}

int ClusterHarness::submit_workload(std::unique_ptr<Workload> workload, const std::string& user,
                                    int nodes, util::TimeNs duration,
                                    util::TimeNs walltime_limit) {
  sched::JobSpec spec;
  spec.name = workload->name();
  spec.user = user;
  spec.nodes = nodes;
  spec.walltime_limit = walltime_limit > 0 ? walltime_limit : duration * 2;
  spec.tags.emplace_back("queue", "batch");
  const int id = scheduler_->submit(std::move(spec), duration, clock_.now());
  pending_workloads_[id] = std::move(workload);
  return id;
}

void ClusterHarness::on_job_start(const sched::Job& job) {
  ActiveJob active;
  active.record.id = job.id;
  active.record.workload = job.spec.name;
  active.record.user = job.spec.user;
  active.record.nodes = job.assigned_nodes;
  active.record.start_time = clock_.now();
  auto wit = pending_workloads_.find(job.id);
  if (wit != pending_workloads_.end()) {
    active.workload = std::move(wit->second);
    pending_workloads_.erase(wit);
  } else {
    active.workload = make_workload("idle", 0);
  }
  active.rng = rng_.fork(static_cast<std::uint64_t>(job.id));

  // Per-job libusermetric client: default tags identify job, user, host.
  usermetric::UserMetricClient::Options um_opts;
  um_opts.router_url = std::string("inproc://") + kRouterEndpoint;
  um_opts.database = options_.database;
  um_opts.default_tags = {{"jobid", job.job_id_string()},
                          {"user", job.spec.user},
                          {"hostname", job.assigned_nodes.empty() ? std::string("?")
                                                                  : job.assigned_nodes[0]}};
  um_opts.buffer_capacity = 100;
  active.user_client =
      std::make_unique<usermetric::UserMetricClient>(*client_, clock_, um_opts);
  active.user_client->event("job", "start of " + job.spec.name);

  // Bind nodes to the job; with profiling on, each node gets a region
  // profiler whose HPM collector reads that node's simulated PMU.
  int index = 0;
  for (const auto& node_name : job.assigned_nodes) {
    for (auto& node : nodes_) {
      if (node.name == node_name) {
        node.job_id = job.id;
        node.job_node_index = index;
        if (options_.enable_profiling) {
          profiling::Profiler::Options prof_opts;
          prof_opts.hostname = node.name;
          prof_opts.clock = &clock_;
          prof_opts.registry = &registry_;
          prof_opts.emit_spans = options_.profiling_spans;
          auto profiler = std::make_unique<profiling::Profiler>(std::move(prof_opts));
          auto hpm_collector = profiling::HpmRegionCollector::create(
              groups_, *node.counters, options_.profiling_group);
          if (hpm_collector.ok()) {
            profiler->add_collector(hpm_collector.take());
          } else {
            LMS_WARN("cluster") << "region profiling without HPM: "
                                << hpm_collector.message();
          }
          active.profilers.emplace(node.name, std::move(profiler));
        }
        break;
      }
    }
    ++index;
  }
  active.last_profile_flush = clock_.now();
  active_jobs_.emplace(job.id, std::move(active));
}

void ClusterHarness::on_job_end(const sched::Job& job) {
  const auto it = active_jobs_.find(job.id);
  if (it == active_jobs_.end()) return;
  flush_profilers(it->second, clock_.now());  // the tail since the last flush
  it->second.user_client->event("job", "end of " + job.spec.name);
  it->second.user_client->flush();
  it->second.record.end_time = clock_.now();
  finished_jobs_.emplace(job.id, it->second.record);
  for (auto& node : nodes_) {
    if (node.job_id == job.id) {
      node.job_id = 0;
      node.job_node_index = 0;
    }
  }
  active_jobs_.erase(it);
}

void ClusterHarness::run_phases(SimNode& node, ActiveJob& job, util::TimeNs now) {
  profiling::Profiler& profiler = *job.profilers[node.name];
  const util::TimeNs elapsed = now - job.record.start_time;
  const auto phases =
      job.workload->phases(node.job_node_index, static_cast<int>(job.record.nodes.size()),
                           elapsed, *options_.arch, job.rng);
  double total = 0.0;
  for (const auto& phase : phases) total += std::max(0.0, phase.fraction);
  if (phases.empty() || total <= 0.0) {
    node.kernel->advance(idle_activity_.kernel, options_.step);
    node.counters->advance(idle_activity_.hpm, options_.step);
    return;
  }
  // The step being simulated is (now - step, now]; phases get synthetic
  // intra-step timestamps so region times are exact under the sim clock.
  util::TimeNs t = now - options_.step;
  util::TimeNs remaining = options_.step;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const Phase& phase = phases[i];
    util::TimeNs span = i + 1 == phases.size()
                            ? remaining
                            : static_cast<util::TimeNs>(static_cast<double>(options_.step) *
                                                        std::max(0.0, phase.fraction) / total);
    span = std::min(span, remaining);
    if (span <= 0) continue;
    (void)profiler.start(phase.region, t);
    node.kernel->advance(phase.activity.kernel, span);
    node.counters->advance(phase.activity.hpm, span);
    for (const auto& [value_name, value] : phase.values) {
      (void)profiler.value(value_name, value);
    }
    t += span;
    remaining -= span;
    (void)profiler.stop(phase.region, t);
  }
}

void ClusterHarness::flush_profilers(ActiveJob& job, util::TimeNs now) {
  job.last_profile_flush = now;
  std::vector<lineproto::Point> points;
  const std::vector<lineproto::Tag> job_tags{{"jobid", std::to_string(job.record.id)},
                                             {"user", job.record.user}};
  for (auto& [hostname, profiler] : job.profilers) {
    auto drained = profiler->drain_points(now, job_tags);
    points.insert(points.end(), std::make_move_iterator(drained.begin()),
                  std::make_move_iterator(drained.end()));
  }
  if (points.empty()) return;
  const util::Status status =
      net::post_write(*client_, std::string("inproc://") + kRouterEndpoint, options_.database,
                      lineproto::serialize_batch(points));
  if (!status.ok()) LMS_WARN("cluster") << "lms_regions flush failed: " << status.message();
}

const ClusterHarness::JobRecord* ClusterHarness::job_record(int job_id) const {
  const auto fit = finished_jobs_.find(job_id);
  if (fit != finished_jobs_.end()) return &fit->second;
  const auto ait = active_jobs_.find(job_id);
  if (ait != active_jobs_.end()) return &ait->second.record;
  return nullptr;
}

void ClusterHarness::step_once() {
  const util::TimeNs now = clock_.advance(options_.step);
  scheduler_->tick(now);

  // Drive node activity from the running jobs. A profiled job node steps
  // through the workload's phases inside region markers instead of one
  // flat activity (same counter totals, attributed per region).
  for (auto& node : nodes_) {
    NodeActivity activity;
    if (node.job_id != 0) {
      auto it = active_jobs_.find(node.job_id);
      if (it != active_jobs_.end()) {
        ActiveJob& job = it->second;
        if (job.profilers.count(node.name) > 0) {
          run_phases(node, job, now);
          continue;
        }
        const util::TimeNs elapsed = now - job.record.start_time;
        activity = job.workload->activity(node.job_node_index,
                                          static_cast<int>(job.record.nodes.size()), elapsed,
                                          *options_.arch, job.rng);
      } else {
        activity = idle_activity_;
      }
    } else {
      activity = idle_activity_;
    }
    node.kernel->advance(activity.kernel, options_.step);
    node.counters->advance(activity.hpm, options_.step);
  }

  // Application-level reporting (libusermetric).
  for (auto& [id, job] : active_jobs_) {
    const util::TimeNs elapsed = now - job.record.start_time;
    for (std::size_t i = 0; i < job.record.nodes.size(); ++i) {
      job.workload->report(*job.user_client, static_cast<int>(i), elapsed, now);
    }
    job.user_client->tick(now);
  }

  // Per-region aggregates flush through the router on their own cadence.
  for (auto& [id, job] : active_jobs_) {
    if (!job.profilers.empty() &&
        now - job.last_profile_flush >= options_.profiling_flush_interval) {
      flush_profilers(job, now);
    }
  }

  // Host agents collect and deliver (a crashed agent stops ticking).
  for (auto& node : nodes_) {
    if (node.active) node.agent->tick(now);
  }

  // Land queued writes before anything downstream reads the storage, so a
  // simulation step behaves the same with and without async ingest.
  if (options_.async_ingest) (void)router_->flush_ingest();

  // Online stream analysis + optional aggregation and alert recording.
  analyzer_->pump();
  if (finding_recorder_ != nullptr) {
    finding_recorder_->record(analyzer_->engine().take_findings());
  }
  if (aggregator_ != nullptr) aggregator_->pump(now);

  // Deterministic CPU sample: one capture of the harness thread per step
  // (the sim stand-in for a SIGPROF tick); the fold task below aggregates
  // it on its own cadence.
  if (cpuprofile_started_) obs::CpuProfiler::instance().sample_once();

  // Self-scrape, alert evaluation, continuous queries and retention fire on
  // their own sim-clock cadences as periodic tasks on the manual scheduler;
  // one advance runs everything due this step. (The router's flusher task
  // also fires here — a no-op, since the explicit flush above already
  // landed this step's writes.)
  (void)sched_.advance_to(now);
}

void ClusterHarness::run_for(util::TimeNs duration) {
  const util::TimeNs end = clock_.now() + duration;
  while (clock_.now() < end) {
    step_once();
  }
}

bool ClusterHarness::run_until_done(int job_id, util::TimeNs max_sim_time) {
  const util::TimeNs deadline = clock_.now() + max_sim_time;
  while (clock_.now() < deadline) {
    step_once();
    if (finished_jobs_.count(job_id) > 0) return true;
  }
  return finished_jobs_.count(job_id) > 0;
}

}  // namespace lms::cluster

#pragma once

// Full-stack simulation harness: the Fig. 1 architecture in one process.
//
//   nodes (kernel + HPM counters + host agent)
//      -> metrics router (tag store, enrichment, duplication, PUB/SUB)
//      -> time-series database (InfluxDB-compatible HTTP API)
//   scheduler -> job notifier -> router job signals
//   dashboard agent <- database, router job list
//   stream analyzer <- router PUB/SUB (online pathology detection)
//
// Everything runs on a virtual clock over the in-process transport, so an
// hour of cluster time simulates in well under a second and every test and
// bench is deterministic. All periodic background work (router ingest
// flusher, self-scrape, alert evaluation, continuous queries, retention)
// runs as periodic tasks on one manual-mode core::TaskScheduler that
// step_once() advances along the sim clock — the same Runnable/
// submit_periodic API the real deployment drives with worker threads.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "lms/alert/evaluator.hpp"
#include "lms/analysis/aggregator.hpp"
#include "lms/analysis/online.hpp"
#include "lms/analysis/recorder.hpp"
#include "lms/analysis/report.hpp"
#include "lms/cluster/workload.hpp"
#include "lms/collector/agent.hpp"
#include "lms/core/router.hpp"
#include "lms/core/taskscheduler.hpp"
#include "lms/dashboard/agent.hpp"
#include "lms/hpm/monitor.hpp"
#include "lms/obs/cpuprofiler.hpp"
#include "lms/obs/exporter.hpp"
#include "lms/obs/metrics.hpp"
#include "lms/obs/trace.hpp"
#include "lms/profiling/profiler.hpp"
#include "lms/sched/scheduler.hpp"
#include "lms/tsdb/continuous.hpp"
#include "lms/tsdb/http_api.hpp"

namespace lms::cluster {

class ClusterHarness {
 public:
  struct Options {
    int nodes = 4;
    std::string node_prefix = "h";  ///< hosts h1..hN, like Fig. 4
    const hpm::CounterArchitecture* arch = &hpm::simx86();
    util::TimeNs step = util::kNanosPerSecond;          ///< simulation step
    util::TimeNs collect_interval = 10 * util::kNanosPerSecond;
    util::TimeNs hpm_interval = 10 * util::kNanosPerSecond;
    std::vector<std::string> hpm_groups = {"MEM_DP", "FLOPS_DP", "BRANCH", "ENERGY"};
    std::string database = "lms";
    bool duplicate_per_user = false;
    /// Route writes through the router's batched async ingest queues. The
    /// harness drains them synchronously at the end of every step
    /// (flush_ingest()), so simulations stay deterministic while still
    /// exercising the queued write path.
    bool async_ingest = false;
    double counter_noise_sigma = 0.01;
    std::uint64_t seed = 42;
    util::TimeNs start_time = 1'500'000'000LL * util::kNanosPerSecond;  // epoch offset
    /// Attach a job-level stream aggregator to the PUB/SUB tap (§III-B).
    bool enable_aggregator = false;
    util::TimeNs aggregator_window = util::kNanosPerMinute;
    /// Downsample cpu + likwid_mem_dp into 5-minute rollups and expire raw
    /// data older than `retention` (0 = keep raw forever).
    bool enable_rollups = false;
    util::TimeNs retention = 0;
    /// Record online findings as "alerts" annotation events in the DB.
    /// Note: this drains the online engine's findings each step; read them
    /// from the alerts measurement instead of take_findings().
    bool record_findings = false;
    /// Once a simulated minute, write the shared metrics registry back
    /// through the router as "lms_internal" points — the stack monitoring
    /// itself (driven from the sim clock, so it is deterministic like the
    /// rest).
    bool enable_self_scrape = false;
    /// Run an alert::Evaluator against the storage every alert_interval,
    /// with a deadman absence watch per node (fires when a host stops
    /// writing for deadman_window). Transitions land in "lms_alerts" and on
    /// the "alerts" PUB/SUB topic.
    bool enable_alerts = false;
    util::TimeNs alert_interval = 30 * util::kNanosPerSecond;
    util::TimeNs deadman_window = 2 * util::kNanosPerMinute;
    /// Distributed tracing: set the process-global head-sampling rate and
    /// wire a span exporter that drains the span recorder through the
    /// router into the shared TSDB. The exporter is never attached —
    /// traces land deterministically via drain_traces().
    bool enable_tracing = false;
    double trace_sample_rate = 1.0;
    /// Region profiling: every job node gets a profiling::Profiler with an
    /// HpmRegionCollector over that node's simulated PMU; each step runs
    /// the workload's phases() inside region markers and the per-region
    /// aggregates flush through the router as "lms_regions" points (tagged
    /// jobid/user on top of region/thread/hostname/group) every
    /// profiling_flush_interval and at job end.
    bool enable_profiling = false;
    std::string profiling_group = "MEM_DP";
    util::TimeNs profiling_flush_interval = 30 * util::kNanosPerSecond;
    /// Additionally emit an obs::Span per region instance (requires
    /// enable_tracing to land anywhere).
    bool profiling_spans = false;
    /// Continuous CPU profiling in deterministic mode: start the
    /// process-wide obs::CpuProfiler timer-less (no SIGPROF — the harness
    /// captures one sample per simulation step via sample_once()), fold on
    /// the manual scheduler's periodic task, and export the top 20 stacks
    /// through the router as "lms_profiles" points stamped from the sim
    /// clock every 30 simulated seconds. drain_profiles() forces an export
    /// mid-test.
    bool enable_cpuprofile = false;
  };

  explicit ClusterHarness(Options options);
  ~ClusterHarness();
  ClusterHarness(const ClusterHarness&) = delete;
  ClusterHarness& operator=(const ClusterHarness&) = delete;

  /// Submit a job running the named workload (see make_workload) on `nodes`
  /// nodes for `duration`. Returns the scheduler job id.
  int submit(const std::string& workload, const std::string& user, int nodes,
             util::TimeNs duration, util::TimeNs walltime_limit = 0);

  /// Submit with an explicit workload instance.
  int submit_workload(std::unique_ptr<Workload> workload, const std::string& user, int nodes,
                      util::TimeNs duration, util::TimeNs walltime_limit = 0);

  /// Advance the simulation by `duration` in steps of options.step.
  void run_for(util::TimeNs duration);

  /// Advance until the given job finished (bounded by `max_sim_time`).
  bool run_until_done(int job_id, util::TimeNs max_sim_time);

  // ---- component access ----
  util::SimClock& clock() { return clock_; }
  util::TimeNs now() const { return clock_.now(); }
  tsdb::Storage& storage() { return storage_; }
  tsdb::HttpApi& db_api() { return *db_api_; }
  core::MetricsRouter& router() { return *router_; }
  sched::Scheduler& scheduler() { return *scheduler_; }
  dashboard::DashboardAgent& dashboards() { return *dashboard_agent_; }
  analysis::OnlineRuleEngine& online_engine() { return analyzer_->engine(); }
  analysis::StreamAggregator* aggregator() { return aggregator_.get(); }
  tsdb::CqRunner* cq_runner() { return cq_runner_.get(); }
  const analysis::MetricFetcher& fetcher() const { return *fetcher_; }
  const analysis::JobReporter& reporter() const { return *reporter_; }
  net::PubSubBroker& broker() { return broker_; }
  net::InprocNetwork& network() { return network_; }
  net::HttpClient& client() { return *client_; }
  /// The manual-mode scheduler every periodic component is attached to;
  /// step_once() advances it to the sim clock at the end of each step.
  core::TaskScheduler& task_scheduler() { return sched_; }
  /// The stack-wide metrics registry every component reports into.
  obs::Registry& registry() { return registry_; }
  /// Present iff Options::enable_self_scrape.
  obs::Exporter* self_scrape() { return self_scrape_.get(); }
  /// Present iff Options::enable_alerts.
  alert::Evaluator* alerts() { return alert_evaluator_.get(); }
  /// Present iff Options::enable_tracing.
  obs::Exporter* trace_exporter() { return trace_exporter_.get(); }
  /// Present iff Options::enable_cpuprofile (and the process-wide profiler
  /// was free to start).
  obs::Exporter* profile_exporter() { return profile_exporter_.get(); }
  const Options& options() const { return options_; }

  /// Export every finished span into the TSDB now (and land it through the
  /// async ingest queues when those are on), so a test can assemble traces
  /// deterministically right after the spans of interest closed. Returns
  /// the number of spans exported by this call. No-op without tracing.
  std::size_t drain_traces();

  /// Fold pending CPU samples and export the current top stacks into the
  /// TSDB now (landing them through the async ingest queues when those are
  /// on). Returns the number of stacks exported by this call. No-op without
  /// enable_cpuprofile.
  std::size_t drain_profiles();

  /// Simulate an agent crash: an inactive node's collector stops ticking
  /// (its kernel keeps running), so its metrics stop arriving and the
  /// deadman watch fires. Reactivating resumes collection and delivery.
  void set_node_active(const std::string& name, bool active);

  /// Hostnames of the simulated nodes.
  const std::vector<std::string>& node_names() const { return node_names_; }

  /// Job metadata for analysis after completion.
  struct JobRecord {
    int id = 0;
    std::string workload;
    std::string user;
    std::vector<std::string> nodes;
    util::TimeNs start_time = 0;
    util::TimeNs end_time = 0;  ///< 0 while running
  };
  const JobRecord* job_record(int job_id) const;

  /// In-process endpoint names. Each node's agent is additionally bound as
  /// "<kAgentEndpointPrefix><hostname>" (e.g. "agent-h1") for health probes.
  static constexpr const char* kDbEndpoint = "tsdb";
  static constexpr const char* kRouterEndpoint = "router";
  static constexpr const char* kDashboardEndpoint = "grafana";
  static constexpr const char* kAgentEndpointPrefix = "agent-";

 private:
  struct SimNode {
    std::string name;
    std::unique_ptr<sysmon::SimulatedKernel> kernel;
    std::unique_ptr<hpm::CounterSimulator> counters;
    std::unique_ptr<collector::HostAgent> agent;
    int job_id = 0;       ///< 0 = idle
    int job_node_index = 0;
    bool active = true;   ///< false = agent crashed (deadman scenario)
  };
  struct ActiveJob {
    JobRecord record;
    std::unique_ptr<Workload> workload;
    std::unique_ptr<usermetric::UserMetricClient> user_client;
    util::Rng rng;
    /// Per-node region profilers, keyed by hostname (enable_profiling).
    std::map<std::string, std::unique_ptr<profiling::Profiler>> profilers;
    util::TimeNs last_profile_flush = 0;
  };

  void on_job_start(const sched::Job& job);
  void on_job_end(const sched::Job& job);
  void step_once();
  void run_phases(SimNode& node, ActiveJob& job, util::TimeNs now);
  void flush_profilers(ActiveJob& job, util::TimeNs now);
  /// Export once and land the points (drain_traces / drain_profiles).
  std::size_t drain(obs::Exporter* exporter);

  Options options_;
  util::SimClock clock_;
  obs::Registry registry_;  // declared before the components that report into it
  // Trace-ring gauges (spans recorded/evicted/retained) ride the same
  // self-scrape as every other instrument; RAII so the callbacks can never
  // outlive the registry.
  obs::ScopedTraceMetrics trace_metrics_{registry_};
  double prev_trace_sample_rate_ = 1.0;
  net::InprocNetwork network_;
  std::unique_ptr<net::InprocHttpClient> client_;
  /// Manual-mode runtime for all periodic tasks. Declared before every
  /// component that attaches to it, so components detach (cancelling their
  /// tasks) before the scheduler is torn down.
  core::TaskScheduler sched_;

  tsdb::Storage storage_;
  std::unique_ptr<tsdb::HttpApi> db_api_;
  net::PubSubBroker broker_;
  std::unique_ptr<core::MetricsRouter> router_;
  std::unique_ptr<sched::Scheduler> scheduler_;
  std::unique_ptr<sched::JobNotifier> notifier_;
  std::unique_ptr<analysis::MetricFetcher> fetcher_;
  std::unique_ptr<analysis::JobReporter> reporter_;
  std::unique_ptr<dashboard::DashboardAgent> dashboard_agent_;
  std::unique_ptr<analysis::StreamAnalyzer> analyzer_;
  std::unique_ptr<analysis::StreamAggregator> aggregator_;
  std::unique_ptr<analysis::FindingRecorder> finding_recorder_;
  std::unique_ptr<tsdb::CqRunner> cq_runner_;
  std::unique_ptr<obs::Exporter> self_scrape_;
  std::unique_ptr<obs::Exporter> trace_exporter_;
  std::unique_ptr<obs::Exporter> profile_exporter_;
  /// True when this harness started the process-wide CpuProfiler (and so
  /// owns stopping + clearing it on teardown).
  bool cpuprofile_started_ = false;
  std::unique_ptr<alert::Evaluator> alert_evaluator_;
  /// Raw-data expiry with the rollup/job-aggregate filter; runs once a
  /// simulated minute (Options::retention > 0 only).
  core::PeriodicTaskHandle retention_task_;

  hpm::GroupRegistry groups_;
  std::vector<std::string> node_names_;
  std::vector<SimNode> nodes_;
  std::map<int, ActiveJob> active_jobs_;
  std::map<int, JobRecord> finished_jobs_;
  std::map<int, std::unique_ptr<Workload>> pending_workloads_;
  NodeActivity idle_activity_;
  util::Rng rng_;
};

}  // namespace lms::cluster

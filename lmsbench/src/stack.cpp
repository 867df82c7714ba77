#include "stack.hpp"

#include "lms/hpm/arch.hpp"
#include "lms/tsdb/persist.hpp"

namespace lmsbench {

namespace net = lms::net;

std::vector<lms::core::RunningJob> start_jobs(const Model& model, lms::util::SimClock& clock,
                                              lms::core::MetricsRouter& router,
                                              std::string& error) {
  // Every job has run since the start of the warm window.
  clock.set(kT0);
  std::vector<lms::core::RunningJob> jobs;
  for (int j = 0; j < kJobs; ++j) {
    lms::core::JobSignal signal;
    signal.job_id = model.job_id(j);
    signal.user = model.user_of_job(j);
    for (int h : model.hosts_of_job(j)) signal.nodes.push_back(model.host(h));
    if (auto st = router.job_start(signal); !st.ok()) {
      error = "job start: " + st.message();
      return {};
    }
    auto job = router.find_job(signal.job_id);
    if (!job) {
      error = "job " + signal.job_id + " not tracked";
      return {};
    }
    jobs.push_back(*job);
  }
  clock.set(kWindowEnd);
  return jobs;
}

Stack::Stack(const Model& model, const std::string& snapshot_path) {
  lms::tsdb::HttpApi::Options api_opts;
  api_opts.default_db = kDb;
  api_opts.registry = &registry_;
  api_ = std::make_unique<lms::tsdb::HttpApi>(storage_, clock_, api_opts);
  network_.set_registry(&registry_);
  network_.bind("tsdb", api_->handler());
  db_client_ = std::make_unique<net::InprocHttpClient>(network_);

  lms::core::MetricsRouter::Options router_opts;
  router_opts.database = kDb;
  router_opts.db_url = kTsdbUrl;
  router_opts.registry = &registry_;
  router_ = std::make_unique<lms::core::MetricsRouter>(*db_client_, clock_, router_opts);
  network_.bind("router", router_->handler());
  client_ = std::make_unique<net::InprocHttpClient>(network_);

  fetcher_ = std::make_unique<lms::analysis::MetricFetcher>(storage_, kDb);
  reporter_ = std::make_unique<lms::analysis::JobReporter>(*fetcher_, lms::hpm::simx86());
  lms::dashboard::DashboardAgent::Options agent_opts;
  agent_opts.database = kDb;
  agent_opts.datasource = kDb;
  agent_ = std::make_unique<lms::dashboard::DashboardAgent>(storage_, *reporter_, clock_,
                                                            agent_opts);

  // Warm start: the daemon's snapshot load.
  auto loaded = lms::tsdb::load_snapshot(storage_, snapshot_path);
  if (!loaded.ok()) {
    error_ = "warm store: " + loaded.message();
    return;
  }
  jobs_ = start_jobs(model, clock_, *router_, error_);
}

Stack::~Stack() = default;

}  // namespace lmsbench

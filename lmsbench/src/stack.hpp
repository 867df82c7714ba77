#pragma once

// The monitoring stack under test, assembled from its public parts the way
// lms_daemon wires them: TSDB HttpApi and MetricsRouter handlers bound to an
// InprocNetwork, the router forwarding through an HttpClient, and a
// DashboardAgent backed by a JobReporter on the same store.

#include <memory>
#include <string>
#include <vector>

#include "lms/analysis/fetch.hpp"
#include "lms/analysis/report.hpp"
#include "lms/core/router.hpp"
#include "lms/dashboard/agent.hpp"
#include "lms/net/transport.hpp"
#include "lms/obs/metrics.hpp"
#include "lms/tsdb/http_api.hpp"
#include "lms/tsdb/storage.hpp"
#include "lms/util/clock.hpp"
#include "model.hpp"

namespace lmsbench {

/// Start the model's 16 jobs on `router` with the clock at the start of the
/// warm window. Returns the running jobs, or an empty vector with `error` set.
std::vector<lms::core::RunningJob> start_jobs(const Model& model, lms::util::SimClock& clock,
                                              lms::core::MetricsRouter& router,
                                              std::string& error);

class Stack {
 public:
  /// Build the stack, load the warm store from `snapshot_path` and start
  /// the model's 16 jobs. Check error() afterwards.
  Stack(const Model& model, const std::string& snapshot_path);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  const std::string& error() const { return error_; }

  /// The client the benchmark drives the stack through.
  lms::net::HttpClient& client() { return *client_; }
  static constexpr const char* kRouterUrl = "inproc://router";
  static constexpr const char* kTsdbUrl = "inproc://tsdb";

  lms::tsdb::Storage& storage() { return storage_; }
  lms::obs::Registry& registry() { return registry_; }
  lms::core::MetricsRouter& router() { return *router_; }
  lms::dashboard::DashboardAgent& agent() { return *agent_; }
  const lms::analysis::JobReporter& reporter() const { return *reporter_; }
  /// Running job j of the model, as the router tracks it.
  const lms::core::RunningJob& job(int j) const { return jobs_[static_cast<std::size_t>(j)]; }

 private:
  // Declaration order is teardown order reversed: the router still needs
  // its client and the TSDB.
  std::string error_;
  lms::util::SimClock clock_;
  lms::obs::Registry registry_;
  lms::tsdb::Storage storage_;
  std::unique_ptr<lms::tsdb::HttpApi> api_;
  lms::net::InprocNetwork network_;
  std::unique_ptr<lms::net::HttpClient> db_client_;
  std::unique_ptr<lms::core::MetricsRouter> router_;
  std::unique_ptr<lms::net::HttpClient> client_;
  std::unique_ptr<lms::analysis::MetricFetcher> fetcher_;
  std::unique_ptr<lms::analysis::JobReporter> reporter_;
  std::unique_ptr<lms::dashboard::DashboardAgent> agent_;
  std::vector<lms::core::RunningJob> jobs_;
};

}  // namespace lmsbench

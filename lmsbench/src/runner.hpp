#pragma once

// The closed-loop client: one thread issuing /write batches and job
// dashboard loads against a Stack, timing each operation, checking every
// answer, and (in the traced run) replaying the stages of each operation
// with spans around the calls into each module.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ledger.hpp"
#include "lms/core/tagstore.hpp"
#include "lms/dashboard/agent.hpp"
#include "lms/net/tcp_http.hpp"
#include "lms/net/transport.hpp"
#include "lms/tsdb/storage.hpp"
#include "model.hpp"
#include "stack.hpp"

namespace lmsbench {

std::int64_t process_cpu_ns();
std::int64_t thread_cpu_ns();
double median(std::vector<double> v);  ///< 0 for an empty vector

/// Panel queries of one job dashboard: 5 per host x 16 hosts + 3 per job.
inline constexpr int kQueriesPerLoad = 5 * kHostsPerJob + 3;
inline constexpr double kSliceSeconds = 0.5;
inline constexpr double kWindowSeconds = 5;

/// Samples of one 5 s window of the run. Metrics are the mean over windows
/// of each window's median: the median keeps single slow operations out,
/// the mean over windows averages the host's speed over the whole run.
struct Window {
  std::vector<double> write_ms;
  std::vector<double> query_ms;
  std::vector<double> load_ms;
  /// Per 0.5 s slice: lines acknowledged per second of /write round trips,
  /// and charged CPU per line.
  std::vector<double> pts_per_s;
  std::vector<double> cpu_us_per_pt;
};

/// What one stretch of the closed loop did.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;  ///< failures that were wrong answers
  std::uint64_t lines_acked = 0;
  std::uint64_t fields_acked = 0;
  std::int64_t write_busy_ns = 0;  ///< sum of /write round trips
  std::vector<Window> windows = std::vector<Window>(1);
  std::vector<std::string> errors;  ///< first few failure reasons

  Window& window() { return windows.back(); }
  /// Every sample of one field, across windows.
  std::vector<double> all(std::vector<double> Window::*field) const;
  /// Mean over windows of the window's median of `field` (windows without
  /// samples are skipped).
  double windowed_median(std::vector<double> Window::*field) const;
  void fail(std::string why);
  void wrong_answer(std::string why);
};

class Runner {
 public:
  /// Snapshot the store's sample count: check_store() compares against it.
  Runner(const Model& model, Stack& stack);

  /// Run the closed loop for `seconds`. The run is cut into slices of
  /// kSliceSeconds; each slice writes for `write_share` of its time, then
  /// loads dashboards, so both paths sample the whole run.
  Tally run(double write_share, double seconds);

  /// After the loop: every acknowledged sample is stored and every stored
  /// metric series carries its host's jobid and user. Returns failure
  /// reasons (empty = correct).
  std::vector<std::string> check_store(std::uint64_t fields_acked);

  // ---- traced run: stage replay on the same seeded inputs ----

  /// Wall time of the replayed operations of one kind, with and without
  /// spans (the cost of tracing).
  struct OpTimes {
    std::int64_t plain_ns = 0;
    std::int64_t traced_ns = 0;
    std::uint64_t plain = 0;
    std::uint64_t traced = 0;
  };
  struct Replay {
    // Totals of the traced operations.
    std::uint64_t lines = 0;        ///< lines parsed by the router replay
    std::uint64_t points_applied = 0;  ///< lines the tsdb replay parsed and applied
    std::uint64_t serialized = 0;   ///< lines serialized for forwarding
    std::uint64_t loads = 0;
    std::uint64_t queries = 0;
    std::uint64_t examined = 0;     ///< QueryStats::points_examined
    std::uint64_t rows = 0;
    OpTimes write_times;
    OpTimes load_times;
  };
  /// Replay the first 2 x `writes` writes and 2 x `loads` dashboard loads
  /// of the workload's sequence stage by stage, every other one under
  /// spans. Writes land in `scratch` (warmed like the real store);
  /// enrichment uses a copy of the router's tags.
  Replay replay(int writes, int loads, lms::tsdb::Storage& scratch, SpanRecorder& rec);

  /// What the async router of the daemon's default config did with the
  /// replayed writes, read from its own registry and queue stats.
  struct AsyncIngest {
    double points_in = 0;
    double rejected = 0;
    double flushed = 0;
    double flush_ns = 0;  ///< sum of router_ingest_flush_ns
    double queue_hwm = 0;
  };
  /// Post `writes` writes from position `first` to a second router
  /// with async ingest, per-user copies and a one-worker scheduler,
  /// forwarding in process into `scratch`. A 429 is retried after 1 ms,
  /// as a collector backs off. After flush_ingest() the scratch store must
  /// hold both copies of every write; mismatches go to `problems`.
  AsyncIngest replay_async(std::int64_t first, int writes, lms::tsdb::Storage& scratch,
                           std::vector<std::string>& problems);

  /// Round trips to a no-op handler: `n` over an InprocNetwork and `n_tcp`
  /// over TcpHttpClient -> TcpHttpServer, each under its own span name. The
  /// TCP client records into the stack's registry.
  void probe_transports(int n, int n_tcp, SpanRecorder& rec);

 private:
  void write_op(std::string body, Tally& t);
  /// One dashboard load, timed; responses are checked after the timer.
  void dash_load(std::int64_t i, Tally& t);
  void phase_writes(std::int64_t until_ns, Tally& t);
  void phase_loads(std::int64_t until_ns, Tally& t);
  /// One replayed write or load, under spans when `rec` is non-null.
  void replay_write(std::int64_t i, lms::core::TagStore& tags, lms::tsdb::Storage& scratch,
                    Replay& r, SpanRecorder* rec);
  void replay_load(std::int64_t i, lms::dashboard::DashboardAgent& templates_only, Replay& r,
                   SpanRecorder* rec);
  /// Charge the process CPU (all threads) of `body` to writes, minus the
  /// client thread's own input generation and answer checking.
  template <class F>
  void measure_cpu(Tally& t, F&& body) {
    const std::int64_t cpu0 = process_cpu_ns();
    const std::int64_t own0 = own_cpu_ns_;
    const std::uint64_t lines0 = t.lines_acked;
    body();
    const std::int64_t cpu = process_cpu_ns() - cpu0 - (own_cpu_ns_ - own0);
    const std::uint64_t lines = t.lines_acked - lines0;
    if (lines > 0) {
      t.window().cpu_us_per_pt.push_back(static_cast<double>(cpu) / 1e3 /
                                         static_cast<double>(lines));
    }
  }
  /// Record the write rate of the slice that began at these totals.
  static void close_slice(Tally& t, std::uint64_t lines0, std::int64_t busy0);
  void ensure_noop();

  const Model& model_;
  Stack& stack_;
  std::size_t samples_at_start_;
  std::int64_t next_write_ = 0;  ///< position in the model's write sequence
  std::int64_t next_load_ = 0;
  /// Client-thread CPU spent generating inputs and checking answers, kept
  /// out of the write phase's CPU.
  std::int64_t own_cpu_ns_ = 0;

  // No-op endpoints for the transport replay (traced run only).
  lms::net::InprocNetwork noop_net_;
  std::unique_ptr<lms::net::TcpHttpServer> noop_server_;
  std::unique_ptr<lms::net::TcpHttpClient> noop_client_;
};

}  // namespace lmsbench

// Prices the sharded storage engine's ingest path: N writer threads append
// batches into one 16-stripe database while query threads run aggregations
// against it (the dashboard-poll mix from the paper's production setting).
// Each writer count runs kReps times and reports the median, so the scaling
// from 1 to 8 writers is measured, not assumed. Writes the numbers as a
// machine-readable baseline to BENCH_tsdb_ingest.json.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "lms/json/json.hpp"
#include "lms/tsdb/query.hpp"
#include "lms/tsdb/storage.hpp"
#include "lms/util/clock.hpp"

namespace {

using namespace lms;

constexpr util::TimeNs kSec = util::kNanosPerSecond;
constexpr util::TimeNs kT0 = 1'500'000'000LL * kSec;
const int kPointsPerWriter = bench::scaled(40'000, 1'000);
constexpr int kBatchSize = 100;      // points per storage.write(), like a collector batch
constexpr int kQueryThreads = 2;     // dashboard-style pollers
constexpr int kHostsPerWriter = 64;  // distinct series per writer thread
const int kReps = bench::scaled(5, 1);  // median over reps per writer count

struct RunResult {
  double points_per_sec = 0;
  double wall_ms = 0;
  std::uint64_t queries_served = 0;
};

RunResult run_ingest(int writer_threads) {
  tsdb::Storage storage;
  storage.database("lms");  // pre-create so queriers never miss it
  tsdb::Engine engine(storage);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> queries{0};
  std::vector<std::thread> queriers;
  queriers.reserve(kQueryThreads);
  for (int q = 0; q < kQueryThreads; ++q) {
    queriers.emplace_back([&storage, &engine, &stop, &queries] {
      while (!stop.load(std::memory_order_relaxed)) {
        // A dashboard-style targeted query: one host's series, bounded cost.
        auto r = engine.query("lms", "SELECT count(v) FROM cpu WHERE hostname = 'w0h0'", kT0);
        if (r.ok()) queries.fetch_add(1, std::memory_order_relaxed);
        // Poll, don't hot-loop: dashboards refresh on an interval.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }

  const util::TimeNs start = util::monotonic_now_ns();
  std::vector<std::thread> writers;
  writers.reserve(static_cast<std::size_t>(writer_threads));
  for (int w = 0; w < writer_threads; ++w) {
    writers.emplace_back([&storage, w] {
      std::vector<lineproto::Point> batch;
      batch.reserve(kBatchSize);
      int written = 0;
      while (written < kPointsPerWriter) {
        batch.clear();
        for (int i = 0; i < kBatchSize && written < kPointsPerWriter; ++i, ++written) {
          lineproto::Point p;
          p.measurement = "cpu";
          p.set_tag("hostname",
                    "w" + std::to_string(w) + "h" + std::to_string(written % kHostsPerWriter));
          p.add_field("v", static_cast<double>(written));
          p.timestamp = kT0 + static_cast<util::TimeNs>(written) * kSec;
          p.normalize();
          batch.push_back(std::move(p));
        }
        storage.write("lms", batch, kT0);
      }
    });
  }
  for (auto& t : writers) t.join();
  const double wall_ns = static_cast<double>(util::monotonic_now_ns() - start);
  stop.store(true);
  for (auto& t : queriers) t.join();

  RunResult res;
  res.wall_ms = wall_ns / 1e6;
  res.points_per_sec = double(writer_threads) * kPointsPerWriter / (wall_ns / 1e9);
  res.queries_served = queries.load();
  return res;
}

RunResult median_run(int writer_threads) {
  std::vector<RunResult> runs;
  for (int rep = 0; rep < kReps; ++rep) runs.push_back(run_ingest(writer_threads));
  std::sort(runs.begin(), runs.end(), [](const RunResult& a, const RunResult& b) {
    return a.points_per_sec < b.points_per_sec;
  });
  return runs[runs.size() / 2];
}

}  // namespace

int main() {
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("=== bench_tsdb_ingest: %d pts/writer, batches of %d, %d query threads, "
              "%d reps, %u hardware threads ===\n\n",
              kPointsPerWriter, kBatchSize, kQueryThreads, kReps, hw);
  std::printf("%8s %12s %12s %10s\n", "writers", "Mpts/s", "wall ms", "queries");

  const int writer_counts[] = {1, 4, 8};
  json::Array runs;
  double one_writer = 0;
  double scaling_at_8 = 0;
  for (const int writers : writer_counts) {
    const RunResult r = median_run(writers);
    if (writers == 1) one_writer = r.points_per_sec;
    if (writers == 8) scaling_at_8 = r.points_per_sec / one_writer;
    std::printf("%8d %12.2f %12.1f %10llu\n", writers, r.points_per_sec / 1e6, r.wall_ms,
                static_cast<unsigned long long>(r.queries_served));
    json::Object o;
    o["writer_threads"] = writers;
    o["points_per_sec"] = r.points_per_sec;
    o["wall_ms"] = r.wall_ms;
    o["queries_served"] = static_cast<std::int64_t>(r.queries_served);
    runs.emplace_back(std::move(o));
  }

  json::Object top;
  top["bench"] = "bench_tsdb_ingest";
  // Lock striping buys parallel writes; the measured scaling depends on the
  // cores actually available.
  top["hardware_threads"] = static_cast<std::int64_t>(hw);
  top["stripes"] = static_cast<std::int64_t>(tsdb::Database::kDefaultShards);
  top["points_per_writer"] = kPointsPerWriter;
  top["batch_size"] = kBatchSize;
  top["query_threads"] = kQueryThreads;
  top["reps"] = kReps;
  top["runs"] = std::move(runs);
  top["scaling_8_vs_1_writers"] = scaling_at_8;
  std::printf("\n8-writer throughput over 1-writer throughput: %.2fx\n", scaling_at_8);
  return bench::write_baseline("BENCH_tsdb_ingest.json",
                               json::Value(std::move(top)).dump_pretty())
             ? 0
             : 1;
}

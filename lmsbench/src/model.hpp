#pragma once

// The benchmark's seeded cluster model: 256 hosts running 16 jobs of 16
// hosts each, every host posting one collector-shaped batch per 10 s tick.
// Every stored value is a closed-form function of (seed, host, series,
// field, tick), so any query over the store can be checked exactly.
//
// Values are dyadic rationals of at most 20 significant bits, so sums of a
// few dozen of them are exact in double precision and a mean computed by the
// engine in any order equals the oracle's bit for bit.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "lms/json/json.hpp"
#include "lms/util/clock.hpp"

namespace lmsbench {

using lms::util::TimeNs;

inline constexpr int kHosts = 256;
inline constexpr int kJobs = 16;
inline constexpr int kHostsPerJob = kHosts / kJobs;
inline constexpr int kUsers = 8;
/// One hour of 10 s ticks is pre-loaded as the warm store.
inline constexpr std::int64_t kWarmTicks = 360;
inline constexpr TimeNs kTickNs = 10 * lms::util::kNanosPerSecond;
/// Start of the warm window; a multiple of 30 s so GROUP BY time(30s)
/// buckets hold exactly three ticks.
inline constexpr TimeNs kT0 = 1'699'999'200LL * lms::util::kNanosPerSecond;
inline constexpr TimeNs kWindowEnd = kT0 + kWarmTicks * kTickNs;
inline constexpr const char* kDb = "lms";

/// A field and its value range: value = (hash % modulus) * scale, with
/// `scale` a power of two so every value is exact in binary.
struct FieldShape {
  const char* name;
  std::uint64_t modulus;
  double scale;
};

/// One series a host reports each tick (one line of its batch).
struct SeriesShape {
  const char* measurement;
  const char* tag_key;  ///< extra identifying tag, nullptr = none
  const char* tag_value;
  std::vector<FieldShape> fields;
};

/// The nine lines of a host batch: cpu per core plus cpu-total, memory,
/// network and two likwid_mem_dp sockets — 24 fields, named as the job
/// dashboard templates and the JobReporter checks read them.
const std::vector<SeriesShape>& series_shapes();
int lines_per_batch();
int fields_per_batch();

class Model {
 public:
  explicit Model(std::uint64_t seed);

  const std::string& host(int h) const { return hosts_[static_cast<std::size_t>(h)]; }
  int job_of(int h) const { return job_of_host_[static_cast<std::size_t>(h)]; }
  const std::string& job_id(int j) const { return job_ids_[static_cast<std::size_t>(j)]; }
  const std::string& user_of_job(int j) const {
    return users_[static_cast<std::size_t>(j % kUsers)];
  }
  /// Hosts of a job in allocation order (the order the job signal lists them).
  const std::vector<int>& hosts_of_job(int j) const {
    return job_hosts_[static_cast<std::size_t>(j)];
  }

  double value(int h, int series, int field, std::int64_t tick) const;

  /// Line-protocol batch one host's collector posts for one tick (no job
  /// tags: the router adds jobid and user).
  std::string batch(int h, std::int64_t tick) const;

  /// Write the warm store — every series of every host for the warm window,
  /// tagged as the router would have enriched it — as an lms snapshot file.
  bool write_snapshot(const std::string& path) const;

  /// The i-th write of the workload's closed loop: hosts in a seeded order,
  /// one full round of hosts per tick, ticks continuing after the window.
  int write_host(std::int64_t i) const {
    return write_order_[static_cast<std::size_t>(i % kHosts)];
  }
  std::int64_t write_tick(std::int64_t i) const { return kWarmTicks + i / kHosts; }
  /// The job whose dashboard the i-th load opens (seeded order over all 16).
  int dash_job(std::int64_t i) const { return job_order_[static_cast<std::size_t>(i % kJobs)]; }

  /// Check one panel query's /query response against the closed form.
  /// Returns an empty string when it matches, else what differed.
  std::string check_query(std::string_view query_text, const lms::json::Value& response) const;

 private:
  std::uint64_t seed_;
  std::vector<std::string> hosts_;
  std::vector<int> job_of_host_;
  std::vector<std::string> job_ids_;
  std::vector<std::string> users_;
  std::vector<std::vector<int>> job_hosts_;
  std::vector<int> write_order_;
  std::vector<int> job_order_;
};

/// Index of a model hostname ("node017" -> 17), -1 if it is not one.
int host_index(std::string_view hostname);

/// Append the shortest round-trip decimal form of `v`.
void append_number(std::string& out, double v);
void append_number(std::string& out, std::int64_t v);

}  // namespace lmsbench

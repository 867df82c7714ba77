#pragma once

// Typed access to job metric series stored in the TSDB, shared by the rule
// engine, the job report and the pattern classifier. Single queries are
// built programmatically against the query engine (no string round-trip);
// a job evaluation reads all of its series at once through a JobFrame.

#include <optional>
#include <string>
#include <vector>

#include "lms/tsdb/query.hpp"
#include "lms/tsdb/storage.hpp"

namespace lms::analysis {

/// One numeric time series.
struct MetricSeries {
  std::vector<util::TimeNs> times;
  std::vector<double> values;

  bool empty() const { return times.empty(); }
  std::size_t size() const { return times.size(); }

  double mean() const;
  double min() const;
  double max() const;
  double stddev() const;
  /// Fraction of samples below/above a threshold.
  double fraction_below(double threshold) const;
  double fraction_above(double threshold) const;
};

/// A metric address: measurement + field, e.g. {"likwid_mem_dp","dp_mflop_per_s"}.
struct MetricRef {
  std::string measurement;
  std::string field;

  std::string to_string() const { return measurement + "." + field; }
  bool operator==(const MetricRef&) const = default;
};

class MetricFetcher {
 public:
  MetricFetcher(tsdb::Storage& storage, std::string database);

  /// Fetch a series for one metric, filtered by tag equalities, within
  /// [t0, t1). When `window` > 0 the series is the per-window mean.
  util::Result<MetricSeries> fetch(const MetricRef& ref,
                                   const std::vector<lineproto::Tag>& tag_filters,
                                   util::TimeNs t0, util::TimeNs t1,
                                   util::TimeNs window = 0) const;

  /// Convenience: series of one metric for one host of one job.
  util::Result<MetricSeries> fetch_host(const MetricRef& ref, const std::string& hostname,
                                        const std::string& job_id, util::TimeNs t0,
                                        util::TimeNs t1, util::TimeNs window = 0) const;

  /// Distinct values of `tag_key` across the series of `measurement` that
  /// match `tag_filters` (e.g. the region names of one job's lms_regions).
  std::vector<std::string> tag_values(const std::string& measurement,
                                      const std::string& tag_key,
                                      const std::vector<lineproto::Tag>& tag_filters) const;

  const std::string& database() const { return database_; }

  /// A read snapshot of the fetcher's database (empty when it is missing).
  tsdb::ReadSnapshot snapshot() const { return storage_.snapshot(database_); }

 private:
  tsdb::Storage& storage_;
  std::string database_;
};

/// Every series one job evaluation reads, copied out under one
/// ReadSnapshot. Per distinct measurement of `refs` the frame runs one
/// series_matching(measurement, {{"jobid", job_id}}), buckets the series by
/// their `group_key` tag (hostname, or region for the per-region roofline)
/// and copies each field's [t0, t1) samples out through tsdb::gather and
/// tsdb::keep_last_per_time, the query executor's own raw-select read. So
///
///   series(ref, key) == fetcher.fetch(ref, {{group_key, key}, {"jobid", job_id}}, t0, t1)
///
/// bit for bit, which is fetch_host for the default group key. With an
/// empty job id each key is matched on its own, as fetch_host does. The
/// snapshot is released before the constructor returns.
class JobFrame {
 public:
  /// A frame over the listed keys (the hosts of a job).
  JobFrame(const MetricFetcher& fetcher, std::vector<std::string> keys, std::string job_id,
           util::TimeNs t0, util::TimeNs t1, const std::vector<MetricRef>& refs,
           const std::string& group_key = "hostname");

  /// A frame over every `group_key` value among the job's series of the
  /// refs' measurements, sorted (the regions of a profiled job).
  JobFrame(const MetricFetcher& fetcher, std::string job_id, util::TimeNs t0, util::TimeNs t1,
           const std::vector<MetricRef>& refs, const std::string& group_key);

  /// The series of `ref` for one key; empty when there is no data or the
  /// frame was not built for that ref or key.
  const MetricSeries& series(const MetricRef& ref, const std::string& key) const;

  const std::vector<std::string>& keys() const { return keys_; }
  const std::string& job_id() const { return job_id_; }
  util::TimeNs t0() const { return t0_; }
  util::TimeNs t1() const { return t1_; }

  /// Non-empty (ref, key) series and the samples they hold.
  std::size_t series_count() const;
  std::size_t sample_count() const;

 private:
  void read(const MetricFetcher& fetcher, const std::vector<MetricRef>& refs,
            const std::string& group_key, bool discover_keys);

  std::vector<std::string> keys_;
  std::string job_id_;
  util::TimeNs t0_ = 0;
  util::TimeNs t1_ = 0;
  std::vector<MetricRef> refs_;       ///< distinct
  std::vector<MetricSeries> series_;  ///< refs_.size() x keys_.size(), ref-major
};

}  // namespace lms::analysis

#include "lms/analysis/fetch.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "lms/util/strings.hpp"

namespace lms::analysis {

double MetricSeries::mean() const {
  if (values.empty()) return 0.0;
  double sum = 0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double MetricSeries::min() const {
  if (values.empty()) return 0.0;
  return *std::min_element(values.begin(), values.end());
}

double MetricSeries::max() const {
  if (values.empty()) return 0.0;
  return *std::max_element(values.begin(), values.end());
}

double MetricSeries::stddev() const {
  if (values.size() < 2) return 0.0;
  const double m = mean();
  double ss = 0;
  for (const double v : values) ss += (v - m) * (v - m);
  return std::sqrt(ss / static_cast<double>(values.size() - 1));
}

double MetricSeries::fraction_below(double threshold) const {
  if (values.empty()) return 0.0;
  std::size_t n = 0;
  for (const double v : values) {
    if (v < threshold) ++n;
  }
  return static_cast<double>(n) / static_cast<double>(values.size());
}

double MetricSeries::fraction_above(double threshold) const {
  if (values.empty()) return 0.0;
  std::size_t n = 0;
  for (const double v : values) {
    if (v > threshold) ++n;
  }
  return static_cast<double>(n) / static_cast<double>(values.size());
}

MetricFetcher::MetricFetcher(tsdb::Storage& storage, std::string database)
    : storage_(storage), database_(std::move(database)) {}

util::Result<MetricSeries> MetricFetcher::fetch(const MetricRef& ref,
                                                const std::vector<lineproto::Tag>& tag_filters,
                                                util::TimeNs t0, util::TimeNs t1,
                                                util::TimeNs window) const {
  tsdb::Statement stmt;
  stmt.kind = tsdb::StatementKind::kSelect;
  tsdb::SelectStatement& sel = stmt.select;
  tsdb::FieldExpr fe;
  fe.field = ref.field;
  fe.alias = "value";
  if (window > 0) {
    fe.agg = tsdb::Aggregator::kMean;
    sel.group_by_time = window;
  }
  sel.fields.push_back(std::move(fe));
  sel.measurement = ref.measurement;
  for (const auto& [k, v] : tag_filters) {
    sel.tag_conditions.push_back(tsdb::TagCondition{k, v, false});
  }
  sel.time_min = t0;
  sel.time_max = t1;

  const tsdb::ReadSnapshot snap = storage_.snapshot(database_);
  if (!snap) {
    return util::Result<MetricSeries>::error("database '" + database_ + "' not found");
  }
  auto result = tsdb::execute(snap, stmt);
  if (!result.ok()) return util::Result<MetricSeries>::error(result.message());
  MetricSeries out;
  for (const auto& rs : result->series) {
    for (const auto& row : rs.values) {
      if (row.size() < 2) continue;
      if (!row[1].is_numeric()) continue;
      out.times.push_back(row[0].as_int());
      out.values.push_back(row[1].as_double());
    }
  }
  return out;
}

util::Result<MetricSeries> MetricFetcher::fetch_host(const MetricRef& ref,
                                                     const std::string& hostname,
                                                     const std::string& job_id, util::TimeNs t0,
                                                     util::TimeNs t1, util::TimeNs window) const {
  std::vector<lineproto::Tag> filters;
  filters.emplace_back("hostname", hostname);
  if (!job_id.empty()) filters.emplace_back("jobid", job_id);
  return fetch(ref, filters, t0, t1, window);
}

std::vector<std::string> MetricFetcher::tag_values(
    const std::string& measurement, const std::string& tag_key,
    const std::vector<lineproto::Tag>& tag_filters) const {
  const tsdb::ReadSnapshot snap = storage_.snapshot(database_);
  if (!snap) return {};
  std::set<std::string> values;
  for (const tsdb::Series* s : snap->series_matching(measurement, tag_filters)) {
    const std::string_view v = s->tag(tag_key);
    if (!v.empty()) values.emplace(v);
  }
  return {values.begin(), values.end()};
}

namespace {

std::size_t index_of(const std::vector<std::string>& keys, std::string_view key) {
  return static_cast<std::size_t>(std::find(keys.begin(), keys.end(), key) - keys.begin());
}

/// The stored measurements a ref's measurement names: itself, or for a glob
/// every stored one it matches, in name order, as the executor expands it.
std::vector<std::string> concrete_measurements(const tsdb::Database& db,
                                               const std::string& measurement) {
  if (measurement.find_first_of("*?") == std::string::npos) return {measurement};
  std::vector<std::string> out;
  for (auto& m : db.measurements()) {
    if (util::glob_match(measurement, m)) out.push_back(std::move(m));
  }
  return out;
}

}  // namespace

JobFrame::JobFrame(const MetricFetcher& fetcher, std::vector<std::string> keys,
                   std::string job_id, util::TimeNs t0, util::TimeNs t1,
                   const std::vector<MetricRef>& refs, const std::string& group_key)
    : keys_(std::move(keys)), job_id_(std::move(job_id)), t0_(t0), t1_(t1) {
  read(fetcher, refs, group_key, /*discover_keys=*/false);
}

JobFrame::JobFrame(const MetricFetcher& fetcher, std::string job_id, util::TimeNs t0,
                   util::TimeNs t1, const std::vector<MetricRef>& refs,
                   const std::string& group_key)
    : job_id_(std::move(job_id)), t0_(t0), t1_(t1) {
  read(fetcher, refs, group_key, /*discover_keys=*/true);
}

void JobFrame::read(const MetricFetcher& fetcher, const std::vector<MetricRef>& refs,
                    const std::string& group_key, bool discover_keys) {
  for (const auto& ref : refs) {
    if (std::find(refs_.begin(), refs_.end(), ref) == refs_.end()) refs_.push_back(ref);
  }
  const tsdb::ReadSnapshot snap = fetcher.snapshot();
  if (!snap) {
    series_.resize(refs_.size() * keys_.size());
    return;
  }

  // One match per measurement: the job's series, or with no job id the
  // series of each distinct key, in the order fetch_host's match sees them.
  std::vector<std::vector<std::string>> measurements_of_ref;
  std::map<std::string, std::vector<const tsdb::Series*>> matched;
  for (const auto& ref : refs_) {
    measurements_of_ref.push_back(concrete_measurements(*snap, ref.measurement));
    for (const auto& m : measurements_of_ref.back()) {
      const auto [it, fresh] = matched.try_emplace(m);
      if (!fresh) continue;
      if (!job_id_.empty() || discover_keys) {
        it->second = snap->series_matching(m, {{"jobid", job_id_}});
        continue;
      }
      for (std::size_t k = 0; k < keys_.size(); ++k) {
        if (index_of(keys_, keys_[k]) != k) continue;
        const auto found = snap->series_matching(m, {{group_key, keys_[k]}});
        it->second.insert(it->second.end(), found.begin(), found.end());
      }
    }
  }
  if (discover_keys) {
    std::set<std::string> found;
    for (const auto& [m, series] : matched) {
      for (const tsdb::Series* s : series) {
        const std::string_view key = s->tag(group_key);
        if (!key.empty()) found.emplace(key);
      }
    }
    keys_.assign(found.begin(), found.end());
  }

  // Bucket each measurement's series by key, keeping the match order.
  std::map<std::string, std::vector<std::vector<const tsdb::Series*>>> buckets;
  for (const auto& [m, series] : matched) {
    auto& by_key = buckets[m];
    by_key.resize(keys_.size());
    for (const tsdb::Series* s : series) {
      const std::size_t k = index_of(keys_, s->tag(group_key));
      if (k < keys_.size()) by_key[k].push_back(s);
    }
  }

  series_.resize(refs_.size() * keys_.size());
  for (std::size_t r = 0; r < refs_.size(); ++r) {
    for (std::size_t k = 0; k < keys_.size(); ++k) {
      MetricSeries& out = series_[r * keys_.size() + k];
      for (const auto& m : measurements_of_ref[r]) {
        std::vector<tsdb::Sample> samples =
            tsdb::gather(buckets[m][k], refs_[r].field, t0_, t1_);
        tsdb::keep_last_per_time(samples);
        for (const auto& s : samples) {
          if (!s.v.is_numeric()) continue;
          out.times.push_back(s.t);
          out.values.push_back(s.v.as_double());
        }
      }
    }
  }
}

const MetricSeries& JobFrame::series(const MetricRef& ref, const std::string& key) const {
  static const MetricSeries kEmpty;
  const std::size_t k = index_of(keys_, key);
  const auto r = std::find(refs_.begin(), refs_.end(), ref);
  if (k == keys_.size() || r == refs_.end()) return kEmpty;
  return series_[static_cast<std::size_t>(r - refs_.begin()) * keys_.size() + k];
}

std::size_t JobFrame::series_count() const {
  return static_cast<std::size_t>(std::count_if(
      series_.begin(), series_.end(), [](const MetricSeries& s) { return !s.empty(); }));
}

std::size_t JobFrame::sample_count() const {
  std::size_t n = 0;
  for (const auto& s : series_) n += s.size();
  return n;
}

}  // namespace lms::analysis

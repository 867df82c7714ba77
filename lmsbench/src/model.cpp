#include "model.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <memory>
#include <random>

#include "lms/tsdb/query.hpp"

namespace lmsbench {

namespace {

constexpr FieldShape kPercent(const char* name) { return {name, 1601, 1.0 / 16}; }

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::vector<int> shuffled(std::mt19937_64& rng, int n) {
  std::vector<int> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i) {
    const auto j = static_cast<int>(rng() % static_cast<std::uint64_t>(i + 1));
    std::swap(v[static_cast<std::size_t>(i)], v[static_cast<std::size_t>(j)]);
  }
  return v;
}

// Job ids and hostnames have fixed widths so the store's footprint does not
// depend on the seed.
constexpr int kFirstJobId = 4200100;

int parse_index(std::string_view text, std::string_view prefix, int base, int limit) {
  if (text.substr(0, prefix.size()) != prefix) return -1;
  text.remove_prefix(prefix.size());
  int v = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || ptr != text.data() + text.size()) return -1;
  v -= base;
  return v >= 0 && v < limit ? v : -1;
}

void append_tags(std::string& out, const SeriesShape& s, const std::string& host,
                 const std::string* job, const std::string* user) {
  // Tags in key order, the canonical form the store keys series by.
  out += s.measurement;
  if (s.tag_key != nullptr && std::string_view(s.tag_key) < "hostname") {
    out += ',';
    out += s.tag_key;
    out += '=';
    out += s.tag_value;
  }
  out += ",hostname=";
  out += host;
  if (job != nullptr) {
    out += ",jobid=";
    out += *job;
  }
  if (s.tag_key != nullptr && std::string_view(s.tag_key) > "hostname") {
    out += ',';
    out += s.tag_key;
    out += '=';
    out += s.tag_value;
  }
  if (user != nullptr) {
    out += ",user=";
    out += *user;
  }
}

}  // namespace

const std::vector<SeriesShape>& series_shapes() {
  static const std::vector<SeriesShape> shapes = [] {
    std::vector<SeriesShape> v;
    for (const char* core : {"cpu0", "cpu1", "cpu2", "cpu3", "cpu-total"}) {
      v.push_back({"cpu", "cpu", core,
                   {kPercent("user_percent"), kPercent("system_percent"),
                    kPercent("idle_percent")}});
    }
    v.push_back({"memory", nullptr, nullptr, {kPercent("used_percent")}});
    v.push_back({"network", nullptr, nullptr,
                 {{"rx_bytes_per_sec", 1 << 20, 16.0}, {"tx_bytes_per_sec", 1 << 20, 16.0}}});
    for (const char* socket : {"0", "1"}) {
      v.push_back({"likwid_mem_dp", "socket", socket,
                   {{"dp_mflop_per_s", 1 << 16, 0.25},
                    {"memory_bandwidth_mbytes_per_s", 1 << 18, 0.25},
                    {"ipc", 64, 1.0 / 16}}});
    }
    return v;
  }();
  return shapes;
}

int host_index(std::string_view hostname) { return parse_index(hostname, "node", 0, kHosts); }

int lines_per_batch() { return static_cast<int>(series_shapes().size()); }

int fields_per_batch() {
  int n = 0;
  for (const auto& s : series_shapes()) n += static_cast<int>(s.fields.size());
  return n;
}

void append_number(std::string& out, double v) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, ec == std::errc() ? ptr : buf);
}

void append_number(std::string& out, std::int64_t v) {
  char buf[24];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, ec == std::errc() ? ptr : buf);
}

Model::Model(std::uint64_t seed) : seed_(seed) {
  std::mt19937_64 rng(splitmix(seed));
  char name[16];
  for (int h = 0; h < kHosts; ++h) {
    std::snprintf(name, sizeof(name), "node%03d", h);
    hosts_.emplace_back(name);
  }
  for (int j = 0; j < kJobs; ++j) job_ids_.push_back(std::to_string(kFirstJobId + j));
  for (int u = 0; u < kUsers; ++u) users_.push_back("user" + std::to_string(u));
  // Seeded allocation: job j runs on hosts perm[16j .. 16j+15].
  const std::vector<int> perm = shuffled(rng, kHosts);
  job_of_host_.assign(kHosts, -1);
  job_hosts_.resize(kJobs);
  for (int i = 0; i < kHosts; ++i) {
    const int h = perm[static_cast<std::size_t>(i)];
    job_of_host_[static_cast<std::size_t>(h)] = i / kHostsPerJob;
    job_hosts_[static_cast<std::size_t>(i / kHostsPerJob)].push_back(h);
  }
  write_order_ = shuffled(rng, kHosts);
  job_order_ = shuffled(rng, kJobs);
}

double Model::value(int h, int series, int field, std::int64_t tick) const {
  const FieldShape& f =
      series_shapes()[static_cast<std::size_t>(series)].fields[static_cast<std::size_t>(field)];
  const std::uint64_t key = (static_cast<std::uint64_t>(h) << 40) ^
                            (static_cast<std::uint64_t>(series) << 32) ^
                            (static_cast<std::uint64_t>(field) << 24) ^
                            static_cast<std::uint64_t>(tick);
  return static_cast<double>(splitmix(seed_ ^ splitmix(key)) % f.modulus) * f.scale;
}

std::string Model::batch(int h, std::int64_t tick) const {
  std::string out;
  out.reserve(1024);
  const auto& shapes = series_shapes();
  const std::int64_t t = kT0 + tick * kTickNs;
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    append_tags(out, shapes[s], host(h), nullptr, nullptr);
    for (std::size_t f = 0; f < shapes[s].fields.size(); ++f) {
      out += f == 0 ? ' ' : ',';
      out += shapes[s].fields[f].name;
      out += '=';
      append_number(out, value(h, static_cast<int>(s), static_cast<int>(f), tick));
    }
    out += ' ';
    append_number(out, t);
    out += '\n';
  }
  return out;
}

bool Model::write_snapshot(const std::string& path) const {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(std::fopen(path.c_str(), "w"),
                                                             &std::fclose);
  if (!file) return false;
  std::string buf = "# lms-snapshot v1\n# database: lms\n";
  const auto& shapes = series_shapes();
  // Series-major, time-ordered within a series: the order save_snapshot
  // writes a running daemon's store in.
  for (int h = 0; h < kHosts; ++h) {
    const int j = job_of(h);
    for (std::size_t s = 0; s < shapes.size(); ++s) {
      std::string prefix;
      append_tags(prefix, shapes[s], host(h), &job_id(j), &user_of_job(j));
      for (std::int64_t k = 0; k < kWarmTicks; ++k) {
        buf += prefix;
        for (std::size_t f = 0; f < shapes[s].fields.size(); ++f) {
          buf += f == 0 ? ' ' : ',';
          buf += shapes[s].fields[f].name;
          buf += '=';
          append_number(buf, value(h, static_cast<int>(s), static_cast<int>(f), k));
        }
        buf += ' ';
        append_number(buf, kT0 + k * kTickNs);
        buf += '\n';
      }
      if (std::fwrite(buf.data(), 1, buf.size(), file.get()) != buf.size()) return false;
      buf.clear();
    }
  }
  return std::fflush(file.get()) == 0;
}

std::string Model::check_query(std::string_view query_text,
                               const lms::json::Value& response) const {
  namespace tsdb = lms::tsdb;
  auto parsed = tsdb::parse_query(query_text, kWindowEnd);
  if (!parsed.ok()) return "unparseable panel query: " + parsed.message();
  const tsdb::SelectStatement& st = parsed->select;
  if (parsed->kind != tsdb::StatementKind::kSelect || st.fields.size() != 1 ||
      st.fields[0].agg != tsdb::Aggregator::kMean || !st.group_by_time || !st.time_min ||
      !st.time_max) {
    return "panel query outside the oracle's shape";
  }
  const auto& shapes = series_shapes();
  std::vector<int> series;
  int field = -1;
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    if (st.measurement != shapes[s].measurement) continue;
    series.push_back(static_cast<int>(s));
    for (std::size_t f = 0; f < shapes[s].fields.size(); ++f) {
      if (st.fields[0].field == shapes[s].fields[f].name) field = static_cast<int>(f);
    }
  }
  if (series.empty() || field < 0) return "panel query reads an unknown field";
  int job = -1;
  int only_host = -1;
  for (const auto& c : st.tag_conditions) {
    if (c.negated || c.glob) return "panel query with a non-equality tag filter";
    if (c.key == "jobid") {
      job = parse_index(c.value, "", kFirstJobId, kJobs);
    } else if (c.key == "hostname") {
      only_host = host_index(c.value);
    } else {
      return "panel query filters on tag " + c.key;
    }
  }
  if (job < 0) return "panel query without a known jobid";
  if (only_host >= 0 && job_of(only_host) != job) return "panel query mixes host and job";
  const TimeNs from = *st.time_min;
  const TimeNs to = *st.time_max;
  const TimeNs window = *st.group_by_time;
  if (from < kT0 || to > kWindowEnd || window <= 0) return "panel query outside the warm window";
  const bool by_host = st.group_by_tags == std::vector<std::string>{"hostname"};
  if (!by_host && !st.group_by_tags.empty()) return "panel query groups by an unknown tag";

  std::vector<std::vector<int>> groups;
  if (only_host >= 0) {
    groups.push_back({only_host});
  } else if (by_host) {
    for (int h : hosts_of_job(job)) groups.push_back({h});
  } else {
    groups.push_back(hosts_of_job(job));
  }

  const lms::json::Value& out = response["results"][0]["series"];
  if (!out.is_array() || out.get_array().size() != groups.size()) {
    return "expected " + std::to_string(groups.size()) + " result series";
  }
  std::vector<bool> seen(groups.size(), false);
  for (const lms::json::Value& rs : out.get_array()) {
    std::size_t g = 0;
    if (by_host && only_host < 0) {
      const int h = host_index(rs["tags"]["hostname"].as_string());
      const auto& hs = hosts_of_job(job);
      const auto it = std::find(hs.begin(), hs.end(), h);
      if (it == hs.end()) return "result series for a host outside the job";
      g = static_cast<std::size_t>(it - hs.begin());
    }
    if (seen[g]) return "duplicate result series";
    seen[g] = true;
    const lms::json::Value& rows = rs["values"];
    if (!rows.is_array()) return "result series without values";
    std::size_t row = 0;
    for (TimeNs t = from - (from % window); t < to; t += window) {
      // Ticks whose timestamps fall in [max(t, from), min(t + window, to)).
      const TimeNs lo = std::max(t, from) - kT0;
      const TimeNs hi = std::min(t + window, to) - kT0;
      double sum = 0;
      int n = 0;
      for (std::int64_t k = (lo + kTickNs - 1) / kTickNs; k * kTickNs < hi; ++k) {
        for (int h : groups[g]) {
          for (int s : series) {
            sum += value(h, s, field, k);
            ++n;
          }
        }
      }
      if (n == 0) continue;
      if (row >= rows.get_array().size()) return "too few rows";
      const lms::json::Value& r = rows[row++];
      if (r[0].as_int(-1) != t) return "bucket time mismatch";
      if (!r[1].is_number() || r[1].get_double() != sum / n) {
        return "value mismatch in bucket " + std::to_string(t) + ": got " + r[1].dump() +
               ", expected " + std::to_string(sum / n);
      }
    }
    if (row != rows.get_array().size()) return "too many rows";
  }
  return {};
}

}  // namespace lmsbench

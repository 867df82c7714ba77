#pragma once

// Mini-InfluxQL query engine over tsdb::Storage.
//
// Supported statements (the subset the dashboard agent, the analysis layer
// and users of the stack need):
//
//   SELECT <expr>[, ...] FROM <measurement>
//     [WHERE <tag>='v' [AND ...] [AND time >= T] [AND time < T]]
//     [GROUP BY time(<dur>)[, <tagkey>...]] [fill(null|none|0|previous)]
//     [ORDER BY time DESC] [LIMIT n]
//   SHOW DATABASES | SHOW MEASUREMENTS | SHOW SERIES [FROM m] |
//   SHOW FIELD KEYS FROM m | SHOW TAG KEYS FROM m |
//   SHOW TAG VALUES FROM m WITH KEY = "k" |
//   EXPLAIN SELECT ...  (scan statistics only — series, points, shards)
//
//   <expr> := field | <agg>(field) [AS alias] | percentile(field, p)
//           | derivative(field[, <dur>])
//   <agg>  := mean|sum|min|max|count|first|last|stddev|median|spread|rate
//   time literals: integer nanoseconds, or now() - <dur>; <dur> like 90s,
//   10m, 1h, 500ms, 2d.

#include <optional>
#include <string>
#include <vector>

#include "lms/tsdb/storage.hpp"
#include "lms/util/status.hpp"

namespace lms::tsdb {

/// Parse a duration literal like "10s", "5m", "1h30m" -> nanoseconds.
util::Result<TimeNs> parse_duration(std::string_view text);

/// Render nanoseconds as the shortest duration literal ("600s" -> "10m").
std::string format_duration_literal(TimeNs ns);

enum class Aggregator {
  kNone,  // raw selection
  kMean,
  kSum,
  kMin,
  kMax,
  kCount,
  kFirst,
  kLast,
  kStddev,
  kMedian,
  kSpread,
  kPercentile,
  kDerivative,
  kRate,  // non-negative derivative
};

struct FieldExpr {
  Aggregator agg = Aggregator::kNone;
  std::string field;
  std::string alias;          // output column name
  double param = 0.0;         // percentile value
  TimeNs unit = 0;            // derivative unit (0 = per second)
};

enum class FillMode { kNone, kNull, kZero, kPrevious };

struct TagCondition {
  std::string key;
  std::string value;   // literal, or a glob when `glob` is set
  bool negated = false;  // key != 'value' / key !~ 'glob'
  bool glob = false;     // key =~ 'h*' (cannot use the tag index)
};

struct SelectStatement {
  std::vector<FieldExpr> fields;
  std::string measurement;
  std::vector<TagCondition> tag_conditions;
  std::optional<TimeNs> time_min;  // inclusive
  std::optional<TimeNs> time_max;  // exclusive
  std::optional<TimeNs> group_by_time;
  std::vector<std::string> group_by_tags;
  FillMode fill = FillMode::kNone;
  bool order_desc = false;
  std::optional<std::size_t> limit;
};

enum class StatementKind {
  kSelect,
  kShowDatabases,
  kShowMeasurements,
  kShowSeries,
  kShowFieldKeys,
  kShowTagKeys,
  kShowTagValues,
};

struct Statement {
  StatementKind kind = StatementKind::kSelect;
  SelectStatement select;     // for kSelect
  std::string measurement;    // for SHOW ... FROM m
  std::string with_key;       // for SHOW TAG VALUES
  /// "EXPLAIN SELECT ...": walk the same series/columns and report the scan
  /// statistics, but skip materializing result rows.
  bool explain = false;
};

/// Parse one statement. `now` resolves now() in time conditions.
util::Result<Statement> parse_query(std::string_view text, TimeNs now);

/// Query-engine introspection: what one statement actually scanned. Filled
/// by execute()/Engine::query() when the caller passes a stats out-param,
/// attached to the per-query span, the slow-query ring and EXPLAIN output.
struct QueryStats {
  std::uint64_t measurements_scanned = 0;  ///< >1 only for measurement globs
  std::uint64_t series_scanned = 0;        ///< series surviving tag filtering
  std::uint64_t points_examined = 0;       ///< samples gathered across field exprs
  std::uint64_t shards_touched = 0;        ///< distinct storage stripes hit
};

/// The read behind every select: the samples of `field` in [tmin, tmax)
/// across `group`, taken in series order and std::sort-ed by time (equal
/// timestamps keep no defined order, but the same input always sorts the
/// same way). `points_examined`, when non-null, counts the samples in range,
/// also in count-only mode, where nothing is materialized (the EXPLAIN path).
std::vector<Sample> gather(const std::vector<const Series*>& group, const std::string& field,
                           std::optional<TimeNs> tmin, std::optional<TimeNs> tmax,
                           std::uint64_t* points_examined = nullptr, bool materialize = true);

/// Raw-select semantics over gather()'s output: one sample per timestamp,
/// the last one after the sort. A host with several series of one
/// measurement (per-core cpu, per-socket HPM fields) or a column with
/// duplicate timestamps therefore yields one value per timestamp.
void keep_last_per_time(std::vector<Sample>& samples);

/// Marker value used in result rows for missing cells under fill(null);
/// encoded as JSON null by to_influx_json().
const FieldValue& null_cell();

/// True if a result cell is the fill(null) marker.
bool is_null_cell(const FieldValue& v);

/// One output series of a query.
struct ResultSeries {
  std::string name;
  std::vector<Tag> tags;                         // group-by tag values
  std::vector<std::string> columns;              // "time", then field aliases
  std::vector<std::vector<FieldValue>> values;   // rows; col 0 = time (int)
};

struct QueryResult {
  std::vector<ResultSeries> series;
};

/// Execute against a read snapshot (the snapshot keeps the series views
/// stable for the duration of the query). An empty snapshot is an error.
/// `stats`, when non-null, receives the scan statistics; for explain
/// statements the result is empty and only the statistics are produced.
util::Result<QueryResult> execute(const ReadSnapshot& snapshot, const Statement& stmt,
                                  QueryStats* stats = nullptr);

/// Execute against one database. Concurrency note: the caller must hold a
/// ReadSnapshot of this database (or be the sole thread touching it, as in
/// unit tests); prefer the snapshot overload.
util::Result<QueryResult> execute(const Database& db, const Statement& stmt,
                                  QueryStats* stats = nullptr);

/// Convenience façade combining storage, snapshotting, parsing and execution.
class Engine {
 public:
  explicit Engine(Storage& storage) : storage_(storage) {}

  /// Parse + execute `query` against database `db`.
  util::Result<QueryResult> query(const std::string& db, std::string_view query_text,
                                  TimeNs now, QueryStats* stats = nullptr);

  /// SHOW DATABASES works without a database.
  Storage& storage() { return storage_; }

 private:
  Storage& storage_;
};

/// Encode a result in the InfluxDB JSON wire shape:
/// {"results":[{"statement_id":0,"series":[{"name":..,"columns":[..],
///   "values":[[..],..]}]}]}
std::string to_influx_json(const QueryResult& result);
std::string influx_error_json(std::string_view message);

}  // namespace lms::tsdb

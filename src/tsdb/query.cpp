#include "lms/tsdb/query.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <map>

#include "lms/json/json.hpp"
#include "lms/util/strings.hpp"

namespace lms::tsdb {

util::Result<TimeNs> parse_duration(std::string_view text) {
  if (text.empty()) return util::Result<TimeNs>::error("empty duration");
  TimeNs total = 0;
  std::size_t i = 0;
  while (i < text.size()) {
    std::size_t j = i;
    while (j < text.size() && (std::isdigit(static_cast<unsigned char>(text[j])) != 0)) ++j;
    if (j == i) return util::Result<TimeNs>::error("bad duration '" + std::string(text) + "'");
    const auto num = util::parse_int64(text.substr(i, j - i));
    if (!num) return util::Result<TimeNs>::error("bad duration '" + std::string(text) + "'");
    std::size_t k = j;
    while (k < text.size() && (std::isalpha(static_cast<unsigned char>(text[k])) != 0 ||
                               text[k] == 'u')) {
      ++k;
    }
    const std::string_view unit = text.substr(j, k - j);
    TimeNs mult = 0;
    if (unit == "ns") {
      mult = 1;
    } else if (unit == "u" || unit == "us") {
      mult = util::kNanosPerMicro;
    } else if (unit == "ms") {
      mult = util::kNanosPerMilli;
    } else if (unit == "s") {
      mult = util::kNanosPerSecond;
    } else if (unit == "m") {
      mult = util::kNanosPerMinute;
    } else if (unit == "h") {
      mult = util::kNanosPerHour;
    } else if (unit == "d") {
      mult = 24 * util::kNanosPerHour;
    } else if (unit == "w") {
      mult = 7 * 24 * util::kNanosPerHour;
    } else {
      return util::Result<TimeNs>::error("bad duration unit '" + std::string(unit) + "'");
    }
    total += *num * mult;
    i = k;
  }
  return total;
}

std::string format_duration_literal(TimeNs ns) {
  struct Unit {
    TimeNs mult;
    const char* name;
  };
  static constexpr Unit kUnits[] = {{7 * 24 * util::kNanosPerHour, "w"},
                                    {24 * util::kNanosPerHour, "d"},
                                    {util::kNanosPerHour, "h"},
                                    {util::kNanosPerMinute, "m"},
                                    {util::kNanosPerSecond, "s"},
                                    {util::kNanosPerMilli, "ms"},
                                    {util::kNanosPerMicro, "us"},
                                    {1, "ns"}};
  for (const auto& u : kUnits) {
    if (ns >= u.mult && ns % u.mult == 0) {
      return std::to_string(ns / u.mult) + u.name;
    }
  }
  return std::to_string(ns) + "ns";
}

namespace {

// ---------------------------------------------------------------- tokenizer

enum class TokKind { kIdent, kString, kNumber, kPunct, kEnd };

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;   // ident (unquoted), string content, number text, punct
  bool quoted = false;  // identifier was "quoted"
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) { advance(); }

  const Token& peek() const { return current_; }

  Token next() {
    Token t = current_;
    advance();
    return t;
  }

  bool accept_keyword(std::string_view kw) {
    if (current_.kind == TokKind::kIdent && !current_.quoted &&
        util::iequals(current_.text, kw)) {
      advance();
      return true;
    }
    return false;
  }

  bool accept_punct(std::string_view p) {
    if (current_.kind == TokKind::kPunct && current_.text == p) {
      advance();
      return true;
    }
    return false;
  }

 private:
  void advance() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
    if (pos_ >= text_.size()) {
      current_ = Token{TokKind::kEnd, "", false};
      return;
    }
    const char c = text_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_') {
      std::size_t j = pos_;
      while (j < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[j])) != 0 || text_[j] == '_' ||
              text_[j] == '.' || text_[j] == '-')) {
        ++j;
      }
      current_ = Token{TokKind::kIdent, std::string(text_.substr(pos_, j - pos_)), false};
      pos_ = j;
      return;
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      std::size_t j = pos_ + 1;
      std::string out;
      while (j < text_.size() && text_[j] != quote) {
        if (text_[j] == '\\' && j + 1 < text_.size()) ++j;
        out.push_back(text_[j]);
        ++j;
      }
      pos_ = j < text_.size() ? j + 1 : j;
      current_ = Token{quote == '"' ? TokKind::kIdent : TokKind::kString, std::move(out),
                       quote == '"'};
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0 ||
        (c == '-' && pos_ + 1 < text_.size() &&
         std::isdigit(static_cast<unsigned char>(text_[pos_ + 1])) != 0)) {
      std::size_t j = pos_ + 1;
      while (j < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[j])) != 0 || text_[j] == '.')) {
        ++j;
      }
      current_ = Token{TokKind::kNumber, std::string(text_.substr(pos_, j - pos_)), false};
      pos_ = j;
      return;
    }
    // Multi-char punct: >=, <=, !=, =~, !~
    if (pos_ + 1 < text_.size()) {
      const std::string_view two = text_.substr(pos_, 2);
      if (two == ">=" || two == "<=" || two == "!=" || two == "=~" || two == "!~") {
        current_ = Token{TokKind::kPunct, std::string(two), false};
        pos_ += 2;
        return;
      }
    }
    current_ = Token{TokKind::kPunct, std::string(1, c), false};
    ++pos_;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  Token current_;
};

// ------------------------------------------------------------------ parser

using util::Result;

Result<Statement> parse_error(std::string why) {
  return Result<Statement>::error("query: " + std::move(why));
}

std::optional<Aggregator> aggregator_from_name(std::string_view name) {
  const std::string n = util::to_lower(name);
  if (n == "mean") return Aggregator::kMean;
  if (n == "sum") return Aggregator::kSum;
  if (n == "min") return Aggregator::kMin;
  if (n == "max") return Aggregator::kMax;
  if (n == "count") return Aggregator::kCount;
  if (n == "first") return Aggregator::kFirst;
  if (n == "last") return Aggregator::kLast;
  if (n == "stddev") return Aggregator::kStddev;
  if (n == "median") return Aggregator::kMedian;
  if (n == "spread") return Aggregator::kSpread;
  if (n == "percentile") return Aggregator::kPercentile;
  if (n == "derivative") return Aggregator::kDerivative;
  if (n == "rate") return Aggregator::kRate;
  return std::nullopt;
}

std::string aggregator_name(Aggregator a) {
  switch (a) {
    case Aggregator::kMean:
      return "mean";
    case Aggregator::kSum:
      return "sum";
    case Aggregator::kMin:
      return "min";
    case Aggregator::kMax:
      return "max";
    case Aggregator::kCount:
      return "count";
    case Aggregator::kFirst:
      return "first";
    case Aggregator::kLast:
      return "last";
    case Aggregator::kStddev:
      return "stddev";
    case Aggregator::kMedian:
      return "median";
    case Aggregator::kSpread:
      return "spread";
    case Aggregator::kPercentile:
      return "percentile";
    case Aggregator::kDerivative:
      return "derivative";
    case Aggregator::kRate:
      return "rate";
    case Aggregator::kNone:
      return "value";
  }
  return "value";
}

/// Parse a time operand: integer ns, or now() [- duration].
Result<TimeNs> parse_time_operand(Lexer& lex, TimeNs now) {
  if (lex.peek().kind == TokKind::kNumber) {
    Token t = lex.next();
    // Either plain ns or a duration literal like 10m.
    if (t.text.find_first_not_of("-0123456789") == std::string::npos) {
      const auto v = util::parse_int64(t.text);
      if (!v) return Result<TimeNs>::error("bad time literal '" + t.text + "'");
      return *v;
    }
    auto d = parse_duration(t.text);
    if (!d.ok()) return d;
    return d;
  }
  if (lex.peek().kind == TokKind::kIdent && util::iequals(lex.peek().text, "now")) {
    lex.next();
    if (!lex.accept_punct("(") || !lex.accept_punct(")")) {
      return Result<TimeNs>::error("expected now()");
    }
    TimeNs t = now;
    while (true) {
      if (lex.accept_punct("-")) {
        if (lex.peek().kind != TokKind::kNumber) {
          return Result<TimeNs>::error("expected duration after now() -");
        }
        auto d = parse_duration(lex.next().text);
        if (!d.ok()) return d;
        t -= *d;
      } else if (lex.accept_punct("+")) {
        if (lex.peek().kind != TokKind::kNumber) {
          return Result<TimeNs>::error("expected duration after now() +");
        }
        auto d = parse_duration(lex.next().text);
        if (!d.ok()) return d;
        t += *d;
      } else {
        break;
      }
    }
    return t;
  }
  return Result<TimeNs>::error("bad time operand near '" + lex.peek().text + "'");
}

Result<Statement> parse_select(Lexer& lex, TimeNs now) {
  Statement stmt;
  stmt.kind = StatementKind::kSelect;
  SelectStatement& sel = stmt.select;

  // Field expressions.
  while (true) {
    FieldExpr fe;
    if (lex.peek().kind != TokKind::kIdent) {
      return parse_error("expected field expression near '" + lex.peek().text + "'");
    }
    Token first = lex.next();
    if (!first.quoted && lex.accept_punct("(")) {
      const auto agg = aggregator_from_name(first.text);
      if (!agg) return parse_error("unknown function '" + first.text + "'");
      fe.agg = *agg;
      if (lex.peek().kind != TokKind::kIdent) {
        return parse_error("expected field name in " + first.text + "()");
      }
      fe.field = lex.next().text;
      if (fe.agg == Aggregator::kPercentile) {
        if (!lex.accept_punct(",") || lex.peek().kind != TokKind::kNumber) {
          return parse_error("percentile(field, p) requires a number");
        }
        const auto p = util::parse_double(lex.next().text);
        if (!p) return parse_error("bad percentile value");
        fe.param = *p;
      } else if ((fe.agg == Aggregator::kDerivative || fe.agg == Aggregator::kRate) &&
                 lex.accept_punct(",")) {
        if (lex.peek().kind != TokKind::kNumber) {
          return parse_error("derivative unit must be a duration");
        }
        auto d = parse_duration(lex.next().text);
        if (!d.ok()) return parse_error(d.message());
        fe.unit = *d;
      }
      if (!lex.accept_punct(")")) return parse_error("missing ')' in function call");
      fe.alias = aggregator_name(fe.agg);
    } else {
      fe.field = first.text;
      fe.alias = first.text;
    }
    if (lex.accept_keyword("as")) {
      if (lex.peek().kind != TokKind::kIdent) return parse_error("expected alias after AS");
      fe.alias = lex.next().text;
    }
    sel.fields.push_back(std::move(fe));
    if (!lex.accept_punct(",")) break;
  }

  if (!lex.accept_keyword("from")) return parse_error("expected FROM");
  if (lex.peek().kind != TokKind::kIdent) return parse_error("expected measurement after FROM");
  sel.measurement = lex.next().text;
  // Convenience: a bare trailing '*' extends the measurement into a glob
  // ("FROM likwid_*"); arbitrary glob patterns can be double-quoted.
  while (lex.accept_punct("*")) sel.measurement += '*';

  if (lex.accept_keyword("where")) {
    while (true) {
      if (lex.peek().kind != TokKind::kIdent) {
        return parse_error("expected condition near '" + lex.peek().text + "'");
      }
      Token key = lex.next();
      if (!key.quoted && util::iequals(key.text, "time")) {
        std::string op;
        for (const char* candidate : {">=", "<=", ">", "<", "="}) {
          if (lex.accept_punct(candidate)) {
            op = candidate;
            break;
          }
        }
        if (op.empty()) return parse_error("bad time comparison");
        auto t = parse_time_operand(lex, now);
        if (!t.ok()) return parse_error(t.message());
        if (op == ">=") {
          sel.time_min = *t;
        } else if (op == ">") {
          sel.time_min = *t + 1;
        } else if (op == "<=") {
          sel.time_max = *t + 1;
        } else if (op == "<") {
          sel.time_max = *t;
        } else {  // '=': exact instant
          sel.time_min = *t;
          sel.time_max = *t + 1;
        }
      } else {
        TagCondition tc;
        tc.key = key.text;
        if (lex.accept_punct("=")) {
          tc.negated = false;
        } else if (lex.accept_punct("!=")) {
          tc.negated = true;
        } else if (lex.accept_punct("=~")) {
          tc.glob = true;
        } else if (lex.accept_punct("!~")) {
          tc.glob = true;
          tc.negated = true;
        } else {
          return parse_error("expected =, !=, =~ or !~ after tag '" + tc.key + "'");
        }
        if (lex.peek().kind != TokKind::kString) {
          return parse_error("tag value must be a 'string' for tag '" + tc.key + "'");
        }
        tc.value = lex.next().text;
        sel.tag_conditions.push_back(std::move(tc));
      }
      if (!lex.accept_keyword("and")) break;
    }
  }

  if (lex.accept_keyword("group")) {
    if (!lex.accept_keyword("by")) return parse_error("expected BY after GROUP");
    while (true) {
      if (lex.peek().kind == TokKind::kIdent && util::iequals(lex.peek().text, "time") &&
          !lex.peek().quoted) {
        lex.next();
        if (!lex.accept_punct("(")) return parse_error("expected ( after time");
        if (lex.peek().kind != TokKind::kNumber) return parse_error("expected duration");
        auto d = parse_duration(lex.next().text);
        if (!d.ok()) return parse_error(d.message());
        if (*d <= 0) return parse_error("group-by interval must be positive");
        sel.group_by_time = *d;
        if (!lex.accept_punct(")")) return parse_error("expected ) after duration");
      } else if (lex.peek().kind == TokKind::kIdent) {
        sel.group_by_tags.push_back(lex.next().text);
      } else if (lex.accept_punct("*")) {
        sel.group_by_tags.push_back("*");
      } else {
        return parse_error("bad GROUP BY term near '" + lex.peek().text + "'");
      }
      if (!lex.accept_punct(",")) break;
    }
  }

  if (lex.peek().kind == TokKind::kIdent && util::iequals(lex.peek().text, "fill")) {
    lex.next();
    if (!lex.accept_punct("(")) return parse_error("expected ( after fill");
    Token mode = lex.next();
    if (util::iequals(mode.text, "null")) {
      sel.fill = FillMode::kNull;
    } else if (util::iequals(mode.text, "none")) {
      sel.fill = FillMode::kNone;
    } else if (mode.text == "0") {
      sel.fill = FillMode::kZero;
    } else if (util::iequals(mode.text, "previous")) {
      sel.fill = FillMode::kPrevious;
    } else {
      return parse_error("bad fill mode '" + mode.text + "'");
    }
    if (!lex.accept_punct(")")) return parse_error("expected ) after fill mode");
  }

  if (lex.accept_keyword("order")) {
    if (!lex.accept_keyword("by")) return parse_error("expected BY after ORDER");
    if (lex.peek().kind != TokKind::kIdent || !util::iequals(lex.peek().text, "time")) {
      return parse_error("only ORDER BY time is supported");
    }
    lex.next();
    if (lex.accept_keyword("desc")) {
      sel.order_desc = true;
    } else {
      lex.accept_keyword("asc");
    }
  }

  if (lex.accept_keyword("limit")) {
    if (lex.peek().kind != TokKind::kNumber) return parse_error("expected LIMIT count");
    const auto n = util::parse_int64(lex.next().text);
    if (!n || *n < 0) return parse_error("bad LIMIT");
    sel.limit = static_cast<std::size_t>(*n);
  }

  if (lex.peek().kind != TokKind::kEnd) {
    return parse_error("unexpected trailing token '" + lex.peek().text + "'");
  }
  return stmt;
}

Result<Statement> parse_show(Lexer& lex) {
  Statement stmt;
  if (lex.accept_keyword("databases")) {
    stmt.kind = StatementKind::kShowDatabases;
    return stmt;
  }
  if (lex.accept_keyword("measurements")) {
    stmt.kind = StatementKind::kShowMeasurements;
    return stmt;
  }
  if (lex.accept_keyword("series")) {
    stmt.kind = StatementKind::kShowSeries;
    if (lex.accept_keyword("from")) {
      if (lex.peek().kind != TokKind::kIdent) return parse_error("expected measurement");
      stmt.measurement = lex.next().text;
    }
    return stmt;
  }
  const bool field_keys = lex.accept_keyword("field");
  const bool tag = !field_keys && lex.accept_keyword("tag");
  if (field_keys || tag) {
    bool values = false;
    if (field_keys) {
      if (!lex.accept_keyword("keys")) return parse_error("expected SHOW FIELD KEYS");
      stmt.kind = StatementKind::kShowFieldKeys;
    } else {
      if (lex.accept_keyword("keys")) {
        stmt.kind = StatementKind::kShowTagKeys;
      } else if (lex.accept_keyword("values")) {
        stmt.kind = StatementKind::kShowTagValues;
        values = true;
      } else {
        return parse_error("expected KEYS or VALUES after SHOW TAG");
      }
    }
    if (lex.accept_keyword("from")) {
      if (lex.peek().kind != TokKind::kIdent) return parse_error("expected measurement");
      stmt.measurement = lex.next().text;
    }
    if (values) {
      if (!lex.accept_keyword("with")) return parse_error("expected WITH KEY =");
      if (!lex.accept_keyword("key")) return parse_error("expected WITH KEY =");
      if (!lex.accept_punct("=")) return parse_error("expected WITH KEY =");
      if (lex.peek().kind != TokKind::kIdent && lex.peek().kind != TokKind::kString) {
        return parse_error("expected tag key");
      }
      stmt.with_key = lex.next().text;
    }
    return stmt;
  }
  return parse_error("unsupported SHOW statement");
}

}  // namespace

util::Result<Statement> parse_query(std::string_view text, TimeNs now) {
  Lexer lex(text);
  if (lex.accept_keyword("explain")) {
    if (!lex.accept_keyword("select")) return parse_error("expected SELECT after EXPLAIN");
    auto stmt = parse_select(lex, now);
    if (stmt.ok()) stmt->explain = true;
    return stmt;
  }
  if (lex.accept_keyword("select")) return parse_select(lex, now);
  if (lex.accept_keyword("show")) return parse_show(lex);
  return parse_error("expected SELECT, EXPLAIN SELECT or SHOW");
}

// ---------------------------------------------------------------- executor

namespace {
// A distinctive string no producer would write; identity via is_null_cell.
const char kNullMarker[] = "\x01__lms_null__";
}  // namespace

const FieldValue& null_cell() {
  static const FieldValue v{std::string(kNullMarker)};
  return v;
}

bool is_null_cell(const FieldValue& v) { return v.is_string() && v.as_string() == kNullMarker; }

std::vector<Sample> gather(const std::vector<const Series*>& group, const std::string& field,
                           std::optional<TimeNs> tmin, std::optional<TimeNs> tmax,
                           std::uint64_t* points_examined, bool materialize) {
  std::vector<Sample> out;
  for (const Series* s : group) {
    const auto cit = s->columns.find(field);
    if (cit == s->columns.end()) continue;
    const Column& col = cit->second;
    const std::size_t begin = tmin ? col.lower_bound(*tmin) : 0;
    const std::size_t end = tmax ? col.lower_bound(*tmax) : col.size();
    if (points_examined != nullptr) *points_examined += end - begin;
    if (!materialize) continue;
    for (std::size_t i = begin; i < end; ++i) {
      out.push_back(Sample{col.times()[i], col.values()[i]});
    }
  }
  std::sort(out.begin(), out.end(), [](const Sample& a, const Sample& b) { return a.t < b.t; });
  return out;
}

void keep_last_per_time(std::vector<Sample>& samples) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (kept > 0 && samples[kept - 1].t == samples[i].t) {
      samples[kept - 1] = std::move(samples[i]);
    } else {
      if (kept != i) samples[kept] = std::move(samples[i]);
      ++kept;
    }
  }
  samples.resize(kept);
}

namespace {

/// Accumulates scan statistics across the (possibly glob-expanded) selects
/// of one statement; the shard set dedups stripes across measurements.
struct StatsCollector {
  QueryStats stats;
  std::set<std::size_t> shards;
};

std::vector<double> numeric_values(const std::vector<Sample>& samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const auto& s : samples) {
    if (s.v.is_numeric()) out.push_back(s.v.as_double());
  }
  return out;
}

std::optional<FieldValue> apply_aggregator(Aggregator agg, double param,
                                           const std::vector<Sample>& samples) {
  if (samples.empty()) return std::nullopt;
  switch (agg) {
    case Aggregator::kCount:
      return FieldValue(static_cast<std::int64_t>(samples.size()));
    case Aggregator::kFirst:
      return samples.front().v;
    case Aggregator::kLast:
      return samples.back().v;
    default:
      break;
  }
  std::vector<double> vals = numeric_values(samples);
  if (vals.empty()) return std::nullopt;
  switch (agg) {
    case Aggregator::kMean: {
      double sum = 0;
      for (const double v : vals) sum += v;
      return FieldValue(sum / static_cast<double>(vals.size()));
    }
    case Aggregator::kSum: {
      double sum = 0;
      for (const double v : vals) sum += v;
      return FieldValue(sum);
    }
    case Aggregator::kMin:
      return FieldValue(*std::min_element(vals.begin(), vals.end()));
    case Aggregator::kMax:
      return FieldValue(*std::max_element(vals.begin(), vals.end()));
    case Aggregator::kSpread: {
      const auto [mn, mx] = std::minmax_element(vals.begin(), vals.end());
      return FieldValue(*mx - *mn);
    }
    case Aggregator::kStddev: {
      if (vals.size() < 2) return FieldValue(0.0);
      double sum = 0;
      for (const double v : vals) sum += v;
      const double mean = sum / static_cast<double>(vals.size());
      double ss = 0;
      for (const double v : vals) ss += (v - mean) * (v - mean);
      return FieldValue(std::sqrt(ss / static_cast<double>(vals.size() - 1)));
    }
    case Aggregator::kMedian: {
      std::sort(vals.begin(), vals.end());
      const std::size_t n = vals.size();
      return FieldValue(n % 2 == 1 ? vals[n / 2] : 0.5 * (vals[n / 2 - 1] + vals[n / 2]));
    }
    case Aggregator::kPercentile: {
      std::sort(vals.begin(), vals.end());
      const double p = std::clamp(param, 0.0, 100.0);
      // Nearest-rank.
      const std::size_t rank = static_cast<std::size_t>(
          std::ceil(p / 100.0 * static_cast<double>(vals.size())));
      return FieldValue(vals[rank == 0 ? 0 : rank - 1]);
    }
    default:
      return std::nullopt;
  }
}

/// Series of (time, value) per selected expression, post-aggregation.
using ColumnSeries = std::map<TimeNs, FieldValue>;

ColumnSeries evaluate_expr(const FieldExpr& fe, std::vector<Sample> samples,
                           const SelectStatement& sel) {
  ColumnSeries out;
  if (fe.agg == Aggregator::kDerivative || fe.agg == Aggregator::kRate) {
    // First reduce to one value per point (window-mean when grouped).
    std::vector<Sample> base;
    if (sel.group_by_time) {
      const TimeNs dur = *sel.group_by_time;
      std::map<TimeNs, std::vector<Sample>> windows;
      for (const auto& s : samples) {
        windows[(s.t / dur) * dur].push_back(s);
      }
      for (const auto& [start, ws] : windows) {
        if (auto v = apply_aggregator(Aggregator::kMean, 0, ws)) {
          base.push_back(Sample{start, *v});
        }
      }
    } else {
      for (const auto& s : samples) {
        if (s.v.is_numeric()) base.push_back(s);
      }
    }
    const TimeNs unit = fe.unit > 0 ? fe.unit : util::kNanosPerSecond;
    for (std::size_t i = 1; i < base.size(); ++i) {
      const double dt_units =
          static_cast<double>(base[i].t - base[i - 1].t) / static_cast<double>(unit);
      if (dt_units <= 0) continue;
      double d = (base[i].v.as_double() - base[i - 1].v.as_double()) / dt_units;
      if (fe.agg == Aggregator::kRate && d < 0) d = 0;
      out[base[i].t] = FieldValue(d);
    }
    return out;
  }
  if (fe.agg == Aggregator::kNone) {
    keep_last_per_time(samples);
    for (auto& s : samples) out.emplace_hint(out.end(), s.t, std::move(s.v));
    return out;
  }
  if (sel.group_by_time) {
    const TimeNs dur = *sel.group_by_time;
    std::map<TimeNs, std::vector<Sample>> windows;
    for (const auto& s : samples) {
      windows[(s.t / dur) * dur].push_back(s);
    }
    for (const auto& [start, ws] : windows) {
      if (auto v = apply_aggregator(fe.agg, fe.param, ws)) out[start] = *v;
    }
    return out;
  }
  // Whole-range aggregate: single row stamped at the range start.
  if (auto v = apply_aggregator(fe.agg, fe.param, samples)) {
    out[sel.time_min.value_or(samples.empty() ? 0 : samples.front().t)] = *v;
  }
  return out;
}

ResultSeries build_result_series(const SelectStatement& sel, const std::string& name,
                                 std::vector<Tag> group_tags,
                                 const std::vector<ColumnSeries>& columns) {
  ResultSeries rs;
  rs.name = name;
  rs.tags = std::move(group_tags);
  rs.columns.push_back("time");
  for (const auto& fe : sel.fields) rs.columns.push_back(fe.alias);

  // Row key set: union of all column timestamps; with fill + bounded range +
  // group_by_time, generate the full window grid instead.
  std::vector<TimeNs> row_times;
  if (sel.group_by_time && sel.fill != FillMode::kNone && sel.time_min && sel.time_max) {
    const TimeNs dur = *sel.group_by_time;
    for (TimeNs t = (*sel.time_min / dur) * dur; t < *sel.time_max; t += dur) {
      row_times.push_back(t);
    }
  } else {
    std::set<TimeNs> keys;
    for (const auto& col : columns) {
      for (const auto& [t, _] : col) keys.insert(t);
    }
    row_times.assign(keys.begin(), keys.end());
  }

  std::vector<FieldValue> previous(columns.size(), FieldValue(0.0));
  std::vector<bool> has_previous(columns.size(), false);
  for (const TimeNs t : row_times) {
    std::vector<FieldValue> row;
    row.reserve(columns.size() + 1);
    row.emplace_back(static_cast<std::int64_t>(t));
    bool any = false;
    for (std::size_t c = 0; c < columns.size(); ++c) {
      const auto it = columns[c].find(t);
      if (it != columns[c].end()) {
        row.push_back(it->second);
        previous[c] = it->second;
        has_previous[c] = true;
        any = true;
      } else {
        switch (sel.fill) {
          case FillMode::kZero:
            row.emplace_back(0.0);
            break;
          case FillMode::kPrevious:
            row.push_back(has_previous[c] ? previous[c] : FieldValue(0.0));
            break;
          default:
            row.push_back(null_cell());
            break;
        }
      }
    }
    if (!any && sel.fill == FillMode::kNone) continue;
    rs.values.push_back(std::move(row));
  }
  if (sel.order_desc) std::reverse(rs.values.begin(), rs.values.end());
  if (sel.limit && rs.values.size() > *sel.limit) rs.values.resize(*sel.limit);
  return rs;
}

util::Result<QueryResult> execute_select(const Database& db, const SelectStatement& sel,
                                         StatsCollector* sc, bool explain_only) {
  QueryResult result;
  // Tag equality conditions narrow the series set through the index;
  // negations and glob matches filter the candidates afterwards.
  std::vector<Tag> required;
  for (const auto& tc : sel.tag_conditions) {
    if (!tc.negated && !tc.glob) required.emplace_back(tc.key, tc.value);
  }
  std::vector<const Series*> candidates = db.series_matching(sel.measurement, required);
  candidates.erase(
      std::remove_if(candidates.begin(), candidates.end(),
                     [&](const Series* s) {
                       for (const auto& tc : sel.tag_conditions) {
                         const std::string_view v = s->tag(tc.key);
                         if (tc.glob) {
                           const bool matched = util::glob_match(tc.value, v);
                           if (matched == tc.negated) return true;
                         } else if (tc.negated && v == tc.value) {
                           return true;
                         }
                       }
                       return false;
                     }),
      candidates.end());
  if (sc != nullptr) {
    sc->stats.measurements_scanned += 1;
    sc->stats.series_scanned += candidates.size();
    for (const Series* s : candidates) {
      sc->shards.insert(db.shard_of_key(s->measurement, s->tags));
    }
  }
  if (candidates.empty()) return result;

  // Group series by the group-by tag values ("*" = every tag distinct).
  const bool group_all =
      std::find(sel.group_by_tags.begin(), sel.group_by_tags.end(), "*") !=
      sel.group_by_tags.end();
  std::map<std::vector<Tag>, std::vector<const Series*>> groups;
  for (const Series* s : candidates) {
    std::vector<Tag> key;
    if (group_all) {
      key = s->tags;
    } else {
      for (const auto& tk : sel.group_by_tags) {
        key.emplace_back(tk, std::string(s->tag(tk)));
      }
    }
    groups[key].push_back(s);
  }

  std::uint64_t* points_counter = sc != nullptr ? &sc->stats.points_examined : nullptr;
  for (const auto& [group_tags, group_series] : groups) {
    std::vector<ColumnSeries> columns;
    columns.reserve(sel.fields.size());
    for (const auto& fe : sel.fields) {
      std::vector<Sample> samples = gather(group_series, fe.field, sel.time_min, sel.time_max,
                                           points_counter, /*materialize=*/!explain_only);
      if (explain_only) continue;
      columns.push_back(evaluate_expr(fe, std::move(samples), sel));
    }
    if (explain_only) continue;
    ResultSeries rs = build_result_series(sel, sel.measurement, group_tags, columns);
    if (!rs.values.empty()) result.series.push_back(std::move(rs));
  }
  return result;
}

ResultSeries single_column_series(std::string name, std::string column,
                                  const std::vector<std::string>& values) {
  ResultSeries rs;
  rs.name = std::move(name);
  rs.columns.push_back(std::move(column));
  for (const auto& v : values) {
    rs.values.push_back({FieldValue(v)});
  }
  return rs;
}

}  // namespace

util::Result<QueryResult> execute(const Database& db, const Statement& stmt,
                                  QueryStats* stats) {
  StatsCollector collector;
  StatsCollector* sc = stats != nullptr ? &collector : nullptr;
  const auto finish = [&](util::Result<QueryResult> r) {
    if (stats != nullptr) {
      collector.stats.shards_touched = collector.shards.size();
      *stats = collector.stats;
    }
    return r;
  };
  switch (stmt.kind) {
    case StatementKind::kSelect: {
      // Measurement globs ("likwid_*"): run the select once per matching
      // measurement and concatenate, with each result series keeping its
      // concrete measurement name.
      if (stmt.select.measurement.find('*') != std::string::npos ||
          stmt.select.measurement.find('?') != std::string::npos) {
        QueryResult combined;
        for (const auto& m : db.measurements()) {
          if (!util::glob_match(stmt.select.measurement, m)) continue;
          SelectStatement per = stmt.select;
          per.measurement = m;
          auto r = execute_select(db, per, sc, stmt.explain);
          if (!r.ok()) return finish(std::move(r));
          for (auto& rs : r->series) combined.series.push_back(std::move(rs));
        }
        return finish(std::move(combined));
      }
      return finish(execute_select(db, stmt.select, sc, stmt.explain));
    }
    case StatementKind::kShowMeasurements: {
      QueryResult r;
      r.series.push_back(single_column_series("measurements", "name", db.measurements()));
      return r;
    }
    case StatementKind::kShowSeries: {
      std::vector<std::string> keys;
      const std::vector<std::string> measurements =
          stmt.measurement.empty() ? db.measurements()
                                   : std::vector<std::string>{stmt.measurement};
      for (const auto& m : measurements) {
        for (const Series* s : db.series_of(m)) {
          std::string key = s->measurement;
          for (const auto& [k, v] : s->tags) {
            key += "," + k + "=" + v;
          }
          keys.push_back(std::move(key));
        }
      }
      std::sort(keys.begin(), keys.end());
      QueryResult r;
      r.series.push_back(single_column_series("series", "key", keys));
      return r;
    }
    case StatementKind::kShowFieldKeys: {
      QueryResult r;
      r.series.push_back(
          single_column_series(stmt.measurement, "fieldKey", db.field_keys(stmt.measurement)));
      return r;
    }
    case StatementKind::kShowTagKeys: {
      QueryResult r;
      r.series.push_back(
          single_column_series(stmt.measurement, "tagKey", db.tag_keys(stmt.measurement)));
      return r;
    }
    case StatementKind::kShowTagValues: {
      QueryResult r;
      r.series.push_back(single_column_series(
          stmt.measurement, "value", db.tag_values(stmt.measurement, stmt.with_key)));
      return r;
    }
    case StatementKind::kShowDatabases:
      return util::Result<QueryResult>::error("SHOW DATABASES must be run via the Engine");
  }
  return util::Result<QueryResult>::error("unhandled statement kind");
}

util::Result<QueryResult> execute(const ReadSnapshot& snapshot, const Statement& stmt,
                                  QueryStats* stats) {
  if (!snapshot) {
    return util::Result<QueryResult>::error("query against empty snapshot");
  }
  return execute(*snapshot, stmt, stats);
}

util::Result<QueryResult> Engine::query(const std::string& db, std::string_view query_text,
                                        TimeNs now, QueryStats* stats) {
  auto stmt = parse_query(query_text, now);
  if (!stmt.ok()) return util::Result<QueryResult>::error(stmt.message());
  if (stmt->kind == StatementKind::kShowDatabases) {
    QueryResult r;
    ResultSeries rs;
    rs.name = "databases";
    rs.columns.push_back("name");
    for (const auto& name : storage_.databases()) {
      rs.values.push_back({FieldValue(name)});
    }
    r.series.push_back(std::move(rs));
    return r;
  }
  const ReadSnapshot snap = storage_.snapshot(db);
  if (!snap) {
    return util::Result<QueryResult>::error("database '" + db + "' not found");
  }
  return execute(*snap, *stmt, stats);
}

namespace {

json::Value field_to_json(const FieldValue& v) {
  if (is_null_cell(v)) return json::Value(nullptr);
  if (v.is_double()) return json::Value(v.as_double());
  if (v.is_int()) return json::Value(v.as_int());
  if (v.is_bool()) return json::Value(v.as_bool());
  return json::Value(v.as_string());
}

}  // namespace

std::string to_influx_json(const QueryResult& result) {
  json::Array series_arr;
  for (const auto& rs : result.series) {
    json::Object s;
    s["name"] = rs.name;
    if (!rs.tags.empty()) {
      json::Object tags;
      for (const auto& [k, v] : rs.tags) tags[k] = v;
      s["tags"] = std::move(tags);
    }
    json::Array cols;
    for (const auto& c : rs.columns) cols.emplace_back(c);
    s["columns"] = std::move(cols);
    json::Array rows;
    for (const auto& row : rs.values) {
      json::Array r;
      for (const auto& v : row) r.push_back(field_to_json(v));
      rows.emplace_back(std::move(r));
    }
    s["values"] = std::move(rows);
    series_arr.emplace_back(std::move(s));
  }
  json::Object stmt;
  stmt["statement_id"] = 0;
  stmt["series"] = std::move(series_arr);
  json::Object top;
  top["results"] = json::Array{json::Value(std::move(stmt))};
  return json::Value(std::move(top)).dump();
}

std::string influx_error_json(std::string_view message) {
  json::Object top;
  top["error"] = std::string(message);
  return json::Value(std::move(top)).dump();
}

}  // namespace lms::tsdb

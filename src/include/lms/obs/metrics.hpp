#pragma once

// Self-monitoring metrics registry — the stack instrumenting itself.
//
// The paper's companion work on hardware-event validation (Röhl et al.,
// arXiv:1710.04094) makes the case that a monitoring pipeline you cannot
// measure cannot be trusted. This registry is how every LMS component
// exposes its own counters, gauges and latency distributions in a uniform
// way:
//   - Counter: monotonically increasing u64. The increment fast path is a
//     single relaxed atomic add — callers cache the Counter& at setup time,
//     so no lock or map lookup sits on the hot path.
//   - Gauge: last-written double (atomic bit store), or a sampled gauge
//     registered as a callback evaluated at collect time (queue depths,
//     spool sizes).
//   - Histogram: log2-bucketed u64 distribution (64 octaves) with atomic
//     bucket counters; p50/p90/p99 are derived from the buckets at collect
//     time by linear interpolation inside the hit bucket. Recording is two
//     relaxed atomic adds plus a bit-scan — no lock.
//
// Instruments are identified by (name, sorted label set). The registry owns
// them; references stay valid for the registry's lifetime. A process-wide
// Registry::global() exists for transports and ad-hoc call sites; components
// with exact per-instance statistics (router, TSDB API) default to a private
// registry so tests and multi-instance deployments don't cross-pollute.
//
// Two exporters read the registry:
//   render_text()  — Prometheus-style text for the GET /metrics endpoints,
//   to_points()    — line-protocol points under one measurement
//                    ("lms_internal") for the self-scrape loop that feeds
//                    the stack's own TSDB (see exporter.hpp).

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "lms/core/sync.hpp"
#include "lms/lineproto/point.hpp"
#include "lms/obs/trace.hpp"
#include "lms/util/clock.hpp"

namespace lms::obs {

/// Instrument labels: key/value pairs, sorted by key once registered.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonic counter. inc() is a single relaxed atomic add.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  friend class Registry;
  Counter() = default;
  std::atomic<std::uint64_t> v_{0};
};

/// Last-value gauge (double). set()/add() are lock-free.
class Gauge {
 public:
  void set(double v) { bits_.store(std::bit_cast<std::uint64_t>(v), std::memory_order_relaxed); }
  void add(double delta) {
    std::uint64_t cur = bits_.load(std::memory_order_relaxed);
    while (!bits_.compare_exchange_weak(
        cur, std::bit_cast<std::uint64_t>(std::bit_cast<double>(cur) + delta),
        std::memory_order_relaxed)) {
    }
  }
  double value() const { return std::bit_cast<double>(bits_.load(std::memory_order_relaxed)); }

 private:
  friend class Registry;
  Gauge() = default;
  std::atomic<std::uint64_t> bits_{0};
};

/// Log2-bucketed histogram for non-negative integer samples (latencies in
/// ns, sizes in bytes). Bucket b holds values with bit_width(v) == b, i.e.
/// [2^(b-1), 2^b); bucket 0 holds zeros.
class Histogram {
 public:
  static constexpr int kBuckets = 65;

  void record(std::uint64_t v) {
    buckets_[static_cast<std::size_t>(std::bit_width(v))].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    if (exemplar_enabled_.load(std::memory_order_relaxed)) maybe_record_exemplar(v);
  }

  /// Record the elapsed real time since `start_mono` (util::monotonic_now_ns).
  void record_since(util::TimeNs start_mono) {
    const util::TimeNs d = util::monotonic_now_ns() - start_mono;
    record(d > 0 ? static_cast<std::uint64_t>(d) : 0);
  }

  std::uint64_t count() const;
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Quantile estimate (q in [0,1]) by linear interpolation inside the
  /// hit bucket. Log buckets bound the relative error to 2x.
  double percentile(double q) const;

  struct Summary {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    double p50 = 0, p90 = 0, p99 = 0;
  };
  Summary summary() const;

  /// Exemplars: an opt-in link from a latency distribution to one concrete
  /// trace — the trace id active when the slowest observation (since the
  /// last reset) was recorded. An alert firing on p99 can then jump straight
  /// to `GET /trace/<id>` instead of guessing which request was slow. Only
  /// head-sampled traces are eligible (an unsampled trace would dangle).
  struct Exemplar {
    std::uint64_t trace_id = 0;  ///< 0 = no exemplar captured yet
    std::uint64_t value = 0;     ///< the recorded observation (e.g. ns)
  };
  void enable_exemplar() { exemplar_enabled_.store(true, std::memory_order_relaxed); }
  bool exemplar_enabled() const { return exemplar_enabled_.load(std::memory_order_relaxed); }
  Exemplar exemplar() const {
    return Exemplar{ex_trace_.load(std::memory_order_relaxed),
                    ex_value_.load(std::memory_order_relaxed)};
  }
  /// Restart the "slowest recent" window (e.g. after the alert resolved).
  void reset_exemplar() {
    ex_value_.store(0, std::memory_order_relaxed);
    ex_trace_.store(0, std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  Histogram() = default;

  /// value/trace stores are two separate relaxed atomics: a racing reader
  /// can pair a value with a neighbouring trace — acceptable for a
  /// monitoring hint, and the price of keeping record() lock-free.
  void maybe_record_exemplar(std::uint64_t v) {
    if (v < ex_value_.load(std::memory_order_relaxed)) return;
    const TraceContext ctx = current_trace();
    if (!ctx.valid() || !ctx.sampled) return;
    ex_value_.store(v, std::memory_order_relaxed);
    ex_trace_.store(ctx.trace_id, std::memory_order_relaxed);
  }

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<bool> exemplar_enabled_{false};
  std::atomic<std::uint64_t> ex_value_{0};
  std::atomic<std::uint64_t> ex_trace_{0};
};

/// A collected instrument value (see Registry::collect()).
struct Sample {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;
  Labels labels;
  Kind kind = Kind::kCounter;
  double value = 0;               ///< counter / gauge value
  Histogram::Summary histogram;   ///< kHistogram only
  Histogram::Exemplar exemplar;   ///< kHistogram only; trace_id 0 = none
};

/// Named-instrument registry. Lookup interns the instrument under a mutex;
/// returned references remain valid for the registry's lifetime, so callers
/// resolve once and keep the handle on hot paths.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Process-wide default registry (transport-level instrumentation).
  static Registry& global();

  Counter& counter(std::string_view name, Labels labels = {});
  Gauge& gauge(std::string_view name, Labels labels = {});
  Histogram& histogram(std::string_view name, Labels labels = {});

  /// Register a gauge evaluated at collect time (queue depth, spool size).
  /// Re-registering the same (name, labels) replaces the callback.
  void gauge_fn(std::string_view name, Labels labels, std::function<double()> fn);

  /// Remove a sampled gauge (call before the captured object dies).
  void remove_gauge_fn(std::string_view name, const Labels& labels = {});

  /// Snapshot every instrument. Sorted by (name, labels).
  std::vector<Sample> collect() const;

  std::size_t instrument_count() const;

 private:
  struct Key {
    std::string name;
    Labels labels;
    bool operator<(const Key& o) const {
      if (name != o.name) return name < o.name;
      return labels < o.labels;
    }
  };
  static Key make_key(std::string_view name, Labels labels);

  // Near-leaf rank: collect() copies the gauge-callback list out and
  // evaluates it unlocked, so instrument lookup is the only work under mu_.
  mutable core::sync::Mutex mu_{core::sync::Rank::kObsRegistry, "obs.registry"};
  std::map<Key, std::unique_ptr<Counter>> counters_ LMS_GUARDED_BY(mu_);
  std::map<Key, std::unique_ptr<Gauge>> gauges_ LMS_GUARDED_BY(mu_);
  std::map<Key, std::unique_ptr<Histogram>> histograms_ LMS_GUARDED_BY(mu_);
  std::map<Key, std::function<double()>> gauge_fns_ LMS_GUARDED_BY(mu_);
};

/// Content-Type of the text exposition format (what Prometheus scrapers
/// negotiate); every GET /metrics endpoint stamps this on its response.
inline constexpr std::string_view kTextExpositionContentType = "text/plain; version=0.0.4";

/// Prometheus-style exposition text, served by the GET /metrics endpoints:
///   name{label="value",...} value
/// Histograms expand to _count, _sum, _p50, _p90, _p99 series.
std::string render_text(const Registry& registry);

/// Serialize the registry as line-protocol points under one measurement.
/// Each instrument becomes a point tagged metric=<name> plus its labels and
/// `extra_tags`; counters/gauges carry a "value" field, histograms carry
/// count/sum/p50/p90/p99 fields. `timestamp` stamps every point.
std::vector<lineproto::Point> to_points(const Registry& registry, std::string_view measurement,
                                        const Labels& extra_tags, util::TimeNs timestamp);

}  // namespace lms::obs

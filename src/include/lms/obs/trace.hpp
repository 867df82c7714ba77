#pragma once

// Lightweight request tracing across the stack's HTTP hops.
//
// Every hop of the LMS pipeline is an HTTP request (paper §III), so a write
// crosses collector -> router -> TSDB as a chain of client/server handler
// invocations. A Span is an RAII timed section bound to the calling thread;
// spans nest, and the active (trace id, span id) pair travels to the next
// component in the "X-LMS-Trace: <trace16hex>-<span16hex>" request header,
// which both transports (TCP and in-process) inject on the client side and
// adopt on the server side. Finished spans land in a bounded in-memory
// SpanRecorder queryable per trace — and the span Exporter (exporter.hpp)
// drains that ring into the shared TSDB as `lms_traces` points, so traces
// from every process of a deployment can be assembled into one story by
// `GET /trace/<id>` on the TSDB API.
//
// Sampling: the keep/drop decision is made once, at the root span, and
// travels with the context (an unsampled trace propagates a "-u" suffix on
// the header so downstream hops agree). Head sampling is probabilistic and
// config-driven (set_trace_sample_rate); on top of that, tail-biased
// always-keep rules record individual spans of unsampled traces when they
// error (set_trace_keep_errors) or exceed a latency threshold
// (set_trace_slow_keep_ns), so the interesting 1% survives a 1% sample rate.
//
// Tracing is cheap (two monotonic clock reads, one mutex push per sampled
// span; unsampled spans skip the recorder entirely) and can be disabled
// process-wide with set_tracing_enabled(false), which turns Span into a
// no-op and stops header injection.

#include <atomic>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "lms/core/sync.hpp"
#include "lms/util/clock.hpp"

namespace lms::obs {

/// Request header carrying the trace context between components.
inline constexpr std::string_view kTraceHeader = "X-LMS-Trace";

/// The propagated context: which trace this thread is working for, the span
/// that is its current parent, and whether the trace was head-sampled.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  bool sampled = true;
  bool valid() const { return trace_id != 0; }
};

/// The active context of the calling thread (invalid when untraced).
TraceContext current_trace();

/// Generate a fresh non-zero id (splitmix64 over a process-unique counter).
std::uint64_t new_trace_id();

/// "<id:016x>" — the canonical textual form used for lms_traces tags,
/// log correlation ("trace=<hex>") and the /trace/<hex> URL.
std::string trace_id_hex(std::uint64_t id);
std::optional<std::uint64_t> parse_trace_id_hex(std::string_view s);

/// "X-LMS-Trace" value: "<trace_id:016x>-<span_id:016x>", with a "-u"
/// suffix when the trace is head-unsampled (downstream hops must agree on
/// the decision made at the root).
std::string format_trace_header(const TraceContext& ctx);
std::optional<TraceContext> parse_trace_header(std::string_view value);

/// Process-wide tracing switch (default on).
void set_tracing_enabled(bool enabled);
bool tracing_enabled();

/// Head sampling: probability in [0, 1] that a new root trace is sampled
/// (default 1.0 — keep everything, the pre-sampling behaviour). The decision
/// is a deterministic hash of the trace id, so it is stable per trace.
void set_trace_sample_rate(double rate);
double trace_sample_rate();
/// Would a root trace with this id be head-sampled at the current rate?
bool trace_head_sampled(std::uint64_t trace_id);

/// Tail-biased always-keep rules for spans of head-unsampled traces:
/// record errored spans (default on), and spans slower than `threshold`
/// nanoseconds (default 0 = disabled).
void set_trace_keep_errors(bool keep);
bool trace_keep_errors();
void set_trace_slow_keep_ns(std::int64_t threshold_ns);
std::int64_t trace_slow_keep_ns();

/// A finished span as stored by the recorder.
struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;  ///< 0 = root
  std::string name;                  ///< e.g. "http.server POST /write"
  std::string component;             ///< e.g. "net", "router", "tsdb"
  util::TimeNs start_wall_ns = 0;    ///< wall clock at span start
  std::int64_t duration_ns = 0;      ///< monotonic elapsed
  bool ok = true;
  std::string note;                  ///< optional status detail
};

/// Bounded ring of finished spans (oldest dropped first). Thread-safe.
class SpanRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit SpanRecorder(std::size_t capacity = kDefaultCapacity);

  /// Process-wide default recorder used by Span unless one is passed in.
  static SpanRecorder& global();

  void record(SpanRecord record);

  /// All retained spans of one trace, oldest first.
  std::vector<SpanRecord> by_trace(std::uint64_t trace_id) const;

  /// The most recent `n` spans, oldest first.
  std::vector<SpanRecord> recent(std::size_t n) const;

  /// Take every retained span out of the ring (oldest first), leaving it
  /// empty. This is the exporter's consume step: drained spans do not count
  /// as evicted. `max_spans` == 0 means take all.
  std::vector<SpanRecord> drain(std::size_t max_spans = 0);

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  /// Total spans ever recorded / evicted by the ring bound / drained out.
  std::uint64_t recorded() const { return recorded_.load(std::memory_order_relaxed); }
  std::uint64_t evicted() const { return evicted_.load(std::memory_order_relaxed); }
  std::uint64_t drained() const { return drained_.load(std::memory_order_relaxed); }

  void clear();

 private:
  const std::size_t capacity_;
  mutable core::sync::Mutex mu_{core::sync::Rank::kObsTrace, "obs.spans"};
  std::deque<SpanRecord> ring_ LMS_GUARDED_BY(mu_);
  std::atomic<std::uint64_t> recorded_{0};
  std::atomic<std::uint64_t> evicted_{0};
  std::atomic<std::uint64_t> drained_{0};
};

/// RAII timed section. Construction makes it the thread's current span
/// (child of the previous one, or a new root trace); destruction records it
/// and restores the parent. When tracing is disabled (or suppressed on this
/// thread) it does nothing. When the trace is head-unsampled the context
/// still propagates, but the span is only recorded if a tail always-keep
/// rule fires (error / over-threshold latency).
class Span {
 public:
  Span(std::string name, std::string component, SpanRecorder* recorder = nullptr);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// The context this span propagates ({trace_id, this span's id, sampled}).
  const TraceContext& context() const { return ctx_; }
  bool active() const { return active_; }
  bool sampled() const { return ctx_.sampled; }

  void set_ok(bool ok) { ok_ = ok; }
  void set_note(std::string note) { note_ = std::move(note); }

 private:
  bool active_ = false;
  SpanRecorder* recorder_ = nullptr;
  TraceContext prev_;
  TraceContext ctx_;
  std::string name_;
  std::string component_;
  util::TimeNs start_wall_ = 0;
  util::TimeNs start_mono_ = 0;
  bool ok_ = true;
  std::string note_;
};

/// RAII thread-local tracing suppression. While alive, Span construction on
/// this thread is a no-op and transports do not inject trace headers. The
/// obs::Exporter wraps every export in one of these so writing telemetry
/// through the router cannot generate spans about exporting telemetry.
class TraceSuppressGuard {
 public:
  TraceSuppressGuard();
  ~TraceSuppressGuard();
  TraceSuppressGuard(const TraceSuppressGuard&) = delete;
  TraceSuppressGuard& operator=(const TraceSuppressGuard&) = delete;
};
bool tracing_suppressed();

class Registry;

/// Expose a recorder's ring statistics as sampled gauges in `registry`:
/// trace_spans_recorded / trace_spans_evicted (ring overflow — spans lost to
/// the capacity bound) / trace_spans_retained. The recorder must outlive the
/// registration; undo with remove_trace_metrics before it dies — or better,
/// hold a ScopedTraceMetrics, which cannot be forgotten.
void register_trace_metrics(Registry& registry);
void register_trace_metrics(Registry& registry, SpanRecorder& recorder);
void remove_trace_metrics(Registry& registry);

/// RAII registration of the trace gauges: registers on construction,
/// unregisters on destruction. Declare it after the Registry and after the
/// SpanRecorder it samples (members are destroyed in reverse order), and a
/// recorder can never die before its gauge callbacks are removed.
class ScopedTraceMetrics {
 public:
  explicit ScopedTraceMetrics(Registry& registry);
  ScopedTraceMetrics(Registry& registry, SpanRecorder& recorder);
  ~ScopedTraceMetrics();
  ScopedTraceMetrics(const ScopedTraceMetrics&) = delete;
  ScopedTraceMetrics& operator=(const ScopedTraceMetrics&) = delete;

 private:
  Registry& registry_;
};

/// RAII adoption of a remote context (server side of a hop): installs `ctx`
/// as the thread's current context, restores the previous one on exit.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& ctx);
  ~ScopedTraceContext();
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext prev_;
};

}  // namespace lms::obs

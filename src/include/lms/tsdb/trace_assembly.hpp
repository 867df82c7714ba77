#pragma once

// Trace assembly: stitching exported spans back into one waterfall.
//
// Every process of a deployment exports its finished spans as `lms_traces`
// points (obs/exporter.hpp): one point per span, tagged by trace_id /
// component / host, with the whole span carried as a self-contained JSON
// string in the "span" field. This module is the read side — given a trace
// id it collects those points from a storage snapshot (a tag-index lookup,
// since trace_id is a tag) and rebuilds the parent/child tree:
//
//   1. decode every span record of the trace (malformed records are
//      counted, not fatal),
//   2. attach children to parents by span id; spans whose parent id is
//      missing from the trace (still in another process's recorder ring,
//      evicted, or never exported) become orphan roots,
//   3. order children by start time and derive the gap analysis per node:
//      self time (duration minus time covered by children) and the largest
//      gap where the span was waiting with no child running.
//
// Served as JSON by `GET /trace/<id>` on the TSDB API and rendered as a
// text waterfall by the dashboard agent.

#include <cstdint>
#include <string>
#include <vector>

#include "lms/obs/exporter.hpp"
#include "lms/tsdb/storage.hpp"
#include "lms/util/status.hpp"

namespace lms::tsdb {

/// One span in the assembled tree.
struct TraceNode {
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;  ///< 0 = root
  std::string name;
  std::string component;
  std::string host;
  std::string note;
  TimeNs start_ns = 0;
  std::int64_t duration_ns = 0;
  bool ok = true;
  /// Parent id non-zero but absent from the trace — shown as a root.
  bool orphan = false;
  /// Gap analysis: time not covered by any child (merged child intervals),
  /// and the largest single stretch where this span waited with no child
  /// running.
  std::int64_t self_ns = 0;
  std::int64_t largest_gap_ns = 0;
  std::vector<TraceNode> children;  ///< ordered by start_ns
};

struct TraceTree {
  std::uint64_t trace_id = 0;
  std::size_t span_count = 0;       ///< decoded spans in the tree
  std::size_t malformed_spans = 0;  ///< records that failed to decode
  std::vector<TraceNode> roots;     ///< ordered by start_ns
};

/// Assemble the spans of `trace_id` from the obs::kTraceMeasurement points
/// of a snapshot. An empty trace (no spans stored) is not an error:
/// span_count == 0.
TraceTree assemble_trace(const ReadSnapshot& snapshot, std::uint64_t trace_id);

/// The tree as JSON for GET /trace/<id>:
/// {"trace_id":"<016x>","span_count":N,"roots":[{span..,"children":[..]},..]}
std::string trace_tree_to_json(const TraceTree& tree);

/// Plain-text waterfall (one line per span, indented by depth, with offset/
/// duration bars) — what the dashboard agent serves for humans.
std::string trace_tree_to_waterfall(const TraceTree& tree);

}  // namespace lms::tsdb

#pragma once

// Roofline analysis on top of the MEM_DP combined group. The paper's
// optimization-potential judgement (§V) builds on the performance-pattern
// work of the same authors; the roofline model is its quantitative core:
// with the measured operational intensity OI [flop/byte] and the machine's
// peak FLOP rate and memory bandwidth, the attainable performance is
//
//   P_attainable(OI) = min(P_peak, OI * BW_peak)
//
// and the ratio measured/attainable says how much headroom a job has *given
// its current algorithmic intensity* — a sharper statement than "FP rate is
// low".

#include <cstdint>
#include <string>

#include "lms/analysis/fetch.hpp"
#include "lms/hpm/arch.hpp"

namespace lms::analysis {

struct RooflineResult {
  double operational_intensity = 0.0;  ///< flop/byte
  double measured_gflops = 0.0;        ///< per node
  double attainable_gflops = 0.0;      ///< roofline ceiling at this OI
  double peak_gflops = 0.0;            ///< compute roof (per node)
  double peak_bandwidth_gbs = 0.0;     ///< memory roof (per node)
  double ridge_intensity = 0.0;        ///< OI where the roofs meet
  bool memory_bound = false;           ///< OI below the ridge point
  /// measured / attainable, in [0, ~1]; low = headroom at this OI.
  double efficiency = 0.0;

  std::string to_string() const;
};

/// Evaluate the roofline position from raw numbers (per node).
RooflineResult roofline_evaluate(double measured_flops_per_sec, double measured_bytes_per_sec,
                                 const hpm::CounterArchitecture& arch);

/// The MEM_DP metrics a roofline placement reads (what a JobFrame must hold).
const std::vector<MetricRef>& roofline_metrics();

/// Evaluate from a frame's series (node-averaged over the frame's hosts and
/// time range). Fails when no host has both rates.
util::Result<RooflineResult> roofline_from_frame(const JobFrame& frame,
                                                 const hpm::CounterArchitecture& arch);

/// Wrapper that reads a frame of the roofline metrics first.
util::Result<RooflineResult> roofline_from_db(const MetricFetcher& fetcher,
                                              const std::vector<std::string>& hosts,
                                              const std::string& job_id, util::TimeNs t0,
                                              util::TimeNs t1,
                                              const hpm::CounterArchitecture& arch);

/// ASCII rendering of the roofline with the job's point marked — the
/// log-log plot performance engineers expect.
std::string roofline_chart(const RooflineResult& result, int width = 60, int height = 14);

// ------------------------------------------------------ per-region mode

/// Roofline placement of one marker region of a profiled job, computed from
/// the lms_regions measurement the profiling SDK emits.
struct RegionRoofline {
  std::string region;
  double time_share = 0.0;       ///< share of summed inclusive region time
  std::uint64_t calls = 0;       ///< region instances in [t0, t1)
  RooflineResult roofline;       ///< placement of this region's rates
};

/// Per-region roofline of a profiled job over [t0, t1): one entry per
/// distinct region tag of the job's lms_regions series, sorted by
/// descending time share. Rates are host-averaged like roofline_from_db.
/// Fails when the job has no region data (profiling off or not flushed).
util::Result<std::vector<RegionRoofline>> roofline_per_region(
    const MetricFetcher& fetcher, const std::string& job_id, util::TimeNs t0, util::TimeNs t1,
    const hpm::CounterArchitecture& arch);

}  // namespace lms::analysis

#include "lms/analysis/roofline.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "lms/util/strings.hpp"

namespace lms::analysis {

std::string RooflineResult::to_string() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "OI=%.3f flop/byte, measured %.1f GF/s of %.1f GF/s attainable "
                "(%.0f%%, %s; roofs: %.1f GF/s, %.1f GB/s, ridge at %.2f)",
                operational_intensity, measured_gflops, attainable_gflops,
                efficiency * 100.0, memory_bound ? "memory-bound" : "compute-bound",
                peak_gflops, peak_bandwidth_gbs, ridge_intensity);
  return buf;
}

RooflineResult roofline_evaluate(double measured_flops_per_sec, double measured_bytes_per_sec,
                                 const hpm::CounterArchitecture& arch) {
  RooflineResult r;
  r.peak_gflops = arch.peak_dp_flops_per_core * arch.total_cores() / 1e9;
  r.peak_bandwidth_gbs = arch.peak_mem_bw_per_socket * arch.sockets / 1e9;
  r.ridge_intensity =
      r.peak_bandwidth_gbs > 0 ? r.peak_gflops / r.peak_bandwidth_gbs : 0.0;
  r.measured_gflops = measured_flops_per_sec / 1e9;
  r.operational_intensity =
      measured_bytes_per_sec > 0 ? measured_flops_per_sec / measured_bytes_per_sec : 0.0;
  r.memory_bound = r.operational_intensity < r.ridge_intensity;
  r.attainable_gflops =
      std::min(r.peak_gflops, r.operational_intensity * r.peak_bandwidth_gbs);
  r.efficiency =
      r.attainable_gflops > 0 ? r.measured_gflops / r.attainable_gflops : 0.0;
  return r;
}

namespace {
const MetricRef kFlops{"likwid_mem_dp", "dp_mflop_per_s"};
const MetricRef kBandwidth{"likwid_mem_dp", "memory_bandwidth_mbytes_per_s"};
const MetricRef kRegionFlops{"lms_regions", "dp_mflop_per_s"};
const MetricRef kRegionBandwidth{"lms_regions", "memory_bandwidth_mbytes_per_s"};
const MetricRef kRegionInclusive{"lms_regions", "inclusive_ns"};
const MetricRef kRegionCalls{"lms_regions", "count"};
}  // namespace

const std::vector<MetricRef>& roofline_metrics() {
  static const std::vector<MetricRef> refs{kFlops, kBandwidth};
  return refs;
}

util::Result<RooflineResult> roofline_from_frame(const JobFrame& frame,
                                                 const hpm::CounterArchitecture& arch) {
  double sum_flops = 0;
  double sum_bw = 0;
  int n = 0;
  for (const auto& host : frame.keys()) {
    const MetricSeries& flops = frame.series(kFlops, host);
    const MetricSeries& bw = frame.series(kBandwidth, host);
    if (flops.empty() || bw.empty()) continue;
    sum_flops += flops.mean() * 1e6;
    sum_bw += bw.mean() * 1e6;
    ++n;
  }
  if (n == 0) {
    return util::Result<RooflineResult>::error(
        "no MEM_DP data for job '" + frame.job_id() + "' in the given range");
  }
  return roofline_evaluate(sum_flops / n, sum_bw / n, arch);
}

util::Result<RooflineResult> roofline_from_db(const MetricFetcher& fetcher,
                                              const std::vector<std::string>& hosts,
                                              const std::string& job_id, util::TimeNs t0,
                                              util::TimeNs t1,
                                              const hpm::CounterArchitecture& arch) {
  return roofline_from_frame(JobFrame(fetcher, hosts, job_id, t0, t1, roofline_metrics()),
                             arch);
}

util::Result<std::vector<RegionRoofline>> roofline_per_region(
    const MetricFetcher& fetcher, const std::string& job_id, util::TimeNs t0, util::TimeNs t1,
    const hpm::CounterArchitecture& arch) {
  const JobFrame frame(fetcher, job_id, t0, t1,
                       {kRegionFlops, kRegionBandwidth, kRegionInclusive, kRegionCalls},
                       "region");
  if (frame.keys().empty()) {
    return util::Result<std::vector<RegionRoofline>>::error(
        "no lms_regions data for job '" + job_id + "' (profiling off or not flushed)");
  }
  std::vector<RegionRoofline> out;
  double total_time = 0.0;
  for (const auto& region : frame.keys()) {
    const MetricSeries& flops = frame.series(kRegionFlops, region);
    const MetricSeries& bw = frame.series(kRegionBandwidth, region);
    const MetricSeries& incl = frame.series(kRegionInclusive, region);
    const MetricSeries& calls = frame.series(kRegionCalls, region);
    if (flops.empty() || bw.empty()) continue;
    RegionRoofline rr;
    rr.region = region;
    // Each lms_regions point carries the region's rates on one host over one
    // flush interval; the mean is the per-node average, like roofline_from_db.
    rr.roofline = roofline_evaluate(flops.mean() * 1e6, bw.mean() * 1e6, arch);
    if (!incl.empty()) {
      rr.time_share = incl.mean() * static_cast<double>(incl.size());  // sum, for now
      total_time += rr.time_share;
    }
    if (!calls.empty()) {
      rr.calls = static_cast<std::uint64_t>(
          calls.mean() * static_cast<double>(calls.size()) + 0.5);
    }
    out.push_back(std::move(rr));
  }
  if (out.empty()) {
    return util::Result<std::vector<RegionRoofline>>::error(
        "lms_regions series of job '" + job_id + "' carry no MEM_DP derived fields");
  }
  for (auto& rr : out) {
    rr.time_share = total_time > 0 ? rr.time_share / total_time : 0.0;
  }
  std::sort(out.begin(), out.end(), [](const RegionRoofline& a, const RegionRoofline& b) {
    return a.time_share > b.time_share;
  });
  return out;
}

std::string roofline_chart(const RooflineResult& r, int width, int height) {
  // Log-log plot: x = OI in [ridge/64, ridge*64], y = GF/s.
  const double x_lo = r.ridge_intensity / 64.0;
  const double x_hi = r.ridge_intensity * 64.0;
  const double y_hi = r.peak_gflops * 2.0;
  const double y_lo = r.peak_gflops / 1024.0;
  const double lx_lo = std::log2(x_lo);
  const double lx_hi = std::log2(x_hi);
  const double ly_lo = std::log2(y_lo);
  const double ly_hi = std::log2(y_hi);

  width = std::max(20, width);
  height = std::max(8, height);
  std::vector<std::string> grid(static_cast<std::size_t>(height),
                                std::string(static_cast<std::size_t>(width), ' '));
  auto col_of = [&](double oi) {
    const double norm = (std::log2(std::max(oi, x_lo)) - lx_lo) / (lx_hi - lx_lo);
    return std::clamp(static_cast<int>(std::lround(norm * (width - 1))), 0, width - 1);
  };
  auto row_of = [&](double gf) {
    const double norm = (std::log2(std::clamp(gf, y_lo, y_hi)) - ly_lo) / (ly_hi - ly_lo);
    return std::clamp(height - 1 - static_cast<int>(std::lround(norm * (height - 1))), 0,
                      height - 1);
  };
  // The roof.
  for (int c = 0; c < width; ++c) {
    const double oi = std::exp2(lx_lo + (lx_hi - lx_lo) * c / (width - 1));
    const double roof = std::min(r.peak_gflops, oi * r.peak_bandwidth_gbs);
    grid[static_cast<std::size_t>(row_of(roof))][static_cast<std::size_t>(c)] = '_';
  }
  // The ridge marker and the job's point.
  grid[static_cast<std::size_t>(row_of(r.peak_gflops))]
      [static_cast<std::size_t>(col_of(r.ridge_intensity))] = '+';
  grid[static_cast<std::size_t>(row_of(std::max(r.measured_gflops, y_lo)))]
      [static_cast<std::size_t>(col_of(std::max(r.operational_intensity, x_lo)))] = 'X';

  std::string out = "Roofline (log-log): X = job, _ = attainable, + = ridge\n";
  char axis[64];
  for (int row = 0; row < height; ++row) {
    if (row == 0) {
      std::snprintf(axis, sizeof(axis), "%8.1f |", y_hi);
    } else if (row == height - 1) {
      std::snprintf(axis, sizeof(axis), "%8.1f |", y_lo);
    } else {
      std::snprintf(axis, sizeof(axis), "%8s |", "");
    }
    out += axis + grid[static_cast<std::size_t>(row)] + "\n";
  }
  std::snprintf(axis, sizeof(axis), "%8s +", "");
  out += axis + std::string(static_cast<std::size_t>(width), '-') + "\n";
  std::snprintf(axis, sizeof(axis), "%10.3g", x_lo);
  out += axis + std::string(static_cast<std::size_t>(std::max(0, width - 10)), ' ');
  std::snprintf(axis, sizeof(axis), "%.3g", x_hi);
  out += axis;
  out += "  [flop/byte]\n";
  out += "          " + r.to_string() + "\n";
  return out;
}

}  // namespace lms::analysis

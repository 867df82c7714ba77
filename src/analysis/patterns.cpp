#include "lms/analysis/patterns.hpp"

#include <cmath>

#include "lms/util/strings.hpp"

namespace lms::analysis {

std::string_view pattern_name(Pattern p) {
  switch (p) {
    case Pattern::kIdle:
      return "idle";
    case Pattern::kBandwidthSaturation:
      return "bandwidth_saturation";
    case Pattern::kComputeBound:
      return "compute_bound";
    case Pattern::kLoadImbalance:
      return "load_imbalance";
    case Pattern::kMemoryLatencyBound:
      return "memory_latency_bound";
    case Pattern::kBranchMispredict:
      return "branch_mispredict";
    case Pattern::kInstructionOverhead:
      return "instruction_overhead";
    case Pattern::kScalarCode:
      return "scalar_code";
    case Pattern::kBalanced:
      return "balanced";
  }
  return "?";
}

std::string_view pattern_recommendation(Pattern p) {
  switch (p) {
    case Pattern::kIdle:
      return "Job barely uses its allocation; check input/startup problems.";
    case Pattern::kBandwidthSaturation:
      return "Memory bandwidth saturated; improve locality or blocking.";
    case Pattern::kComputeBound:
      return "Compute units well used; little generic headroom.";
    case Pattern::kLoadImbalance:
      return "Work distribution uneven across nodes; rebalance decomposition.";
    case Pattern::kMemoryLatencyBound:
      return "Low IPC with low bandwidth: latency bound; improve access patterns.";
    case Pattern::kBranchMispredict:
      return "High misprediction ratio; simplify control flow in hot loops.";
    case Pattern::kInstructionOverhead:
      return "High IPC but few flops; reduce bookkeeping instructions.";
    case Pattern::kScalarCode:
      return "FP work is scalar; enable vectorization (alignment, compiler flags).";
    case Pattern::kBalanced:
      return "No dominating bottleneck identified.";
  }
  return "";
}

std::string DecisionStep::to_string() const {
  return feature + "=" + util::format_double(value) + (went_high ? " >= " : " < ") +
         util::format_double(threshold);
}

std::unique_ptr<DecisionTree> DecisionTree::leaf(Pattern pattern, double potential) {
  auto t = std::unique_ptr<DecisionTree>(new DecisionTree());
  t->is_leaf_ = true;
  t->pattern_ = pattern;
  t->potential_ = potential;
  return t;
}

std::unique_ptr<DecisionTree> DecisionTree::node(std::string feature_name, FeatureFn feature,
                                                 double threshold,
                                                 std::unique_ptr<DecisionTree> low,
                                                 std::unique_ptr<DecisionTree> high) {
  auto t = std::unique_ptr<DecisionTree>(new DecisionTree());
  t->feature_name_ = std::move(feature_name);
  t->feature_ = feature;
  t->threshold_ = threshold;
  t->low_ = std::move(low);
  t->high_ = std::move(high);
  return t;
}

Classification DecisionTree::classify(const JobSignature& sig) const {
  Classification out;
  const DecisionTree* cur = this;
  while (!cur->is_leaf_) {
    const double value = cur->feature_(sig);
    const bool high = value >= cur->threshold_;
    out.path.push_back(DecisionStep{cur->feature_name_, value, cur->threshold_, high});
    cur = high ? cur->high_.get() : cur->low_.get();
  }
  out.pattern = cur->pattern_;
  out.optimization_potential = cur->potential_;
  return out;
}

namespace {
double f_cpu_load(const JobSignature& s) { return s.cpu_load; }
double f_membw(const JobSignature& s) { return s.mem_bw_fraction; }
double f_flops(const JobSignature& s) { return s.flops_dp_fraction; }
double f_imbalance(const JobSignature& s) { return s.load_imbalance_cv; }
double f_ipc(const JobSignature& s) { return s.ipc; }
double f_branch_miss(const JobSignature& s) { return s.branch_miss_ratio; }
double f_vector(const JobSignature& s) { return s.vectorization_ratio; }
}  // namespace

const DecisionTree& DecisionTree::default_tree() {
  // FEPA-style tree: cheap, explainable checks ordered by diagnostic power.
  //
  //   cpu_load < 0.10                         -> idle
  //   load_imbalance_cv >= 0.40               -> load_imbalance
  //   mem_bw_fraction >= 0.70                 -> bandwidth_saturation
  //   flops_dp_fraction >= 0.50               -> compute_bound
  //   ipc < 0.50:
  //     branch_miss_ratio >= 0.05             -> branch_mispredict
  //     otherwise                             -> memory_latency_bound
  //   ipc >= 0.50:
  //     vectorization_ratio < 0.20            -> scalar_code
  //     flops_dp_fraction < 0.05              -> instruction_overhead
  //     otherwise                             -> balanced
  static const std::unique_ptr<DecisionTree> tree = [] {
    auto low_ipc = node(
        "branch_miss_ratio", f_branch_miss, 0.05,
        leaf(Pattern::kMemoryLatencyBound, 0.7),
        leaf(Pattern::kBranchMispredict, 0.6));
    auto high_ipc = node(
        "vectorization_ratio", f_vector, 0.20,
        leaf(Pattern::kScalarCode, 0.8),
        node("flops_dp_fraction", f_flops, 0.05,
             leaf(Pattern::kInstructionOverhead, 0.5),
             leaf(Pattern::kBalanced, 0.2)));
    auto ipc_split = node("ipc", f_ipc, 0.50, std::move(low_ipc), std::move(high_ipc));
    auto flops_split = node("flops_dp_fraction", f_flops, 0.50, std::move(ipc_split),
                            leaf(Pattern::kComputeBound, 0.1));
    auto membw_split = node("mem_bw_fraction", f_membw, 0.70, std::move(flops_split),
                            leaf(Pattern::kBandwidthSaturation, 0.4));
    auto imbalance_split = node("load_imbalance_cv", f_imbalance, 0.40, std::move(membw_split),
                                leaf(Pattern::kLoadImbalance, 0.8));
    return node("cpu_load", f_cpu_load, 0.10, leaf(Pattern::kIdle, 1.0),
                std::move(imbalance_split));
  }();
  return *tree;
}

namespace {
const MetricRef kCpuLoad{"cpu", "user_percent"};
const MetricRef kCpi{"likwid_mem_dp", "cpi"};
const MetricRef kFlops{"likwid_mem_dp", "dp_mflop_per_s"};
const MetricRef kMemBw{"likwid_mem_dp", "memory_bandwidth_mbytes_per_s"};
const MetricRef kVectorization{"likwid_flops_dp", "vectorization_ratio"};
const MetricRef kBranchMiss{"likwid_branch", "branch_misprediction_ratio"};
const MetricRef kMemUsed{"memory", "used_percent"};
}  // namespace

const std::vector<MetricRef>& signature_metrics() {
  static const std::vector<MetricRef> refs{kCpuLoad,       kCpi,        kFlops,  kMemBw,
                                           kVectorization, kBranchMiss, kMemUsed};
  return refs;
}

JobSignature signature_from_db(const MetricFetcher& fetcher,
                               const std::vector<std::string>& hosts,
                               const std::string& job_id, util::TimeNs t0, util::TimeNs t1,
                               const hpm::CounterArchitecture& arch) {
  return signature_from_frame(JobFrame(fetcher, hosts, job_id, t0, t1, signature_metrics()),
                              arch);
}

JobSignature signature_from_frame(const JobFrame& frame, const hpm::CounterArchitecture& arch) {
  JobSignature sig;
  sig.nodes = static_cast<int>(frame.keys().size());
  if (frame.keys().empty()) return sig;

  const double peak_flops =
      arch.peak_dp_flops_per_core * arch.total_cores();  // per node, flops/s
  const double peak_membw = arch.peak_mem_bw_per_socket * arch.sockets;  // bytes/s

  std::vector<double> per_node_flops;
  double sum_cpu = 0, sum_ipc = 0, sum_membw = 0, sum_vec = 0, sum_bmiss = 0, sum_mem = 0;
  int n_cpu = 0, n_ipc = 0, n_membw = 0, n_vec = 0, n_bmiss = 0, n_mem = 0;
  for (const auto& host : frame.keys()) {
    if (const MetricSeries& cpu = frame.series(kCpuLoad, host); !cpu.empty()) {
      sum_cpu += cpu.mean() / 100.0;
      ++n_cpu;
    }
    if (const MetricSeries& ipc = frame.series(kCpi, host); !ipc.empty()) {
      const double cpi = ipc.mean();
      if (cpi > 0) {
        sum_ipc += 1.0 / cpi;
        ++n_ipc;
      }
    }
    if (const MetricSeries& flops = frame.series(kFlops, host); !flops.empty()) {
      per_node_flops.push_back(flops.mean() * 1e6);
    }
    if (const MetricSeries& membw = frame.series(kMemBw, host); !membw.empty()) {
      sum_membw += membw.mean() * 1e6;
      ++n_membw;
    }
    if (const MetricSeries& vec = frame.series(kVectorization, host); !vec.empty()) {
      sum_vec += vec.mean() / 100.0;
      ++n_vec;
    }
    if (const MetricSeries& bmiss = frame.series(kBranchMiss, host); !bmiss.empty()) {
      sum_bmiss += bmiss.mean();
      ++n_bmiss;
    }
    if (const MetricSeries& mem = frame.series(kMemUsed, host); !mem.empty()) {
      sum_mem += mem.mean() / 100.0;
      ++n_mem;
    }
  }
  if (n_cpu > 0) sig.cpu_load = sum_cpu / n_cpu;
  if (n_ipc > 0) sig.ipc = sum_ipc / n_ipc;
  if (n_membw > 0 && peak_membw > 0) {
    sig.mem_bw_fraction = (sum_membw / n_membw) / peak_membw;
  }
  if (n_vec > 0) sig.vectorization_ratio = sum_vec / n_vec;
  if (n_bmiss > 0) sig.branch_miss_ratio = sum_bmiss / n_bmiss;
  if (n_mem > 0) sig.mem_used_fraction = sum_mem / n_mem;
  if (!per_node_flops.empty()) {
    double mean = 0;
    for (const double v : per_node_flops) mean += v;
    mean /= static_cast<double>(per_node_flops.size());
    if (peak_flops > 0) sig.flops_dp_fraction = mean / peak_flops;
    if (per_node_flops.size() > 1 && mean > 0) {
      double ss = 0;
      for (const double v : per_node_flops) ss += (v - mean) * (v - mean);
      sig.load_imbalance_cv =
          std::sqrt(ss / static_cast<double>(per_node_flops.size() - 1)) / mean;
    }
  }
  return sig;
}

}  // namespace lms::analysis

#pragma once

// Performance pattern classification (paper §V): "for marking applications
// with significant optimization potential we use the performance pattern
// systematic [Treibig/Hager/Wellein 2012] ... refined as part of the FEPA
// project using a decision tree". A job's derived-metric signature is run
// through an explicit decision tree whose leaves are performance patterns
// with an optimization-potential judgement; the traversal path is kept as
// evidence so support staff can see *why* a job was classified.

#include <memory>
#include <string>
#include <vector>

#include "lms/analysis/fetch.hpp"
#include "lms/hpm/arch.hpp"

namespace lms::analysis {

/// Aggregated signature of a job (node-averaged, steady-state).
struct JobSignature {
  double cpu_load = 0.0;            ///< mean user CPU fraction [0,1]
  double ipc = 0.0;                 ///< instructions per cycle
  double flops_dp_fraction = 0.0;   ///< of architecture peak [0,1]
  double mem_bw_fraction = 0.0;     ///< of architecture peak [0,1]
  double vectorization_ratio = 0.0; ///< packed FP instruction share [0,1]
  double branch_miss_ratio = 0.0;
  double load_imbalance_cv = 0.0;   ///< cross-node coefficient of variation of FP rate
  double mem_used_fraction = 0.0;   ///< of node RAM
  int nodes = 1;
};

enum class Pattern {
  kIdle,
  kBandwidthSaturation,
  kComputeBound,
  kLoadImbalance,
  kMemoryLatencyBound,
  kBranchMispredict,
  kInstructionOverhead,
  kScalarCode,
  kBalanced,
};

std::string_view pattern_name(Pattern p);
std::string_view pattern_recommendation(Pattern p);

/// One step of the traversal, kept as evidence.
struct DecisionStep {
  std::string feature;
  double value = 0.0;
  double threshold = 0.0;
  bool went_high = false;  ///< took the ">= threshold" branch

  std::string to_string() const;
};

struct Classification {
  Pattern pattern = Pattern::kBalanced;
  /// Heuristic optimization potential in [0,1] (1 = large headroom).
  double optimization_potential = 0.0;
  std::vector<DecisionStep> path;
};

/// A binary decision tree over JobSignature features.
class DecisionTree {
 public:
  using FeatureFn = double (*)(const JobSignature&);

  /// Leaf node.
  static std::unique_ptr<DecisionTree> leaf(Pattern pattern, double potential);
  /// Inner node: feature >= threshold ? high : low.
  static std::unique_ptr<DecisionTree> node(std::string feature_name, FeatureFn feature,
                                            double threshold,
                                            std::unique_ptr<DecisionTree> low,
                                            std::unique_ptr<DecisionTree> high);

  Classification classify(const JobSignature& sig) const;

  /// The FEPA-style default tree used by the stack.
  static const DecisionTree& default_tree();

 private:
  DecisionTree() = default;
  bool is_leaf_ = false;
  Pattern pattern_ = Pattern::kBalanced;
  double potential_ = 0.0;
  std::string feature_name_;
  FeatureFn feature_ = nullptr;
  double threshold_ = 0.0;
  std::unique_ptr<DecisionTree> low_;
  std::unique_ptr<DecisionTree> high_;
};

/// The metrics a job signature is built from (what a JobFrame must hold).
const std::vector<MetricRef>& signature_metrics();

/// Build a job signature from a frame's series (node-averaged over the
/// frame's hosts and time range).
JobSignature signature_from_frame(const JobFrame& frame, const hpm::CounterArchitecture& arch);

/// Wrapper that reads a frame of the signature metrics first.
JobSignature signature_from_db(const MetricFetcher& fetcher,
                               const std::vector<std::string>& hosts,
                               const std::string& job_id, util::TimeNs t0, util::TimeNs t1,
                               const hpm::CounterArchitecture& arch);

}  // namespace lms::analysis

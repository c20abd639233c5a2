#pragma once

#include <string>
#include <vector>

#include "core/pipeline.h"
#include "engine/plan.h"

namespace uqp {

/// Per-operator view of a prediction.
struct OperatorExplain {
  int node_id = -1;
  OpType op_type = OpType::kSeqScan;
  std::string label;          ///< e.g. "IndexScan(lineitem)"
  double expected_ms = 0.0;   ///< E[t_k] under the fitted cost functions
  double stddev_ms = 0.0;     ///< marginal sd of t_k (cross-operator
                              ///< covariances not attributed)
  double share = 0.0;         ///< expected_ms / Σ expected_ms
  double selectivity = 0.0;   ///< estimated ρ of the operator
  double selectivity_sd = 0.0;
  bool from_optimizer = false;
};

/// EXPLAIN-style decomposition of a prediction: where the expected time
/// and the uncertainty come from, operator by operator. The marginal
/// per-operator variances do not sum to Var[t_q] — shared cost units and
/// shared selectivity estimates correlate the operators (that is the whole
/// point of §5.3) — so the report also prints the exact total and its
/// three-way split.
std::vector<OperatorExplain> ExplainOperators(const Plan& plan,
                                              const Prediction& prediction,
                                              const CostUnits& units);

/// Rendered report (fixed-width text), e.g. for CLI tools and logging.
std::string RenderExplain(const Plan& plan, const Prediction& prediction,
                          const CostUnits& units);

}  // namespace uqp

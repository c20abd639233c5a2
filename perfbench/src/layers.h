#pragma once

// Layer replay of the traced run: every pool plan is taken through each
// layer's public entry point on its own, timed from outside.

#include <vector>

#include "core/pipeline.h"
#include "cost/units.h"
#include "engine/plan.h"
#include "sampling/sample_db.h"
#include "storage/database.h"

#include "trace.h"

namespace perfbench {

struct ReplayResult {
  // Per pool plan, in milliseconds. A failed stage stops the replay, so the
  // vectors may be shorter than the pool (and `ok` false), but index i is
  // always plan i.
  std::vector<double> stage1_ms;  ///< SampleRunStage::Run at the workload's threads
  std::vector<double> stage2_ms;  ///< CostFitStage::Run
  std::vector<double> stage3_ms;  ///< VarianceCombineStage::Run
  std::vector<double> exec_ms;    ///< bare Executor::Execute at the workload's threads
  std::vector<double> exec1_ms;   ///< bare Executor::Execute, 1 thread
  std::vector<double> exec4_ms;   ///< bare Executor::Execute, 4 threads, one MorselPool
  // Operator self time summed over the pool, 1 thread (subtree replay).
  double scan_self_ms = 0.0;
  double join_self_ms = 0.0;
  double sort_self_ms = 0.0;
  double agg_self_ms = 0.0;
  // Work counters of the 1-thread bare execution, summed over the pool.
  double sort_cmps = 0.0;  ///< OpStats::actual.no of sort operators
  double rows_out = 0.0;   ///< OpStats::out_rows of every operator
  bool ok = true;          ///< every stage and execution succeeded
};

/// Replays every plan of `pool` layer by layer with the predictor options
/// the workload's service uses. Records one "replay" span per plan (request
/// id = plan index) with a child span per layer call.
ReplayResult ReplayLayers(const uqp::Database& db, const uqp::SampleDb& samples,
                          const std::vector<uqp::Plan>& pool,
                          const uqp::CostUnits& units,
                          const uqp::PredictorOptions& options, Lane* lane);

}  // namespace perfbench

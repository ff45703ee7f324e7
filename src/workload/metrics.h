// Metric aggregation for the paper's figures.
//
// Figs 8-10: per-TPC-W-query op counts per schema. Figs 12-14: per-diagram
// geometric means of the same metrics across each diagram's workload, per
// schema. Counts can be zero, so we aggregate with the shifted geometric
// mean gm1p(x) = exp(mean(log(1+x))) - 1 (noted in EXPERIMENTS.md).
#pragma once

#include <string>
#include <vector>

#include "design/designer.h"
#include "query/plan.h"
#include "workload/workload.h"

namespace mctdb::workload {

/// exp(mean(log(1+x))) - 1; 0 for an empty vector.
double GeoMean1p(const std::vector<size_t>& xs);

struct QueryMetricsRow {
  std::string query;
  std::string schema;
  query::PlanStats stats;
};

/// Plan every figure query of `w` against `schema`.
std::vector<QueryMetricsRow> PlanMetrics(const Workload& w,
                                         const mct::MctSchema& schema);

struct CollectionCell {
  std::string diagram;
  std::string schema;
  double gmean_structural_joins = 0;
  double gmean_value_joins_crossings = 0;
  double gmean_dup_ops = 0;
  size_t num_colors = 0;
};

/// The Figs 12-14 collection as workloads, in er::EvaluationCollection()
/// order: Derby's hand-written query set, TPC-W's, and an XMark-emulated
/// workload for every other diagram.
std::vector<Workload> CollectionWorkloads();

/// The Figs 12-14 grid: for each workload and each of the given
/// strategies, geometric means over the workload's figure queries.
std::vector<CollectionCell> AnalyzeCollection(
    const std::vector<Workload>& workloads,
    const std::vector<design::Strategy>& strategies);

}  // namespace mctdb::workload

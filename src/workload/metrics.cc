#include "workload/metrics.h"

#include <cmath>

#include "common/logging.h"
#include "er/er_catalog.h"
#include "query/planner.h"

namespace mctdb::workload {

double GeoMean1p(const std::vector<size_t>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (size_t x : xs) sum += std::log1p(double(x));
  return std::expm1(sum / double(xs.size()));
}

std::vector<QueryMetricsRow> PlanMetrics(const Workload& w,
                                         const mct::MctSchema& schema) {
  std::vector<QueryMetricsRow> rows;
  for (const std::string& name : w.figure_queries) {
    const query::AssociationQuery* q = w.Find(name);
    MCTDB_CHECK(q != nullptr);
    auto plan = query::PlanQuery(*q, schema);
    MCTDB_CHECK_MSG(plan.ok(), plan.status().ToString().c_str());
    rows.push_back({name, schema.name(), plan->Stats()});
  }
  return rows;
}

std::vector<Workload> CollectionWorkloads() {
  std::vector<Workload> out;
  for (const er::ErDiagram& d : er::EvaluationCollection()) {
    if (d.name() == "Derby") {
      out.push_back(DerbyWorkload());
    } else if (d.name() == "TPC-W") {
      out.push_back(TpcwWorkload(0.01));
    } else {
      out.push_back(XmarkEmulatedWorkload(d));
    }
  }
  return out;
}

std::vector<CollectionCell> AnalyzeCollection(
    const std::vector<Workload>& workloads,
    const std::vector<design::Strategy>& strategies) {
  std::vector<CollectionCell> cells;
  for (const Workload& w : workloads) {
    er::ErGraph graph(w.diagram);
    design::Designer designer(graph);
    for (design::Strategy strategy : strategies) {
      mct::MctSchema schema = designer.Design(strategy);
      auto rows = PlanMetrics(w, schema);
      std::vector<size_t> sj, vjcc, dup;
      for (const auto& row : rows) {
        sj.push_back(row.stats.structural_joins);
        vjcc.push_back(row.stats.value_joins_plus_crossings());
        dup.push_back(row.stats.dup_ops());
      }
      CollectionCell cell;
      cell.diagram = w.diagram.name();
      cell.schema = schema.name();
      cell.gmean_structural_joins = GeoMean1p(sj);
      cell.gmean_value_joins_crossings = GeoMean1p(vjcc);
      cell.gmean_dup_ops = GeoMean1p(dup);
      cell.num_colors = schema.num_colors();
      cells.push_back(cell);
    }
  }
  return cells;
}

}  // namespace mctdb::workload

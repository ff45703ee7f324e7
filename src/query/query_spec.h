// Association queries: the workload representation.
//
// The paper compares the SAME logical query compiled against seven
// different schemas, so queries are specified at the ER level, not the
// schema level: a tree pattern of ER node types whose edges carry explicit
// ER-graph paths (the association semantics), plus predicates, set
// semantics, group-by and an optional update action. The planner
// (src/query/planner.h) decides per schema whether each pattern edge is
// recovered structurally (and in which color), via a color crossing, or via
// an id/idref value join.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "er/er_graph.h"

namespace mctdb::query {

/// Equality predicate on one attribute of a pattern node.
struct AttrPredicate {
  std::string attr;
  std::string value;
};

struct PatternNode {
  er::NodeId er_node = er::kInvalidNode;
  /// Index of the parent pattern node; -1 for the root (anchor).
  int parent = -1;
  /// The ER-graph node path from the parent's type to this type, inclusive
  /// of both endpoints (so path.size() >= 2 for non-roots). This pins the
  /// association's semantics (billing vs shipping, Fig 6 labels).
  std::vector<er::NodeId> path_from_parent;
  std::optional<AttrPredicate> predicate;
};

/// Groups the output node's logical instances by one attribute value.
struct GroupBySpec {
  std::string attr;  ///< grouping attribute of the output node
};

struct UpdateSpec {
  std::string attr;        ///< attribute of the output node to overwrite
  std::string new_value;
};

struct AssociationQuery {
  std::string name;
  std::vector<PatternNode> nodes;
  /// Pattern node whose logical instances the query returns (or updates).
  int output = 0;
  /// Set semantics requested: logically distinct results.
  bool distinct = false;
  std::optional<GroupBySpec> group_by;
  std::optional<UpdateSpec> update;

  bool is_update() const { return update.has_value(); }
};

/// Deterministic one-line serialization of EVERY field of a query —
/// structure, paths, predicates, output, set semantics, group-by, update.
/// Two queries canonicalize equal iff they plan and execute identically
/// against any one schema, which makes the text a safe plan-cache key
/// component (service/plan_cache.h).
std::string CanonicalQueryText(const AssociationQuery& query);

/// Fluent builder so workload definitions stay readable.
class QueryBuilder {
 public:
  QueryBuilder(std::string name, const er::ErDiagram& diagram)
      : diagram_(&diagram) {
    query_.name = std::move(name);
  }

  /// Adds the anchor node; returns its index.
  int Root(std::string_view type_name);
  /// Adds a child related to `parent` via the named ER path (sequence of
  /// node names from parent's type to the new node's type, exclusive of the
  /// parent, inclusive of the child); returns its index.
  int Via(int parent, const std::vector<std::string>& path_names);
  QueryBuilder& Where(int node, std::string_view attr, std::string_view value);
  QueryBuilder& Output(int node);
  QueryBuilder& Distinct();
  /// Groups the output node (the one set by Output, or the last added).
  QueryBuilder& GroupBy(std::string_view attr);
  QueryBuilder& Update(std::string_view attr, std::string_view value);

  AssociationQuery Build() const { return query_; }

 private:
  const er::ErDiagram* diagram_;
  AssociationQuery query_;
};

}  // namespace mctdb::query

// Logical ER instances — the ToXgene substitute (DESIGN.md §5).
//
// The paper's generator was "orchestrated to contain equivalent content to
// produce equivalent query results" across the seven schemas. We obtain the
// same guarantee structurally: ONE logical instance (entity instances +
// relationship instances honoring cardinalities and totality) is drawn
// first, and every schema materializes that same instance — so all schemas
// answer every query with the same logical result set, differing only in
// representation.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "er/er_graph.h"

namespace mctdb::instance {

struct GenOptions {
  /// Instance count for "source" entities; downstream entities scale by
  /// fanout along 1:N chains.
  size_t base_count = 40;
  /// Average number of many-side instances per one-side instance.
  double fanout = 3.0;
  /// Zipf skew for partner selection (0 = uniform).
  double zipf_theta = 0.3;
  /// Per-entity hard cap.
  size_t max_per_node = 500000;
  /// Probability that a partial-participation instance participates at all.
  double partial_participation = 0.7;
  uint64_t seed = 42;
  /// Per-entity-name count overrides (used by the TPC-W workload).
  std::map<std::string, size_t> explicit_counts;
};

/// One materialization-ready logical instance of an ER diagram.
class LogicalInstance {
 public:
  const er::ErDiagram& diagram() const { return *diagram_; }
  const er::ErGraph& graph() const { return *graph_; }

  /// Number of instances of an entity or relationship type.
  size_t count(er::NodeId node) const { return counts_[node]; }

  /// Relationship instance `rel_inst`'s endpoint instance on side
  /// `endpoint_index`.
  uint32_t EndpointOf(er::NodeId rel, int endpoint_index,
                      uint32_t rel_inst) const {
    return rel_pairs_[rel][rel_inst][endpoint_index];
  }

  /// Relationship instances (of edge.rel) in which instance `x_inst` of the
  /// edge's endpoint node participates.
  const std::vector<uint32_t>& RelsOf(er::EdgeId edge,
                                      uint32_t x_inst) const {
    return adjacency_[edge][x_inst];
  }

  /// Values per non-key attribute kind: ints lie in [0, kIntValues), and
  /// strings are one of kVocabWords vocabulary words.
  static constexpr uint32_t kIntValues = 1000;
  static constexpr uint32_t kVocabWords = 18;

  /// Which value an attribute record holds, without rendering it: equal
  /// identities render equal strings, so a materializer can resolve each
  /// identity to a dictionary id once.
  struct ValueRef {
    enum class Kind : uint8_t {
      kKey,   ///< the key of instance `index` of `node`
      kInt,   ///< the int `index`, in [0, kIntValues)
      kWord,  ///< vocabulary word `index`, in [0, kVocabWords)
    };
    Kind kind = Kind::kKey;
    er::NodeId node = er::kInvalidNode;  ///< kKey only
    uint32_t index = 0;
  };

  /// Deterministic attribute value. Key attributes yield the instance's
  /// key; string data attributes draw from a small vocabulary (so
  /// predicates are selective); ints are pseudo-random in [0, 1000).
  ValueRef AttrValueRef(er::NodeId node, uint32_t inst,
                        size_t attr_index) const;
  static ValueRef KeyValueRef(er::NodeId node, uint32_t inst) {
    return {ValueRef::Kind::kKey, node, inst};
  }
  /// The string a value identity stands for; keys are "<node>_<instance>".
  std::string Render(const ValueRef& value) const;

  std::string AttrValue(er::NodeId node, uint32_t inst,
                        size_t attr_index) const {
    return Render(AttrValueRef(node, inst, attr_index));
  }
  /// The key value of an instance (for idrefs and point predicates).
  std::string KeyValue(er::NodeId node, uint32_t inst) const {
    return Render(KeyValueRef(node, inst));
  }

  /// Sum of instance counts over all nodes.
  size_t TotalInstances() const;

 private:
  friend LogicalInstance GenerateInstance(const er::ErGraph&,
                                          const GenOptions&);
  const er::ErDiagram* diagram_ = nullptr;
  const er::ErGraph* graph_ = nullptr;
  std::vector<size_t> counts_;
  /// attr_seeds_[node][a]: Hash64 of the attribute's name, which seeds
  /// its data values.
  std::vector<std::vector<uint64_t>> attr_seeds_;
  /// rel_pairs_[rel][inst] = {endpoint0 instance, endpoint1 instance};
  /// empty for entity nodes.
  std::vector<std::vector<std::array<uint32_t, 2>>> rel_pairs_;
  /// adjacency_[edge][x_inst] = rel instances containing x_inst.
  std::vector<std::vector<std::vector<uint32_t>>> adjacency_;
};

/// Draws a logical instance. `graph` must outlive the result.
LogicalInstance GenerateInstance(const er::ErGraph& graph,
                                 const GenOptions& options = {});

}  // namespace mctdb::instance

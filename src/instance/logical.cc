#include "instance/logical.h"

#include <algorithm>
#include <array>

#include "common/hash.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace mctdb::instance {

namespace {

/// Vocabulary for string data attributes. Small enough that predicates are
/// selective but not singleton; "Japan" leads so country-style predicates
/// (Q1/Q2) always have matches.
constexpr const char* kVocab[] = {
    "Japan",  "USA",    "Germany", "Brazil", "India",  "France",
    "Canada", "Kenya",  "Norway",  "Chile",  "Egypt",  "Korea",
    "Spain",  "Italy",  "Poland",  "Peru",   "Ghana",  "Laos",
};
static_assert(sizeof(kVocab) / sizeof(kVocab[0]) ==
              LogicalInstance::kVocabWords);

}  // namespace

LogicalInstance::ValueRef LogicalInstance::AttrValueRef(
    er::NodeId node, uint32_t inst, size_t attr_index) const {
  const er::Attribute& attr = diagram_->node(node).attributes[attr_index];
  if (attr.is_key) return KeyValueRef(node, inst);
  uint64_t h = HashCombine(attr_seeds_[node][attr_index],
                           HashCombine(node, inst));
  if (attr.type == er::AttrType::kInt) {
    return {ValueRef::Kind::kInt, er::kInvalidNode,
            static_cast<uint32_t>(h % kIntValues)};
  }
  return {ValueRef::Kind::kWord, er::kInvalidNode,
          static_cast<uint32_t>(h % kVocabWords)};
}

std::string LogicalInstance::Render(const ValueRef& value) const {
  switch (value.kind) {
    case ValueRef::Kind::kKey:
      return diagram_->node(value.node).name + "_" +
             std::to_string(value.index);
    case ValueRef::Kind::kInt:
      return std::to_string(value.index);
    case ValueRef::Kind::kWord:
      break;
  }
  return kVocab[value.index];
}

size_t LogicalInstance::TotalInstances() const {
  size_t total = 0;
  for (size_t c : counts_) total += c;
  return total;
}

LogicalInstance GenerateInstance(const er::ErGraph& graph,
                                 const GenOptions& options) {
  const er::ErDiagram& diagram = graph.diagram();
  LogicalInstance out;
  out.diagram_ = &diagram;
  out.graph_ = &graph;
  out.counts_.assign(diagram.num_nodes(), 0);
  out.attr_seeds_.resize(diagram.num_nodes());
  for (const er::ErNode& node : diagram.nodes()) {
    for (const er::Attribute& attr : node.attributes) {
      out.attr_seeds_[node.id].push_back(Hash64(attr.name));
    }
  }
  out.rel_pairs_.resize(diagram.num_nodes());
  out.adjacency_.resize(graph.num_edges());

  Rng rng(options.seed);

  // 1. Entity counts: base everywhere, then scale many-sides of 1:N chains
  //    by fanout until fixpoint (declaration order in a diagram need not be
  //    topological for this rule).
  for (const er::ErNode& node : diagram.nodes()) {
    if (!node.is_entity()) continue;
    auto it = options.explicit_counts.find(node.name);
    out.counts_[node.id] =
        it != options.explicit_counts.end() ? it->second : options.base_count;
  }
  for (int pass = 0; pass < 4; ++pass) {
    for (const er::ErNode& node : diagram.nodes()) {
      if (!node.is_relationship()) continue;
      const er::Endpoint& e0 = node.endpoints[0];
      const er::Endpoint& e1 = node.endpoints[1];
      bool zero_n_01 = e0.participation == er::Participation::kMany &&
                       e1.participation == er::Participation::kOne;
      bool zero_n_10 = e1.participation == er::Participation::kMany &&
                       e0.participation == er::Participation::kOne;
      if (!zero_n_01 && !zero_n_10) continue;
      er::NodeId one_side = zero_n_01 ? e0.target : e1.target;
      er::NodeId many_side = zero_n_01 ? e1.target : e0.target;
      if (!diagram.node(many_side).is_entity()) continue;
      if (diagram.node(many_side) .is_entity() &&
          options.explicit_counts.count(diagram.node(many_side).name)) {
        continue;  // explicit counts win
      }
      size_t scaled = std::min(
          options.max_per_node,
          size_t(double(out.counts_[one_side]) * options.fanout));
      out.counts_[many_side] = std::max(out.counts_[many_side], scaled);
    }
  }

  // 2. Relationship instances, in declaration order (endpoints of
  //    higher-order relationships are populated first by stratification).
  for (const er::ErNode& node : diagram.nodes()) {
    if (!node.is_relationship()) continue;
    const er::Endpoint& e0 = node.endpoints[0];
    const er::Endpoint& e1 = node.endpoints[1];
    size_t n0 = out.counts_[e0.target];
    size_t n1 = out.counts_[e1.target];
    auto& pairs = out.rel_pairs_[node.id];
    if (n0 == 0 || n1 == 0) {
      out.counts_[node.id] = 0;
      continue;
    }

    auto participates = [&](const er::Endpoint& ep) {
      return ep.totality == er::Totality::kTotal ||
             rng.NextDouble() < options.partial_participation;
    };
    // Samplers are built once per relationship side: building one sums
    // zeta(n), which is O(n).
    auto pick = [&](const ZipfSampler& side) {
      return static_cast<uint32_t>(side.Sample(&rng));
    };

    if (e0.participation == er::Participation::kMany &&
        e1.participation == er::Participation::kOne) {
      // one e0 : many e1 — one relationship instance per participating e1.
      const ZipfSampler side0(n0, options.zipf_theta);
      for (uint32_t b = 0; b < n1; ++b) {
        if (participates(e1)) pairs.push_back({pick(side0), b});
      }
    } else if (e1.participation == er::Participation::kMany &&
               e0.participation == er::Participation::kOne) {
      const ZipfSampler side1(n1, options.zipf_theta);
      for (uint32_t a = 0; a < n0; ++a) {
        if (participates(e0)) pairs.push_back({a, pick(side1)});
      }
    } else if (e0.participation == er::Participation::kOne &&
               e1.participation == er::Participation::kOne) {
      // 1:1 — pair instance i with a shifted partner, up to the smaller
      // side.
      size_t n = std::min(n0, n1);
      uint32_t shift = static_cast<uint32_t>(rng.Uniform(n));
      for (uint32_t i = 0; i < n; ++i) {
        if (participates(e0)) {
          pairs.push_back({i, static_cast<uint32_t>((i + shift) % n)});
        }
      }
    } else {
      // M:N — fanout per instance of the larger side.
      size_t total = std::min(
          options.max_per_node,
          size_t(double(std::max(n0, n1)) * options.fanout));
      const ZipfSampler side0(n0, options.zipf_theta);
      const ZipfSampler side1(n1, options.zipf_theta);
      // Each endpoint instance participates at least once when total.
      for (uint32_t i = 0; i < total; ++i) {
        uint32_t a = e0.totality == er::Totality::kTotal && i < n0
                         ? i
                         : pick(side0);
        uint32_t b = e1.totality == er::Totality::kTotal && i < n1
                         ? i
                         : pick(side1);
        pairs.push_back({a, b});
      }
    }
    out.counts_[node.id] = pairs.size();
  }

  // 3. Adjacency: for each edge (rel, endpoint), endpoint instance ->
  //    relationship instances.
  for (const er::ErEdge& edge : graph.edges()) {
    auto& adj = out.adjacency_[edge.id];
    adj.assign(out.counts_[edge.node], {});
    const auto& pairs = out.rel_pairs_[edge.rel];
    for (uint32_t r = 0; r < pairs.size(); ++r) {
      uint32_t x = pairs[r][edge.endpoint_index];
      MCTDB_CHECK(x < adj.size());
      adj[x].push_back(r);
    }
  }
  return out;
}

}  // namespace mctdb::instance

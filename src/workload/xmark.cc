// XMark-emulated workloads (paper §6: "we generated a query workload for
// each ER diagram, based on emulating the XMark set of queries through
// identifying correspondences between schema elements", plus the XMark
// update workload from the UpdateX project).
//
// The XMark archetypes, mapped to ER-graph shapes:
//   point lookup, child axis step, deep descendant chain, M:N traversal,
//   reverse (context) lookup, tuple/branch pattern, group-by aggregation,
//   distinct projection; updates: point update, bulk update, chain-located
//   update, context-located update.
#include <algorithm>
#include <set>

#include "design/associations.h"
#include "workload/workload.h"

namespace mctdb::workload {

namespace {

using design::AssociationPath;
using query::QueryBuilder;

/// Node-name sequence of a path, excluding the source.
std::vector<std::string> PathNames(const er::ErDiagram& d,
                                   const AssociationPath& p) {
  std::vector<std::string> names;
  for (size_t i = 1; i < p.nodes.size(); ++i) {
    names.push_back(d.node(p.nodes[i]).name);
  }
  return names;
}

/// First non-key string attribute of a node; falls back to the key.
const er::Attribute* PredicateAttr(const er::ErDiagram& d, er::NodeId node) {
  const er::Attribute* key = nullptr;
  for (const er::Attribute& a : d.node(node).attributes) {
    if (a.is_key) {
      key = &a;
    } else if (a.type == er::AttrType::kString) {
      return &a;
    }
  }
  return key;
}

const er::Attribute* UpdatableAttr(const er::ErDiagram& d, er::NodeId node) {
  for (const er::Attribute& a : d.node(node).attributes) {
    if (!a.is_key) return &a;
  }
  return nullptr;
}

}  // namespace

Workload XmarkEmulatedWorkload(const er::ErDiagram& diagram) {
  Workload w(diagram);
  const er::ErDiagram& d = w.diagram;
  w.gen.base_count = 60;
  w.gen.fanout = 3.0;
  w.gen.seed = 1234 + d.num_nodes();

  er::ErGraph graph(d);
  auto eligible = design::EnumerateEligiblePaths(graph);

  int qn = 0, un = 0;
  auto qname = [&] { return "Q" + std::to_string(++qn); };
  auto uname = [&] { return "U" + std::to_string(++un); };

  std::vector<er::NodeId> entities;
  for (const er::ErNode& n : d.nodes()) {
    if (n.is_entity()) entities.push_back(n.id);
  }

  // --- Archetype 1: point lookups (2, schema-indifferent). -----------------
  for (size_t i = 0; i < 2 && i < entities.size(); ++i) {
    QueryBuilder b(qname(), d);
    int r = b.Root(d.node(entities[i]).name);
    b.Where(r, "id", d.node(entities[i]).name + "_1");
    w.queries.push_back(b.Build());
  }

  // --- Archetype 2: single child-axis steps (4). ----------------------------
  {
    size_t made = 0;
    for (const er::ErNode& n : d.nodes()) {
      if (!n.is_relationship() || made >= 4) continue;
      // Navigate from the endpoint that participates in MANY instances (the
      // natural one-to-many child step) through to the other endpoint.
      int side = n.endpoints[0].participation == er::Participation::kMany
                     ? 0
                     : 1;
      er::NodeId from = n.endpoints[side].target;
      er::NodeId to = n.endpoints[1 - side].target;
      QueryBuilder b(qname(), d);
      int r = b.Root(d.node(from).name);
      const er::Attribute* attr = PredicateAttr(d, from);
      if (attr != nullptr) b.Where(r, attr->name, "Japan");
      b.Via(r, {n.name, d.node(to).name});
      w.queries.push_back(b.Build());
      ++made;
    }
  }

  // --- Archetype 3: deep descendant chains (4 longest, distinct sources). --
  {
    std::vector<const AssociationPath*> longest;
    for (const AssociationPath& p : eligible) longest.push_back(&p);
    std::stable_sort(longest.begin(), longest.end(),
                     [](const AssociationPath* a, const AssociationPath* b) {
                       return a->length() > b->length();
                     });
    std::set<er::NodeId> used_sources;
    size_t made = 0;
    for (const AssociationPath* p : longest) {
      if (made >= 4) break;
      if (!used_sources.insert(p->source).second) continue;
      QueryBuilder b(qname(), d);
      int r = b.Root(d.node(p->source).name);
      const er::Attribute* attr = PredicateAttr(d, p->source);
      if (attr != nullptr && !attr->is_key) b.Where(r, attr->name, "Japan");
      b.Via(r, PathNames(d, *p));
      w.queries.push_back(b.Build());
      ++made;
    }
  }

  // --- Archetype 4: M:N traversals (2, distinct). ---------------------------
  {
    size_t made = 0;
    for (const er::ErNode& n : d.nodes()) {
      if (made >= 2 || !n.is_relationship()) continue;
      if (n.endpoints[0].participation != er::Participation::kMany ||
          n.endpoints[1].participation != er::Participation::kMany) {
        continue;
      }
      QueryBuilder b(qname(), d);
      int r = b.Root(d.node(n.endpoints[0].target).name);
      b.Where(r, "id", d.node(n.endpoints[0].target).name + "_2");
      b.Via(r, {n.name, d.node(n.endpoints[1].target).name});
      b.Distinct();
      w.queries.push_back(b.Build());
      ++made;
    }
  }

  // --- Archetype 5: reverse context lookups (2, distinct). ------------------
  // many-side entity -> relationship -> one-side entity (billing-address
  // style).
  {
    size_t made = 0;
    for (const er::ErNode& n : d.nodes()) {
      if (made >= 2 || !n.is_relationship()) continue;
      int many_ep;
      if (n.endpoints[0].participation == er::Participation::kMany &&
          n.endpoints[1].participation == er::Participation::kOne) {
        many_ep = 0;
      } else if (n.endpoints[1].participation == er::Participation::kMany &&
                 n.endpoints[0].participation == er::Participation::kOne) {
        many_ep = 1;
      } else {
        continue;
      }
      // Root at the ONE-participation endpoint (the "many side" of the
      // relationship), look up its shared context.
      er::NodeId from = n.endpoints[1 - many_ep].target;
      er::NodeId to = n.endpoints[many_ep].target;
      QueryBuilder b(qname(), d);
      int r = b.Root(d.node(from).name);
      const er::Attribute* attr = PredicateAttr(d, from);
      if (attr != nullptr && !attr->is_key) b.Where(r, attr->name, "USA");
      b.Via(r, {n.name, d.node(to).name});
      b.Distinct();
      w.queries.push_back(b.Build());
      ++made;
    }
  }

  // --- Archetype 6: tuple / branch patterns (2, Fig 6 style). ---------------
  {
    size_t made = 0;
    for (const er::ErNode& n : d.nodes()) {
      if (made >= 2 || !n.is_entity()) continue;
      // Need two distinct relationships incident on n, traversable outward.
      std::vector<const er::ErEdge*> out;
      for (er::EdgeId eid : graph.incident(n.id)) {
        const er::ErEdge& e = graph.edge(eid);
        if (e.node == n.id) out.push_back(&e);
      }
      if (out.size() < 2) continue;
      QueryBuilder b(qname(), d);
      int r = b.Root(n.name);
      // Filter branch first, output branch second (executor contract).
      int filter = b.Via(r, {d.node(out[0]->rel).name});
      const er::Attribute* fattr = PredicateAttr(d, out[0]->rel);
      if (fattr != nullptr) {
        b.Where(filter, fattr->name, fattr->is_key
                                          ? d.node(out[0]->rel).name + "_1"
                                          : "France");
      }
      int output = b.Via(r, {d.node(out[1]->rel).name});
      b.Output(output);
      w.queries.push_back(b.Build());
      ++made;
    }
  }

  // --- Archetype 7: group-by aggregations (2). ------------------------------
  {
    size_t made = 0;
    for (const AssociationPath& p : eligible) {
      if (made >= 2 || p.length() < 2) continue;
      const er::Attribute* attr = UpdatableAttr(d, p.target);
      if (attr == nullptr) continue;
      QueryBuilder b(qname(), d);
      int r = b.Root(d.node(p.source).name);
      b.Via(r, PathNames(d, p));
      b.GroupBy(attr->name);
      w.queries.push_back(b.Build());
      ++made;
    }
  }

  // --- Fill remaining reads with medium chains up to 20. --------------------
  for (const AssociationPath& p : eligible) {
    if (qn >= 20) break;
    if (p.length() != 3) continue;
    QueryBuilder b(qname(), d);
    int r = b.Root(d.node(p.source).name);
    b.Where(r, "id", d.node(p.source).name + "_3");
    b.Via(r, PathNames(d, p));
    w.queries.push_back(b.Build());
  }

  // --- Updates (8): point, bulk, chain-located, reverse-located. ------------
  for (size_t i = 0; i < 2 && i < entities.size(); ++i) {
    const er::Attribute* attr = UpdatableAttr(d, entities[i]);
    if (attr == nullptr) continue;
    QueryBuilder b(uname(), d);
    int r = b.Root(d.node(entities[i]).name);
    b.Where(r, "id", d.node(entities[i]).name + "_1");
    b.Update(attr->name, "updated");
    w.queries.push_back(b.Build());
  }
  {
    size_t made = 0;
    for (const er::ErNode& n : d.nodes()) {
      if (made >= 2 || !n.is_entity()) continue;
      const er::Attribute* pred = PredicateAttr(d, n.id);
      const er::Attribute* upd = UpdatableAttr(d, n.id);
      if (pred == nullptr || upd == nullptr || pred->is_key) continue;
      QueryBuilder b(uname(), d);
      int r = b.Root(n.name);
      b.Where(r, pred->name, "Japan");
      b.Update(upd->name, "bulk");
      w.queries.push_back(b.Build());
      ++made;
    }
  }
  {
    size_t made = 0;
    for (const AssociationPath& p : eligible) {
      if (made >= 2 || p.length() < 3) continue;
      const er::Attribute* upd = UpdatableAttr(d, p.target);
      if (upd == nullptr) continue;
      QueryBuilder b(uname(), d);
      int r = b.Root(d.node(p.source).name);
      b.Where(r, "id", d.node(p.source).name + "_2");
      b.Via(r, PathNames(d, p));
      b.Update(upd->name, "chain");
      w.queries.push_back(b.Build());
      ++made;
    }
  }
  {
    // Reverse-located: update the shared context found via archetype 5.
    size_t made = 0;
    for (const er::ErNode& n : d.nodes()) {
      if (made >= 2 || !n.is_relationship()) continue;
      int many_ep;
      if (n.endpoints[0].participation == er::Participation::kMany &&
          n.endpoints[1].participation == er::Participation::kOne) {
        many_ep = 0;
      } else if (n.endpoints[1].participation == er::Participation::kMany &&
                 n.endpoints[0].participation == er::Participation::kOne) {
        many_ep = 1;
      } else {
        continue;
      }
      er::NodeId from = n.endpoints[1 - many_ep].target;
      er::NodeId to = n.endpoints[many_ep].target;
      const er::Attribute* upd = UpdatableAttr(d, to);
      if (upd == nullptr) continue;
      QueryBuilder b(uname(), d);
      int r = b.Root(d.node(from).name);
      b.Where(r, "id", d.node(from).name + "_4");
      b.Via(r, {n.name, d.node(to).name});
      b.Update(upd->name, "ctx");
      w.queries.push_back(b.Build());
      ++made;
    }
  }

  // Figure metrics: everything except the two point lookups (schema-
  // indifferent, mirroring the TPC-W treatment).
  for (const auto& q : w.queries) {
    if (q.name != "Q1" && q.name != "Q2") w.figure_queries.push_back(q.name);
  }
  return w;
}

}  // namespace mctdb::workload

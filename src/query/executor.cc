#include "query/executor.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <unordered_set>

#include "common/logging.h"
#include "query/structural_join.h"

namespace mctdb::query {

namespace {

using storage::ElemId;
using storage::LabelEntry;

void SortByStart(std::vector<LabelEntry>* v) {
  std::sort(v->begin(), v->end(),
            [](const LabelEntry& a, const LabelEntry& b) {
              return a.start < b.start;
            });
}

/// The name of a node type's key attribute ("id" in the catalog; the first
/// declared key otherwise).
const std::string* KeyAttrName(const er::ErDiagram& d, er::NodeId node) {
  for (const er::Attribute& a : d.node(node).attributes) {
    if (a.is_key) return &a.name;
  }
  return nullptr;
}

/// The attributes a value-join segment compares: the rel side holds
/// "<endpoint>_idref", the endpoint side its key. `upper` belongs to the
/// segment's from-type, `lower` to its to-type.
struct JoinAttrs {
  std::string upper;
  std::string lower;
};

JoinAttrs ValueJoinAttrs(const mct::MctSchema& schema, const Segment& seg,
                         const std::vector<er::NodeId>& path) {
  const er::ErDiagram& d = schema.diagram();
  const er::ErEdge& e = schema.graph().edge(seg.ref_edge);
  const er::NodeId from_type = path[seg.from_index];
  const er::NodeId to_type = path[seg.to_index];
  std::string idref = d.node(e.node).name + "_idref";
  const bool rel_to_endpoint = from_type == e.rel;
  const std::string* key =
      KeyAttrName(d, rel_to_endpoint ? to_type : from_type);
  MCTDB_CHECK(key != nullptr);
  if (rel_to_endpoint) return {std::move(idref), *key};
  return {*key, std::move(idref)};
}

/// Index-assisted bounds: necessary conditions on a candidate's label for
/// it to appear in ANY containment pair with `b`, derived from b's
/// extremes. The cursor uses them only to skip whole ruled-out pages, so
/// join results are unchanged.
storage::ScanBounds CandidateBounds(const std::vector<LabelEntry>& b,
                                    bool candidates_are_ancestors) {
  storage::ScanBounds bounds;
  if (!candidates_are_ancestors) {
    // Candidate descendants: start must fall strictly inside some
    // ancestor, so start > min(anc.start) and start < max(anc.end).
    uint32_t min_start = UINT32_MAX;
    uint32_t max_end = 0;
    for (const LabelEntry& e : b) {
      if (e.start < min_start) min_start = e.start;
      if (e.end > max_end) max_end = e.end;
    }
    bounds.start_gt = min_start;
    bounds.start_lt = max_end;
  } else {
    // Candidate ancestors: must open before some descendant and close at
    // or after its end, so start < max(desc.start) and end >= min(desc.end).
    uint32_t max_start = 0;
    uint32_t min_end = UINT32_MAX;
    for (const LabelEntry& e : b) {
      if (e.start > max_start) max_start = e.start;
      if (e.end < min_end) min_end = e.end;
    }
    bounds.start_lt = max_start;
    bounds.end_gt = min_end == 0 ? 0 : min_end - 1;
  }
  return bounds;
}

}  // namespace

Executor::Binding Executor::ScanTag(mct::ColorId color, er::NodeId tag,
                                    const AttrPredicate* predicate,
                                    const storage::ScanBounds* bounds) {
  obs::SpanScope span(stats_, obs::StageKind::kTagScan,
                      store_->schema().diagram().node(tag).name + "@c" +
                          std::to_string(color));
  Binding out;
  // Base posting pages merged with the snapshot-visible delta inserts,
  // minus deleted placements; on a read-only store this is the plain base
  // cursor.
  storage::MergedPostingCursor cursor(pool_, *store_, color, tag, snapshot_,
                                      stats_);
  if (bounds != nullptr) cursor.ApplyBounds(*bounds);
  span.SetCardinalityIn(cursor.upper_bound());
  // One allocation up front: the cursor knows an exact upper bound on the
  // entries it can yield, so materialization never regrows mid-scan.
  out.reserve(cursor.upper_bound());
  // A page's worth of entries per call, appended (or predicate-filtered)
  // straight from the pinned span. The predicate resolves its attr name
  // and value to dictionary ids once; a value absent from the store-wide
  // dictionary cannot match any element, so the scan ends before fetching
  // another page.
  uint32_t pred_name = UINT32_MAX, pred_value = UINT32_MAX;
  if (predicate != nullptr) {
    pred_name = store_->FindAttrName(predicate->attr);
    pred_value = store_->FindValue(predicate->value);
  }
  const LabelEntry* data = nullptr;
  size_t n = 0;
  std::vector<uint32_t> ids;
  while (cursor.NextSpan(&data, &n)) {
    if (predicate == nullptr) {
      out.insert(out.end(), data, data + n);
      continue;
    }
    if (pred_name == UINT32_MAX || pred_value == UINT32_MAX) break;
    ValueIds({data, n}, pred_name, &ids);
    for (size_t i = 0; i < n; ++i) {
      if (ids[i] == pred_value) out.push_back(data[i]);
    }
  }
  if (!cursor.status().ok() && failure_.ok()) {
    // Latched, not returned: the Binding signature has no error channel.
    // Execute checks failure_ between steps and fails the query.
    failure_ = cursor.status();
  }
  span.SetCardinalityOut(out.size());
  return out;
}

void Executor::ValueIds(std::span<const LabelEntry> entries, uint32_t name_id,
                        std::vector<uint32_t>* ids) const {
  ids->resize(entries.size());
  store_->AttrValueIds(entries, name_id, snapshot_, ids->data());
}

Executor::Binding Executor::ValueSemiJoin(const Binding& keep,
                                          std::string_view keep_attr,
                                          const Binding& probe,
                                          std::string_view probe_attr) {
  // Hash the probe side's value ids; one membership pass over `keep` then
  // selects the result.
  std::vector<uint32_t> ids;
  ValueIds(probe, store_->FindAttrName(probe_attr), &ids);
  std::unordered_set<uint32_t> wanted(ids.begin(), ids.end());
  wanted.erase(UINT32_MAX);
  ValueIds(keep, store_->FindAttrName(keep_attr), &ids);
  Binding out;
  for (size_t i = 0; i < keep.size(); ++i) {
    if (wanted.count(ids[i]) != 0) out.push_back(keep[i]);
  }
  return out;
}

Executor::Binding Executor::FilterPredicate(Binding in,
                                            const AttrPredicate& predicate) {
  obs::SpanScope span(stats_, obs::StageKind::kPredicateFilter,
                      predicate.attr + "=" + predicate.value);
  span.SetCardinalityIn(in.size());
  const uint32_t value = store_->FindValue(predicate.value);
  std::vector<uint32_t> ids;
  ValueIds(in, store_->FindAttrName(predicate.attr), &ids);
  Binding out;
  out.reserve(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    if (value != UINT32_MAX && ids[i] == value) out.push_back(in[i]);
  }
  span.SetCardinalityOut(out.size());
  return out;
}

Executor::Binding Executor::CrossTo(const Binding& in,
                                    mct::ColorId from_color,
                                    mct::ColorId color) {
  if (from_color == color) return in;
  obs::SpanScope span(stats_, obs::StageKind::kCrossColor,
                      "c" + std::to_string(from_color) + "->c" +
                          std::to_string(color));
  span.SetCardinalityIn(in.size());
  Binding out;
  std::unordered_set<uint64_t> seen;
  for (const LabelEntry& e : in) {
    // Re-anchor through the logical instance to EVERY placement in the
    // target color: the shared element's own placement there may be a
    // context graft with no substructure, while a copy sits at the primary
    // position — both must join.
    const storage::ElementMeta& meta = store_->element(e.elem);
    for (ElemId sibling : store_->ElementsFor(meta.er_node, meta.logical, snapshot_)) {
      LabelEntry label;
      if (store_->Label(color, sibling, &label, snapshot_) &&
          seen.insert(label.elem).second) {
        out.push_back(label);
      }
    }
  }
  SortByStart(&out);
  span.SetCardinalityOut(out.size());
  return out;
}

Executor::Stage Executor::EvalEdge(const EdgePlan& edge,
                                   const PatternNode& node,
                                   const Stage& parent,
                                   std::vector<Stage>* upper) {
  const er::ErDiagram& diagram = store_->schema().diagram();
  const auto& path = node.path_from_parent;
  Stage current = parent;
  for (const Segment& seg : edge.segments) {
    if (upper != nullptr) upper->push_back(current);
    if (seg.kind == SegmentKind::kValueJoin) {
      er::NodeId from_type = path[seg.from_index];
      er::NodeId to_type = path[seg.to_index];
      obs::SpanScope span(stats_, obs::StageKind::kValueJoin,
                          diagram.node(from_type).name + "~" +
                              diagram.node(to_type).name);
      span.SetCardinalityIn(current.binding.size());
      const JoinAttrs attrs = ValueJoinAttrs(store_->schema(), seg, path);
      // Value joins only arise in single-color schemas; the to-type side
      // is scanned wherever the tag lives (color 0).
      Binding scanned = ScanTag(0, to_type, nullptr);
      Binding next =
          ValueSemiJoin(scanned, attrs.lower, current.binding, attrs.upper);
      SortByStart(&next);
      span.SetCardinalityOut(next.size());
      current = {std::move(next), 0};
      continue;
    }

    // Structural segment: cross into the segment color first.
    current.binding = CrossTo(current.binding, current.color, seg.color);
    current.color = seg.color;
    size_t steps = seg.kind == SegmentKind::kAncDesc
                       ? 1
                       : seg.to_index - seg.from_index;
    for (size_t step = 0; step < steps; ++step) {
      er::NodeId next_type =
          seg.kind == SegmentKind::kAncDesc
              ? path[seg.to_index]
              : path[seg.from_index + step + 1];
      obs::SpanScope span(stats_, obs::StageKind::kStructuralJoin,
                          diagram.node(next_type).name + "@c" +
                              std::to_string(seg.color));
      span.SetCardinalityIn(current.binding.size());
      if (current.binding.empty()) {
        // An empty side joins to nothing; skip the candidate scan — the
        // result is identical with zero I/O.
        span.SetCardinalityOut(0);
        continue;
      }
      StructuralJoinOptions opts;
      opts.parent_child_only =
          seg.kind == SegmentKind::kStepChain ||
          (seg.to_index - seg.from_index) == 1;
      const storage::ScanBounds bounds =
          CandidateBounds(current.binding, seg.reversed);
      // The candidate ScanTag nests as a child span of this join.
      Binding candidates = ScanTag(seg.color, next_type, nullptr, &bounds);
      StructuralJoinResult joined;
      if (!seg.reversed) {
        joined = StackTreeJoin(current.binding, candidates, opts);
        current.binding = std::move(joined.descendants);
      } else {
        joined = StackTreeJoin(candidates, current.binding, opts);
        current.binding = std::move(joined.ancestors);
      }
      span.AddJoinPairs(joined.pairs);
      span.SetCardinalityOut(current.binding.size());
    }
  }

  if (node.predicate.has_value()) {
    current.binding =
        FilterPredicate(std::move(current.binding), *node.predicate);
  }
  return current;
}

void Executor::ReduceParent(const EdgePlan& edge, const PatternNode& node,
                            const std::vector<Stage>& upper,
                            const Stage& child, Binding* parent) {
  if (child.binding.empty()) {
    parent->clear();
    return;
  }
  const er::ErDiagram& diagram = store_->schema().diagram();
  const auto& path = node.path_from_parent;
  obs::SpanScope span(stats_, obs::StageKind::kBackwardReduction,
                      diagram.node(node.er_node).name);
  span.SetCardinalityIn(parent->size());
  // Walk the segments backward, reducing each upper binding to members
  // that reach the surviving children.
  Stage survivors = child;
  for (size_t si = edge.segments.size(); si-- > 0;) {
    const Segment& seg = edge.segments[si];
    const Stage& up = upper[si];
    if (seg.kind == SegmentKind::kValueJoin) {
      const JoinAttrs attrs = ValueJoinAttrs(store_->schema(), seg, path);
      survivors = {ValueSemiJoin(up.binding, attrs.upper, survivors.binding,
                                 attrs.lower),
                   up.color};
      continue;
    }
    // Structural: join the upper binding (crossed into the segment color)
    // against the survivors and keep the matched side.
    Binding upper_in_color = CrossTo(up.binding, up.color, seg.color);
    Binding surv_in_color =
        CrossTo(survivors.binding, survivors.color, seg.color);
    SortByStart(&upper_in_color);
    SortByStart(&surv_in_color);
    StructuralJoinOptions opts;  // a-d suffices for reduction
    StructuralJoinResult joined;
    if (!seg.reversed) {
      joined = StackTreeJoin(upper_in_color, surv_in_color, opts);
      survivors.binding = std::move(joined.ancestors);
    } else {
      joined = StackTreeJoin(surv_in_color, upper_in_color, opts);
      survivors.binding = std::move(joined.descendants);
    }
    span.AddJoinPairs(joined.pairs);
    survivors.color = seg.color;
  }
  // Map survivors back to the parent's identity set BY LOGICAL INSTANCE:
  // in a redundant schema the filter branch may have matched one stored
  // copy of the parent while the output branch navigates another, and
  // the semantics of the filter is about the logical node.
  std::unordered_set<uint64_t> keep;
  auto logical_key = [&](ElemId elem) {
    const storage::ElementMeta& meta = store_->element(elem);
    return (uint64_t(meta.er_node) << 32) | meta.logical;
  };
  for (const LabelEntry& e : survivors.binding) {
    keep.insert(logical_key(e.elem));
  }
  Binding reduced_parent;
  for (const LabelEntry& e : *parent) {
    if (keep.count(logical_key(e.elem))) reduced_parent.push_back(e);
  }
  span.SetCardinalityOut(reduced_parent.size());
  *parent = std::move(reduced_parent);
}

Result<ExecResult> Executor::Execute(const QueryPlan& plan) {
  if (plan.query == nullptr) {
    return Status::InvalidArgument("plan has no query attached");
  }
  const AssociationQuery& query = *plan.query;
  if (query.is_update() && store_->versioned()) {
    // An update-form query rewrites the base in place, with no WAL record
    // and no LSN: under snapshot readers that is a torn, unlogged write.
    // A versioned store takes its updates as logged ops instead.
    return Status::InvalidArgument(
        "update query " + query.name +
        " cannot run on a versioned (WAL-backed) store; submit its update "
        "as an UpdateOp (Session::SubmitUpdate or query::UpdateExecutor)");
  }
  auto start_time = std::chrono::steady_clock::now();

  // The attribution context lives for exactly this call; every operator
  // (and posting cursor) below charges spans and page fetches to it.
  obs::ExecStats stats(query.name);
  stats_ = &stats;
  failure_ = Status::OK();

  if (plan.statically_empty) {
    // Static prune (analysis::AnalyzeQuery, DESIGN.md §14): the result set
    // is provably empty on this schema, so no operator runs and no page is
    // fetched. The annotated span keeps the prune visible in `mctc trace`.
    {
      obs::SpanScope span(stats_, obs::StageKind::kQuery,
                          "pruned: " + plan.prune_reason);
    }
    ExecResult result;
    auto end_time = std::chrono::steady_clock::now();
    result.elapsed_seconds =
        std::chrono::duration<double>(end_time - start_time).count();
    stats_ = nullptr;
    result.trace = stats.Finish();
    return result;
  }

  const size_t n = query.nodes.size();
  std::vector<Stage> at(n);  // each pattern node's binding and color

  // Spine: root .. output.
  std::vector<bool> on_spine(n, false);
  for (int cur = query.output; cur >= 0; cur = query.nodes[cur].parent) {
    on_spine[cur] = true;
  }

  // Anchor.
  const PatternNode& root = query.nodes[0];
  const AttrPredicate* root_pred =
      root.predicate.has_value() ? &*root.predicate : nullptr;
  at[0] = {ScanTag(plan.anchor_color, root.er_node, root_pred),
           plan.anchor_color};
  if (!failure_.ok()) {
    stats_ = nullptr;
    return failure_;
  }

  // Children of each pattern node, in declaration order, filter branches
  // before the spine child.
  std::vector<std::vector<int>> children(n);
  for (size_t i = 1; i < n; ++i) {
    children[query.nodes[i].parent].push_back(static_cast<int>(i));
  }
  for (auto& c : children) {
    std::stable_sort(c.begin(), c.end(), [&](int a, int b) {
      return !on_spine[a] && on_spine[b];
    });
  }

  // The edge plan for pattern node i.
  std::vector<const EdgePlan*> edge_of(n, nullptr);
  for (const EdgePlan& e : plan.edges) edge_of[e.pattern_node] = &e;

  // Depth-first evaluation. A filter (non-spine) child reduces its parent
  // only after its own subtree has reduced it, so the predicate of a
  // filter nested under a filter reaches every node above it; and since
  // filters come first, a spine child starts from its fully reduced parent.
  auto visit = [&](auto& self, int p) -> Status {
    for (int u : children[p]) {
      const PatternNode& node = query.nodes[u];
      if (edge_of[u] == nullptr) {
        return Status::InvalidArgument(
            "plan has no edge for pattern node " + std::to_string(u) + " (" +
            store_->schema().diagram().node(node.er_node).name + ")");
      }
      const bool filter = !on_spine[u];
      std::vector<Stage> upper;
      at[u] = EvalEdge(*edge_of[u], node, at[p], filter ? &upper : nullptr);
      if (!failure_.ok()) return failure_;
      MCTDB_RETURN_IF_ERROR(self(self, u));
      if (filter) {
        ReduceParent(*edge_of[u], node, upper, at[u], &at[p].binding);
      }
    }
    return Status::OK();
  };
  if (Status s = visit(visit, 0); !s.ok()) {
    stats_ = nullptr;
    return s;
  }

  ExecResult result;
  const Binding& out_binding = at[query.output].binding;
  result.raw_count = out_binding.size();
  {
    obs::SpanScope span(
        stats_, obs::StageKind::kDupElim,
        store_->schema().diagram().node(query.nodes[query.output].er_node)
            .name);
    span.SetCardinalityIn(out_binding.size());
    std::set<uint32_t> unique;
    for (const LabelEntry& e : out_binding) {
      unique.insert(store_->element(e.elem).logical);
    }
    result.unique_count = unique.size();
    result.logicals.assign(unique.begin(), unique.end());
    span.SetCardinalityOut(result.unique_count);
  }

  if (query.group_by.has_value()) {
    obs::SpanScope span(stats_, obs::StageKind::kGroupBy,
                        query.group_by->attr);
    span.SetCardinalityIn(result.logicals.size());
    for (uint32_t logical : result.logicals) {
      auto elems = store_->ElementsFor(
          query.nodes[query.output].er_node, logical, snapshot_);
      if (elems.empty()) continue;
      const std::string* v =
          store_->AttrValue(elems[0], query.group_by->attr, snapshot_);
      if (v != nullptr) ++result.groups[*v];
    }
    span.SetCardinalityOut(result.groups.size());
  }

  if (query.is_update()) {
    obs::SpanScope span(stats_, obs::StageKind::kUpdate,
                        query.update->attr);
    span.SetCardinalityIn(result.logicals.size());
    er::NodeId type = query.nodes[query.output].er_node;
    uint32_t name_id = store_->FindAttrName(query.update->attr);
    MCTDB_CHECK(name_id != UINT32_MAX);
    for (uint32_t logical : result.logicals) {
      std::vector<ElemId> elems = store_->ElementsFor(type, logical);
      for (ElemId elem : elems) {
        store_->UpdateAttrValue(elem, name_id, query.update->new_value);
        ++result.elements_updated;
        // ICIC/color maintenance: touch the element's label in every color
        // it participates in (the non-EN price §6.1 describes).
        for (mct::ColorId c = 0; c < store_->schema().num_colors(); ++c) {
          LabelEntry tmp;
          if (store_->Label(c, elem, &tmp)) ++result.icic_color_touches;
        }
      }
      ++result.logicals_updated;
    }
    span.SetCardinalityOut(result.elements_updated);
  }

  auto end_time = std::chrono::steady_clock::now();
  result.elapsed_seconds =
      std::chrono::duration<double>(end_time - start_time).count();
  stats_ = nullptr;
  result.page_misses = stats.page_misses();
  result.page_hits = stats.page_hits();
  result.join_pairs = stats.join_pairs();
  result.index_seeks = stats.index_seeks();
  result.trace = stats.Finish();
  result.trace.cardinality_out = result.unique_count;
  return result;
}

}  // namespace mctdb::query

// MergedPostingCursor, the executor's scan of one posting list on a
// versioned store, against checks that share no merge code with it:
//   * at every snapshot of U1-U3 streams over all seven TPC-W schemas, each
//     (color, tag) scan equals MctStore::ColorEntries (which reads the
//     by-element deltas, label_added / label_removed) restricted to that
//     tag, and a scan under ScanBounds is a subsequence of it holding every
//     entry the bounds admit;
//   * a versioned store whose only deletes are in tags no read scans
//     charges every TPC-W read exactly the I/O and join pairs the
//     read-only store loaded from the same image charges.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "design/designer.h"
#include "instance/materialize.h"
#include "query/executor.h"
#include "query/planner.h"
#include "query/update_exec.h"
#include "storage/persist.h"
#include "storage/store.h"
#include "wal/durable_store.h"
#include "workload/update_gen.h"
#include "workload/workload.h"

namespace mctdb::storage {
namespace {

using design::Strategy;
using er::NodeId;
using mct::ColorId;

using Row = std::tuple<ElemId, uint32_t, uint32_t, uint16_t, uint16_t,
                       uint32_t>;

Row AsRow(const LabelEntry& e) {
  return {e.elem, e.start, e.end, e.level, e.is_copy, e.logical};
}
uint32_t Start(const Row& r) { return std::get<1>(r); }
uint32_t End(const Row& r) { return std::get<2>(r); }

bool IsSubsequence(const std::vector<Row>& sub, const std::vector<Row>& seq) {
  size_t i = 0;
  for (const Row& r : seq) {
    if (i < sub.size() && sub[i] == r) ++i;
  }
  return i == sub.size();
}

bool Admits(const ScanBounds& b, const Row& r) {
  return Start(r) > b.start_gt && Start(r) < b.start_lt && End(r) > b.end_gt;
}

/// Every span the cursor yields, flattened; `stats` counts index seeks.
std::vector<Row> Scan(const MctStore& store, ColorId color, NodeId tag,
                      Lsn snapshot, const ScanBounds* bounds = nullptr,
                      obs::ExecStats* stats = nullptr) {
  MergedPostingCursor cursor(store.buffer_pool(), store, color, tag,
                             snapshot, stats);
  if (bounds != nullptr) cursor.ApplyBounds(*bounds);
  std::vector<Row> out;
  const LabelEntry* data = nullptr;
  size_t n = 0;
  while (cursor.NextSpan(&data, &n)) {
    EXPECT_GT(n, 0u) << "empty span";
    for (size_t i = 0; i < n; ++i) out.push_back(AsRow(data[i]));
  }
  EXPECT_TRUE(cursor.status().ok()) << cursor.status().ToString();
  return out;
}

/// What the oracle run saw happen, summed over schemas and snapshots.
struct Coverage {
  size_t lists_checked = 0;
  size_t bounded_scans = 0;
  uint64_t index_seeks_with_deltas = 0;
  size_t inserts_at_page_edges = 0;
  size_t inserts_between_pages = 0;
  size_t deleted_page_edges = 0;
  size_t insert_only_lists = 0;
};

/// Classifies one list's deltas at one snapshot against its base pages:
/// an insert next to a base page's first or last entry (both: between two
/// pages), a deleted first or last entry, a list with no base pages.
/// Returns whether the list differs from its base pages.
bool Classify(const MctStore& store, ColorId color, NodeId tag,
              const std::vector<Row>& merged, Coverage* cov) {
  const PostingMeta* meta = store.Posting(color, tag);
  if (meta == nullptr) {
    if (!merged.empty()) ++cov->insert_only_lists;
    return !merged.empty();
  }
  const std::vector<LabelEntry> base = ReadAll(store.buffer_pool(), *meta);
  std::vector<uint32_t> starts;  // ascending, like the merged rows
  for (const Row& r : merged) starts.push_back(Start(r));
  auto kept = [&](const LabelEntry& e) {
    return std::binary_search(starts.begin(), starts.end(), e.start);
  };
  for (size_t first = 0; first < base.size(); first += kEntriesPerPage) {
    const size_t last = std::min(first + kEntriesPerPage, base.size()) - 1;
    cov->deleted_page_edges += !kept(base[first]) + !kept(base[last]);
  }
  for (uint32_t s : starts) {
    // The first base entry after `s`; an insert when the one before it is
    // not `s` itself.
    const size_t next =
        std::upper_bound(base.begin(), base.end(), s,
                         [](uint32_t v, const LabelEntry& e) {
                           return v < e.start;
                         }) -
        base.begin();
    if (next > 0 && base[next - 1].start == s) continue;
    const bool precedes_first =
        next < base.size() && next % kEntriesPerPage == 0;
    const bool follows_last =
        next > 0 && (next % kEntriesPerPage == 0 || next == base.size());
    if (precedes_first || follows_last) ++cov->inserts_at_page_edges;
    if (precedes_first && follows_last) ++cov->inserts_between_pages;
  }
  return !std::equal(merged.begin(), merged.end(), base.begin(), base.end(),
                     [](const Row& r, const LabelEntry& e) {
                       return r == AsRow(e);
                     });
}

/// The oracle at one snapshot, for every (color, tag) of the store.
void CheckSnapshot(const MctStore& store, Lsn snapshot, Coverage* cov) {
  const mct::MctSchema& schema = store.schema();
  for (ColorId c = 0; c < schema.num_colors(); ++c) {
    std::map<NodeId, std::vector<Row>> expected;
    for (const LabelEntry& e : store.ColorEntries(c, snapshot)) {
      expected[store.element(e.elem).er_node].push_back(AsRow(e));
    }
    for (NodeId tag = 0; tag < schema.diagram().num_nodes(); ++tag) {
      SCOPED_TRACE(schema.diagram().node(tag).name + "@c" +
                   std::to_string(c) + " snapshot " +
                   std::to_string(snapshot));
      const std::vector<Row> merged = Scan(store, c, tag, snapshot);
      ASSERT_EQ(merged, expected[tag]);
      ++cov->lists_checked;
      const bool has_deltas = Classify(store, c, tag, merged, cov);
      const size_t n = merged.size();
      if (n < 3) continue;
      // Descendant-style, ancestor-style and tail-only bounds.
      ScanBounds descendants;
      descendants.start_gt = Start(merged[n / 4]);
      descendants.start_lt = Start(merged[3 * n / 4]);
      ScanBounds ancestors;
      ancestors.start_lt = Start(merged[n / 2]);
      ancestors.end_gt = End(merged[n / 3]);
      ScanBounds tail;
      tail.start_gt = Start(merged[n - 2]);
      for (const ScanBounds& b : {descendants, ancestors, tail}) {
        obs::ExecStats stats("bounded");
        const std::vector<Row> bounded =
            Scan(store, c, tag, snapshot, &b, &stats);
        EXPECT_TRUE(IsSubsequence(bounded, merged));
        std::vector<Row> admitted;
        for (const Row& r : merged) {
          if (Admits(b, r)) admitted.push_back(r);
        }
        EXPECT_TRUE(IsSubsequence(admitted, bounded))
            << admitted.size() << " admitted, " << bounded.size()
            << " returned";
        ++cov->bounded_scans;
        if (has_deltas) cov->index_seeks_with_deltas += stats.index_seeks();
      }
    }
  }
}

workload::Workload Tpcw(double scale, bool without_transactions) {
  workload::Workload w = workload::TpcwWorkload(scale);
  // No base credit-card transactions: inserts of them start lists that
  // have no base pages.
  if (without_transactions) {
    w.gen.explicit_counts["credit_card_transaction"] = 0;
  }
  return w;
}

struct Fixture {
  explicit Fixture(double scale, bool without_transactions = false)
      : w(Tpcw(scale, without_transactions)) {}

  workload::Workload w;
  er::ErGraph graph{w.diagram};
  design::Designer designer{graph};
  instance::LogicalInstance logical = instance::GenerateInstance(graph, w.gen);
};

/// A copy of insert `op` under instance `target` of its target type, with
/// logical ids moved up by `shift` and values suffixed so it adds new
/// instances.
UpdateOp MovedInsert(const UpdateOp& op, uint32_t target, uint32_t shift) {
  UpdateOp out = op;
  out.target_logical = target;
  auto move = [&](auto&& self, SubtreeSpec* spec) -> void {
    spec->logical += shift;
    for (SubtreeSpec::Attr& a : spec->attrs) {
      a.value += "_m" + std::to_string(shift);
    }
    for (SubtreeSpec& child : spec->children) self(self, &child);
  };
  move(move, &out.subtree);
  return out;
}

UpdateOp DeleteOf(NodeId type, uint32_t logical) {
  UpdateOp op;
  op.kind = UpdateOp::Kind::kDeleteSubtree;
  op.target_type = type;
  op.target_logical = logical;
  return op;
}

/// The test's stream for one schema: the generator's single-schema
/// stream (inserts, renames, deletes of inserted children), inserts
/// steered next to base page edges, deletes of their relationship roots,
/// and deletes of base instances on page edges.
std::vector<UpdateOp> Stream(const MctStore& store,
                             const instance::LogicalInstance& logical) {
  const mct::MctSchema& schema = store.schema();
  const er::ErDiagram& d = schema.diagram();
  workload::UpdateGenOptions gen;
  gen.num_ops = 24;
  const std::vector<UpdateOp> generated =
      workload::GenerateUpdateOps({schema}, logical, gen);
  std::vector<UpdateOp> inserts, renames, deletes;
  for (const UpdateOp& op : generated) {
    if (op.kind == UpdateOp::Kind::kInsertSubtree) inserts.push_back(op);
    if (op.kind == UpdateOp::Kind::kRenameValue) renames.push_back(op);
    if (op.kind == UpdateOp::Kind::kDeleteSubtree) deletes.push_back(op);
  }

  // Inserts under the instance holding the last entry of a base page when
  // that instance ends before the next page starts: the new child lands
  // between the two pages.
  std::vector<UpdateOp> steered;
  std::set<std::pair<NodeId, uint32_t>> parents;
  uint32_t shift = 1u << 18;
  for (const UpdateOp& op : generated) {
    if (op.kind != UpdateOp::Kind::kInsertSubtree) continue;
    const NodeId child = op.subtree.children.at(0).type;
    for (ColorId c = 0; c < schema.num_colors() && steered.size() < 4; ++c) {
      const PostingMeta* meta = store.Posting(c, child);
      if (meta == nullptr || meta->num_pages() < 2) continue;
      const std::vector<LabelEntry> base =
          ReadAll(store.buffer_pool(), *meta);
      for (size_t next = kEntriesPerPage; next < base.size();
           next += kEntriesPerPage) {
        ElemId p = base[next - 1].elem;
        while (p != kInvalidElem &&
               store.element(p).er_node != op.target_type) {
          p = store.Parent(c, p);
        }
        LabelEntry parent;
        if (p == kInvalidElem || !store.Label(c, p, &parent) ||
            parent.end > base[next].start ||
            !parents.insert({op.target_type, store.element(p).logical})
                 .second) {
          continue;
        }
        steered.push_back(
            MovedInsert(op, store.element(p).logical, shift));
        shift += 1u << 16;
        break;
      }
    }
  }

  // Deletes of the first and last base entries of the pages of the first
  // multi-page entity list, and of the first steered insert's parent
  // (taking its inserted subtree with it).
  std::vector<UpdateOp> base_deletes;
  std::set<std::pair<NodeId, uint32_t>> doomed;
  auto add_delete = [&](NodeId type, uint32_t l) {
    if (doomed.insert({type, l}).second) {
      base_deletes.push_back(DeleteOf(type, l));
    }
  };
  for (ColorId c = 0; c < schema.num_colors() && base_deletes.empty(); ++c) {
    for (NodeId tag = 0; tag < d.num_nodes() && base_deletes.empty();
         ++tag) {
      const PostingMeta* meta = store.Posting(c, tag);
      if (meta == nullptr || meta->num_pages() < 2 ||
          !d.node(tag).is_entity()) {
        continue;
      }
      const std::vector<LabelEntry> base =
          ReadAll(store.buffer_pool(), *meta);
      for (size_t i : {size_t{0}, kEntriesPerPage - 1, kEntriesPerPage,
                       base.size() - 1}) {
        const ElementMeta& e = store.element(base[i].elem);
        if (parents.count({e.er_node, e.logical}) == 0) {
          add_delete(e.er_node, e.logical);
        }
      }
    }
  }
  if (!steered.empty()) {
    add_delete(steered[0].target_type, steered[0].target_logical);
  }

  std::vector<UpdateOp> ops = inserts;
  ops.insert(ops.end(), steered.begin(), steered.end());
  ops.insert(ops.end(), renames.begin(), renames.end());
  ops.insert(ops.end(), deletes.begin(), deletes.end());
  // The first steered insert goes with its parent below; the others lose
  // their relationship root.
  for (size_t i = 1; i < steered.size(); ++i) {
    ops.push_back(
        DeleteOf(steered[i].subtree.type, steered[i].subtree.logical));
  }
  ops.insert(ops.end(), base_deletes.begin(), base_deletes.end());
  return ops;
}

/// Applies `ops` to a durable store built for `schema`, checking the
/// oracle before the first op and after each one.
void RunOracle(const Fixture& f, const mct::MctSchema& schema,
               const std::vector<UpdateOp>* fixed_ops, Coverage* cov) {
  SCOPED_TRACE(schema.name());
  auto durable =
      wal::DurableStore::Ephemeral(instance::Materialize(f.logical, schema));
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();
  const MctStore& store = *(*durable)->store();
  const std::vector<UpdateOp> ops =
      fixed_ops != nullptr ? *fixed_ops : Stream(store, f.logical);
  CheckSnapshot(store, (*durable)->snapshot(), cov);
  query::UpdateExecutor exec(durable->get());
  for (const UpdateOp& op : ops) {
    auto r = exec.Execute(op);
    if (!r.ok()) {
      // A stream op this schema cannot place is skipped, as in replay.
      ASSERT_TRUE(r.status().IsNotSupported())
          << DebugString(op) << ": " << r.status().ToString();
      continue;
    }
    CheckSnapshot(store, r->lsn, cov);
    if (testing::Test::HasFatalFailure()) return;
  }
}

TEST(MergedPostingTest, ScansEqualColorEntriesAtEverySnapshot) {
  Fixture f(0.2);
  Coverage cov;
  for (Strategy s : design::AllStrategies()) {
    RunOracle(f, f.designer.Design(s), nullptr, &cov);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(cov.lists_checked, 0u);
  EXPECT_GT(cov.bounded_scans, 0u);
  // The bounds skip pages on lists that carry deltas too.
  EXPECT_GT(cov.index_seeks_with_deltas, 0u);
  EXPECT_GT(cov.inserts_at_page_edges, 0u);
  EXPECT_GT(cov.inserts_between_pages, 0u);
  EXPECT_GT(cov.deleted_page_edges, 0u);
}

TEST(MergedPostingTest, ListsWithOnlyInsertsComeOutInStartOrder) {
  Fixture f(0.05, /*without_transactions=*/true);
  const NodeId cct = *f.w.diagram.FindNode("credit_card_transaction");
  Coverage cov;
  size_t schemas = 0;
  for (Strategy s : design::AllStrategies()) {
    const mct::MctSchema schema = f.designer.Design(s);
    // Inserts of a transaction under orders in descending order, so apply
    // order is not start order; then the first one is deleted again.
    std::vector<UpdateOp> ops;
    workload::UpdateGenOptions gen;
    gen.num_ops = 24;
    for (const UpdateOp& op :
         workload::GenerateUpdateOps({schema}, f.logical, gen)) {
      if (op.kind != UpdateOp::Kind::kInsertSubtree ||
          op.subtree.children.at(0).type != cct) {
        continue;
      }
      for (uint32_t k = 0; k < 4; ++k) {
        ops.push_back(MovedInsert(op, 40 - 10 * k, k << 16));
      }
      break;
    }
    if (ops.empty()) continue;
    ops.push_back(DeleteOf(cct, ops[0].subtree.children[0].logical));
    ++schemas;
    RunOracle(f, schema, &ops, &cov);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(schemas, 0u);
  EXPECT_GT(cov.insert_only_lists, 0u);
}

/// A posting list by (tag name, color).
using ListId = std::pair<std::string, ColorId>;

/// The lists a finished query scanned, from its trace's tag-scan spans
/// (labeled "<tag>@c<color>").
void ScannedLists(const obs::Span& span, std::set<ListId>* out) {
  if (span.kind == obs::StageKind::kTagScan) {
    const size_t at = span.label.rfind("@c");
    out->insert({span.label.substr(0, at),
                 ColorId(std::stoul(span.label.substr(at + 2)))});
  }
  for (const obs::Span& child : span.children) ScannedLists(child, out);
}

TEST(MergedPostingTest, DeletesInAnotherTagLeaveEveryReadsIoUnchanged) {
  Fixture f(0.5);
  size_t stores = 0;
  uint64_t seeks_in_touched_colors = 0;
  for (Strategy s : design::AllStrategies()) {
    const mct::MctSchema schema = f.designer.Design(s);
    SCOPED_TRACE(schema.name());
    const er::ErDiagram& d = schema.diagram();
    const std::string path = testing::TempDir() + "/merged_posting.mctdb";
    ASSERT_TRUE(SaveStore(*instance::Materialize(f.logical, schema), path)
                    .ok());
    auto readonly = LoadStore(schema, path);
    ASSERT_TRUE(readonly.ok()) << readonly.status().ToString();
    auto loaded = LoadStore(schema, path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    std::remove(path.c_str());
    auto durable = wal::DurableStore::Ephemeral(std::move(*loaded));
    ASSERT_TRUE(durable.ok()) << durable.status().ToString();

    // Every TPC-W read, its I/O on the read-only store, and the lists the
    // reads scan.
    std::vector<query::QueryPlan> plans;
    std::vector<query::ExecResult> reference;
    std::set<ListId> scanned;
    for (const query::AssociationQuery& q : f.w.queries) {
      if (q.is_update()) continue;
      auto plan = query::PlanQuery(q, schema);
      if (!plan.ok()) continue;
      ShardedBufferPool pool((*readonly)->pager(), 4096, 1);
      query::Executor exec(readonly->get(), &pool);
      auto r = exec.Execute(*plan);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ScannedLists(r->trace, &scanned);
      plans.push_back(*plan);
      reference.push_back(std::move(*r));
    }
    auto is_scanned = [&](NodeId tag) {
      return std::any_of(scanned.begin(), scanned.end(), [&](const ListId& l) {
        return l.first == d.node(tag).name;
      });
    };
    auto color_scanned = [&](ColorId c) {
      return std::any_of(scanned.begin(), scanned.end(),
                         [&](const ListId& l) { return l.second == c; });
    };

    // The delete: an instance of a tag no read scans that is a leaf in
    // every color it is placed in, one of them a color the reads scan.
    MctStore& store = *(*durable)->store();
    std::vector<std::vector<LabelEntry>> entries;
    for (ColorId c = 0; c < schema.num_colors(); ++c) {
      entries.push_back(store.ColorEntries(c));
    }
    auto is_leaf = [&](ColorId c, const LabelEntry& label) {
      auto next = std::upper_bound(
          entries[c].begin(), entries[c].end(), label.start,
          [](uint32_t s, const LabelEntry& e) { return s < e.start; });
      return next == entries[c].end() || next->start > label.end;
    };
    std::optional<UpdateOp> victim;
    std::set<ColorId> touched;
    for (NodeId tag = 0; tag < d.num_nodes() && !victim; ++tag) {
      if (is_scanned(tag)) continue;
      for (uint32_t l = 0; l < f.logical.count(tag) && !victim; ++l) {
        bool leaf = true;
        std::set<ColorId> colors;
        for (ElemId e : store.ElementsFor(tag, l)) {
          for (ColorId c = 0; c < schema.num_colors(); ++c) {
            LabelEntry label;
            if (!store.Label(c, e, &label)) continue;
            leaf = leaf && is_leaf(c, label);
            if (color_scanned(c)) colors.insert(c);
          }
        }
        if (leaf && !colors.empty()) {
          victim = DeleteOf(tag, l);
          touched = colors;
        }
      }
    }
    if (!victim) continue;
    query::UpdateExecutor updates(durable->get());
    auto applied = updates.Execute(*victim);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    ASSERT_GT(applied->stats.labels_touched, 0u);
    ++stores;

    for (size_t i = 0; i < plans.size(); ++i) {
      SCOPED_TRACE(plans[i].query->name);
      ShardedBufferPool pool(store.pager(), 4096, 1);
      query::Executor exec(&store, &pool);
      exec.set_snapshot(store.visible_lsn());
      auto r = exec.Execute(plans[i]);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r->logicals, reference[i].logicals);
      EXPECT_EQ(r->page_hits, reference[i].page_hits);
      EXPECT_EQ(r->page_misses, reference[i].page_misses);
      EXPECT_EQ(r->index_seeks, reference[i].index_seeks);
      EXPECT_EQ(r->join_pairs, reference[i].join_pairs);
      std::set<ListId> lists;
      ScannedLists(reference[i].trace, &lists);
      if (std::any_of(lists.begin(), lists.end(), [&](const ListId& l) {
            return touched.count(l.second) != 0;
          })) {
        seeks_in_touched_colors += reference[i].index_seeks;
      }
    }
  }
  EXPECT_GT(stores, 0u);
  // The reads really use the index in the colors the deletes touched.
  EXPECT_GT(seeks_in_touched_colors, 0u);
}

}  // namespace
}  // namespace mctdb::storage

// The update applier (storage::ApplyUpdateOp) against checks that share no
// code with its placement lookups: every expectation below is derived from
// MctStore::ColorEntries at successive snapshots and from element metadata,
// never from StoreDeltas::base_order.
//   * After a U2, each color holds exactly the previous snapshot's entries
//     minus every entry nested in a pre-op placement of the target (copies
//     included); after a U1, every new placement nests in a live placement
//     of its parent above every label value used inside that interval since
//     the last checkpoint, and no label value repeats within a color. Run
//     on built, reopened and mid-stream rebased stores of all seven TPC-W
//     schemas.
//   * A leaf delete and an insert under a small parent read only their
//     subtrees plus the color's inserted placements (placements_visited).
//   * Each insert, applied with fresh ids on every schema that accepts it,
//     then undone (child, then root), leaves the nine figure reads equal
//     across those schemas after every op, and equal to the pre-insert
//     answers at the end.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "design/designer.h"
#include "instance/materialize.h"
#include "query/executor.h"
#include "query/planner.h"
#include "query/update_exec.h"
#include "storage/delta.h"
#include "storage/store.h"
#include "wal/durable_store.h"
#include "workload/update_gen.h"
#include "workload/workload.h"

namespace mctdb::storage {
namespace {

using design::Strategy;
using er::NodeId;
using mct::ColorId;

using Entries = std::vector<LabelEntry>;
using Row = std::tuple<ElemId, uint32_t, uint32_t, uint16_t, uint16_t,
                       uint32_t>;

Row AsRow(const LabelEntry& e) {
  return {e.elem, e.start, e.end, e.level, e.is_copy, e.logical};
}

std::vector<Row> Rows(const Entries& entries) {
  std::vector<Row> out;
  for (const LabelEntry& e : entries) out.push_back(AsRow(e));
  return out;
}

bool NestedIn(const LabelEntry& inner, const LabelEntry& outer) {
  return outer.start <= inner.start && inner.end <= outer.end;
}

struct Fixture {
  explicit Fixture(double scale) : w(workload::TpcwWorkload(scale)) {}

  workload::Workload w;
  er::ErGraph graph{w.diagram};
  design::Designer designer{graph};
  instance::LogicalInstance logical = instance::GenerateInstance(graph, w.gen);
};

UpdateOp DeleteOf(NodeId type, uint32_t logical) {
  UpdateOp op;
  op.kind = UpdateOp::Kind::kDeleteSubtree;
  op.target_type = type;
  op.target_logical = logical;
  return op;
}

/// Insert `op` under instance `target`, its new logical ids moved up by
/// `shift` and its values suffixed, so it adds new instances.
UpdateOp MovedInsert(const UpdateOp& op, uint32_t target, uint32_t shift) {
  UpdateOp out = op;
  out.target_logical = target;
  auto move = [&](auto&& self, SubtreeSpec* spec) -> void {
    spec->logical += shift;
    for (SubtreeSpec::Attr& a : spec->attrs) {
      a.value += "_s" + std::to_string(shift);
    }
    for (SubtreeSpec& child : spec->children) self(self, &child);
  };
  move(move, &out.subtree);
  return out;
}

/// Subtree sizes over one color's entries in start order: size[i] counts
/// entries[i] and every entry nested in it.
std::vector<size_t> SubtreeSizes(const Entries& entries) {
  std::vector<size_t> size(entries.size(), 1);
  std::vector<size_t> open;
  auto close = [&] {
    const size_t top = open.back();
    open.pop_back();
    if (!open.empty()) size[open.back()] += size[top];
  };
  for (size_t i = 0; i < entries.size(); ++i) {
    while (!open.empty() && entries[open.back()].end < entries[i].start) {
      close();
    }
    open.push_back(i);
  }
  while (!open.empty()) close();
  return size;
}

/// What the oracle run saw, summed over schemas.
struct Coverage {
  size_t deletes = 0;
  size_t inserts = 0;
  size_t renames = 0;
  size_t rebases = 0;
  /// Deletes whose target had two or more placements in one color.
  size_t deletes_of_copies = 0;
  /// Most placements one delete removed, and deletes of base instances.
  size_t largest_delete = 0;
  size_t base_deletes = 0;
  /// New placements checked against tombstoned values of their interval.
  size_t inserts_above_tombstones = 0;
};

/// The oracle for one durable store: the entries of every color at the
/// last checked snapshot, and every placement seen since the last
/// checkpoint (deleted ones stay, with the label values they hold).
class Oracle {
 public:
  Oracle(const MctStore& store, Lsn snapshot, Coverage* cov) : cov_(cov) {
    Reset(store, snapshot);
  }

  /// Starts over on a (possibly new, rebased) store at `snapshot`.
  void Reset(const MctStore& store, Lsn snapshot) {
    store_ = &store;
    const size_t colors = store.schema().num_colors();
    entries_.assign(colors, {});
    seen_.assign(colors, {});
    values_.assign(colors, {});
    for (ColorId c = 0; c < colors; ++c) {
      entries_[c] = store.ColorEntries(c, snapshot);
      for (const LabelEntry& e : entries_[c]) Remember(c, e);
    }
  }

  /// Checks op `op`, applied at `lsn` with `stats`, then moves on to `lsn`.
  void Check(const UpdateOp& op, const ApplyStats& stats, Lsn lsn) {
    SCOPED_TRACE(DebugString(op));
    const size_t colors = entries_.size();
    std::vector<Entries> after(colors);
    for (ColorId c = 0; c < colors; ++c) {
      after[c] = store_->ColorEntries(c, lsn);
    }
    switch (op.kind) {
      case UpdateOp::Kind::kDeleteSubtree:
        CheckDelete(op, stats, after, lsn);
        ++cov_->deletes;
        break;
      case UpdateOp::Kind::kInsertSubtree:
        CheckInsert(stats, after, lsn);
        ++cov_->inserts;
        break;
      case UpdateOp::Kind::kRenameValue:
        for (ColorId c = 0; c < colors; ++c) {
          EXPECT_EQ(Rows(after[c]), Rows(entries_[c])) << "color " << c;
        }
        ++cov_->renames;
        break;
    }
    for (ColorId c = 0; c < colors; ++c) {
      for (const LabelEntry& e : after[c]) Remember(c, e);
    }
    entries_ = std::move(after);
  }

 private:
  void CheckDelete(const UpdateOp& op, const ApplyStats& stats,
                   const std::vector<Entries>& after, Lsn lsn) {
    size_t removed = 0, colors_touched = 0;
    std::unordered_set<ElemId> victims;
    for (ColorId c = 0; c < entries_.size(); ++c) {
      Entries targets;
      for (const LabelEntry& e : entries_[c]) {
        const ElementMeta& m = store_->element(e.elem);
        if (m.er_node == op.target_type && m.logical == op.target_logical) {
          targets.push_back(e);
        }
      }
      if (targets.size() >= 2) ++cov_->deletes_of_copies;
      Entries expected;
      for (const LabelEntry& e : entries_[c]) {
        const bool doomed =
            std::any_of(targets.begin(), targets.end(),
                        [&](const LabelEntry& t) { return NestedIn(e, t); });
        if (doomed) {
          victims.insert(e.elem);
        } else {
          expected.push_back(e);
        }
      }
      EXPECT_EQ(Rows(after[c]), Rows(expected)) << "color " << c;
      removed += entries_[c].size() - expected.size();
      colors_touched += expected.size() < entries_[c].size();
    }
    EXPECT_EQ(stats.labels_touched, removed);
    EXPECT_EQ(stats.colors_touched, colors_touched);
    // An element dies with its last placement.
    size_t died = 0;
    for (ElemId v : victims) {
      const bool placed = std::any_of(
          after.begin(), after.end(), [&](const Entries& color) {
            return std::any_of(color.begin(), color.end(),
                               [&](const LabelEntry& e) {
                                 return e.elem == v;
                               });
          });
      EXPECT_EQ(store_->ElementLive(v, lsn), placed) << "element " << v;
      died += !placed;
    }
    EXPECT_EQ(stats.elements_touched, died);
    cov_->largest_delete = std::max(cov_->largest_delete, removed);
  }

  void CheckInsert(const ApplyStats& stats,
                   const std::vector<Entries>& after, Lsn lsn) {
    size_t added = 0;
    for (ColorId c = 0; c < entries_.size(); ++c) {
      SCOPED_TRACE("color " + std::to_string(c));
      // An insert removes nothing: the old entries are a subsequence.
      std::unordered_set<ElemId> before;
      for (const LabelEntry& e : entries_[c]) before.insert(e.elem);
      std::unordered_map<ElemId, LabelEntry> live;
      Entries fresh;
      for (const LabelEntry& e : after[c]) {
        live[e.elem] = e;
        if (before.count(e.elem) == 0) fresh.push_back(e);
      }
      EXPECT_EQ(after[c].size(), entries_[c].size() + fresh.size());
      added += fresh.size();
      for (const LabelEntry& e : fresh) {
        const ElemId parent = store_->Parent(c, e.elem, lsn);
        uint32_t lo = 0, hi = UINT32_MAX;
        if (parent == kInvalidElem) {
          EXPECT_EQ(e.level, 0);
        } else {
          auto p = live.find(parent);
          ASSERT_NE(p, live.end()) << "parent " << parent << " not live";
          EXPECT_LT(p->second.start, e.start);
          EXPECT_LT(e.end, p->second.end);
          EXPECT_EQ(e.level, p->second.level + 1);
          lo = p->second.start;
          hi = p->second.end;
        }
        // Above every value used inside the interval since the last
        // checkpoint, by placements that existed before this op.
        bool tombstones = false;
        for (const auto& [elem, old] : seen_[c]) {
          for (uint32_t v : {old.start, old.end}) {
            if (v > lo && v < hi) {
              EXPECT_GT(e.start, v) << "reuses the gap below " << v;
              tombstones = tombstones || live.count(elem) == 0;
            }
          }
        }
        cov_->inserts_above_tombstones += tombstones;
      }
    }
    EXPECT_EQ(stats.labels_touched, added);
  }

  /// Adds `e` to the color's history: a placement keeps its label, and no
  /// two placements share a label value.
  void Remember(ColorId c, const LabelEntry& e) {
    auto [it, fresh] = seen_[c].emplace(e.elem, e);
    if (!fresh) {
      EXPECT_EQ(AsRow(it->second), AsRow(e)) << "relabeled in color " << c;
      return;
    }
    EXPECT_LT(e.start, e.end);
    for (uint32_t v : {e.start, e.end}) {
      auto [at, unused] = values_[c].emplace(v, e.elem);
      EXPECT_TRUE(unused) << "label value " << v << " of element " << e.elem
                          << " repeats element " << at->second
                          << " in color " << c;
    }
  }

  const MctStore* store_ = nullptr;
  Coverage* cov_;
  std::vector<Entries> entries_;
  std::vector<std::unordered_map<ElemId, LabelEntry>> seen_;
  std::vector<std::unordered_map<uint32_t, ElemId>> values_;
};

/// The stream for one schema: the generator's single-schema ops (inserts,
/// renames, deletes of inserted children), a second insert under the first
/// insert's parent (above its deleted child), deletes of the other
/// inserted relationship instances, and deletes of base instances: a leaf,
/// one with copies (DEEP, UNDR), the first insert's parent (its subtree
/// holds inserted placements) and the largest subtree under an eighth of
/// its color.
std::vector<UpdateOp> Stream(const MctStore& store,
                             const instance::LogicalInstance& logical) {
  const mct::MctSchema& schema = store.schema();
  workload::UpdateGenOptions gen;
  gen.num_ops = 24;
  std::vector<UpdateOp> inserts, renames, deletes;
  for (const UpdateOp& op :
       workload::GenerateUpdateOps({schema}, logical, gen)) {
    if (op.kind == UpdateOp::Kind::kInsertSubtree) inserts.push_back(op);
    if (op.kind == UpdateOp::Kind::kRenameValue) renames.push_back(op);
    if (op.kind == UpdateOp::Kind::kDeleteSubtree) deletes.push_back(op);
  }
  std::vector<UpdateOp> ops = inserts;
  ops.insert(ops.end(), renames.begin(), renames.end());
  ops.insert(ops.end(), deletes.begin(), deletes.end());
  if (!inserts.empty()) {
    ops.push_back(
        MovedInsert(inserts[0], inserts[0].target_logical, 1u << 18));
  }
  for (size_t i = 1; i < inserts.size(); ++i) {
    ops.push_back(DeleteOf(inserts[i].subtree.type,
                           inserts[i].subtree.logical));
  }

  // Base instances by the placements of every color.
  std::optional<std::pair<NodeId, uint32_t>> leaf, copied, largest;
  size_t largest_size = 0;
  for (ColorId c = 0; c < schema.num_colors(); ++c) {
    const Entries entries = store.ColorEntries(c);
    const std::vector<size_t> size = SubtreeSizes(entries);
    std::map<std::pair<NodeId, uint32_t>, size_t> placements;
    for (size_t i = 0; i < entries.size(); ++i) {
      const ElementMeta& m = store.element(entries[i].elem);
      const std::pair<NodeId, uint32_t> id{m.er_node, m.logical};
      if (!schema.diagram().node(m.er_node).is_entity()) continue;
      if (!leaf && size[i] == 1) leaf = id;
      if (++placements[id] == 2 && !copied && size[i] < 50) copied = id;
      if (size[i] > largest_size && size[i] <= entries.size() / 8) {
        largest_size = size[i];
        largest = id;
      }
    }
  }
  for (const auto& id : {leaf, copied}) {
    if (id) ops.push_back(DeleteOf(id->first, id->second));
  }
  if (!inserts.empty()) {
    ops.push_back(DeleteOf(inserts[0].target_type,
                           inserts[0].target_logical));
  }
  if (largest) ops.push_back(DeleteOf(largest->first, largest->second));
  return ops;
}

enum class Base { kBuilt, kReopened, kRebased };

/// Runs the stream on one schema's durable store of kind `base`, checking
/// the oracle after every op that applies.
void RunOracle(const Fixture& f, const mct::MctSchema& schema, Base base,
               Coverage* cov) {
  SCOPED_TRACE(schema.name());
  std::unique_ptr<wal::DurableStore> durable;
  // Gaps wide enough for a second insert under one parent.
  wal::DurableStore::Options options;
  options.store.label_stride = 64;
  auto built = instance::Materialize(f.logical, schema, {options.store});
  if (base == Base::kReopened) {
    const std::string path =
        testing::TempDir() + "/update_apply_reopened.mctdb";
    auto created = wal::DurableStore::Create(std::move(built), path, options);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    created->reset();
    auto opened = wal::DurableStore::Open(schema, path, options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    durable = std::move(*opened);
    // The open store keeps its log; the names can go.
    std::remove(path.c_str());
    std::remove(wal::DurableStore::WalPath(path).c_str());
  } else {
    auto ephemeral = wal::DurableStore::Ephemeral(std::move(built), options);
    ASSERT_TRUE(ephemeral.ok()) << ephemeral.status().ToString();
    durable = std::move(*ephemeral);
  }
  const std::vector<UpdateOp> ops = Stream(*durable->store(), f.logical);
  Oracle oracle(*durable->store(), durable->snapshot(), cov);
  query::UpdateExecutor exec(durable.get());
  for (size_t i = 0; i < ops.size(); ++i) {
    if (base == Base::kRebased && i == ops.size() / 2) {
      auto cp = durable->Checkpoint(wal::CheckpointMode::kRebaseLive);
      ASSERT_TRUE(cp.ok()) << cp.status().ToString();
      ASSERT_TRUE(cp->rebased);
      oracle.Reset(*durable->store(), durable->snapshot());
      ++cov->rebases;
    }
    auto r = exec.Execute(ops[i]);
    if (!r.ok()) {
      // An op this schema cannot place, or whose target an earlier delete
      // took, is skipped, as in replay.
      ASSERT_TRUE(r.status().IsNotSupported() || r.status().IsNotFound())
          << DebugString(ops[i]) << ": " << r.status().ToString();
      continue;
    }
    oracle.Check(ops[i], r->stats, r->lsn);
    if (ops[i].kind == UpdateOp::Kind::kDeleteSubtree &&
        ops[i].target_logical < workload::UpdateGenOptions().logical_id_base) {
      ++cov->base_deletes;
    }
    if (testing::Test::HasFatalFailure()) return;
  }
}

void RunAllSchemas(Base base, Coverage* cov) {
  Fixture f(0.2);
  for (Strategy s : design::AllStrategies()) {
    RunOracle(f, f.designer.Design(s), base, cov);
    if (testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(cov->inserts, 0u);
  EXPECT_GT(cov->renames, 0u);
  EXPECT_GT(cov->base_deletes, 0u);
  EXPECT_GT(cov->deletes_of_copies, 0u);
  EXPECT_GT(cov->inserts_above_tombstones, 0u);
  EXPECT_GE(cov->largest_delete, 100u);
}

TEST(UpdateApplyTest, OracleOnMaterializedStores) {
  Coverage cov;
  RunAllSchemas(Base::kBuilt, &cov);
}

TEST(UpdateApplyTest, OracleOnStoresReopenedFromTheirImage) {
  Coverage cov;
  RunAllSchemas(Base::kReopened, &cov);
}

TEST(UpdateApplyTest, OracleAcrossAMidStreamRebase) {
  Coverage cov;
  RunAllSchemas(Base::kRebased, &cov);
  EXPECT_EQ(cov.rebases, design::AllStrategies().size());
}

/// The size of the color's inserted-placement map, read under the lock.
size_t InsertedPlacements(const MctStore& store, ColorId c) {
  std::shared_lock lk(store.deltas()->mu);
  return store.deltas()->label_added[c].size();
}

TEST(UpdateApplyTest, LeafDeleteAndSmallInsertVisitOnlyTheirSubtrees) {
  Fixture f(0.2);
  size_t inserts = 0, deletes = 0;
  for (Strategy s : design::AllStrategies()) {
    const mct::MctSchema schema = f.designer.Design(s);
    SCOPED_TRACE(schema.name());
    auto durable =
        wal::DurableStore::Ephemeral(instance::Materialize(f.logical, schema));
    ASSERT_TRUE(durable.ok()) << durable.status().ToString();
    const MctStore& store = *(*durable)->store();
    query::UpdateExecutor exec(durable->get());
    // Inserts first, so the colors hold inserted placements.
    workload::UpdateGenOptions gen;
    gen.num_ops = 24;
    std::vector<UpdateOp> generated;
    for (const UpdateOp& op :
         workload::GenerateUpdateOps({schema}, f.logical, gen)) {
      if (op.kind != UpdateOp::Kind::kInsertSubtree) continue;
      if (exec.Execute(op).ok()) generated.push_back(op);
    }
    std::vector<Entries> entries;
    for (ColorId c = 0; c < schema.num_colors(); ++c) {
      entries.push_back(store.ColorEntries(c));
    }
    // The placements of (type, logical) per color, and how many entries
    // each one's interval holds (itself included).
    auto placements = [&](NodeId type, uint32_t logical) {
      std::vector<std::vector<size_t>> out(entries.size());
      for (ColorId c = 0; c < entries.size(); ++c) {
        for (const LabelEntry& p : entries[c]) {
          const ElementMeta& m = store.element(p.elem);
          if (m.er_node != type || m.logical != logical) continue;
          out[c].push_back(size_t(std::count_if(
              entries[c].begin(), entries[c].end(),
              [&](const LabelEntry& e) { return NestedIn(e, p); })));
        }
      }
      return out;
    };

    // An insert under the instance of the first insert's parent type with
    // the smallest subtree among the first 16.
    if (!generated.empty()) {
      const UpdateOp& model = generated[0];
      uint32_t parent = 0;
      size_t smallest = SIZE_MAX;
      for (uint32_t l = 0; l < 16 && l < f.logical.count(model.target_type);
           ++l) {
        size_t total = 0;
        for (const auto& color : placements(model.target_type, l)) {
          for (size_t n : color) total += n;
        }
        if (total > 0 && total < smallest) {
          smallest = total;
          parent = l;
        }
      }
      const auto sizes = placements(model.target_type, parent);
      auto r = exec.Execute(MovedInsert(model, parent, 1u << 19));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      // Per parent placement: the base placements inside it and every
      // inserted placement of the color. A full walk reads every one of
      // the color's placements per parent placement instead.
      size_t bound = 0, full_walk = 0;
      for (ColorId c = 0; c < sizes.size(); ++c) {
        for (size_t n : sizes[c]) {
          bound += n + InsertedPlacements(store, c);
          full_walk += entries[c].size();
        }
      }
      EXPECT_GT(r->stats.placements_visited, 0u);
      EXPECT_LE(r->stats.placements_visited, bound);
      EXPECT_LT(bound, full_walk);
      ++inserts;
    }

    // A delete of a base entity instance that is a leaf in every color it
    // is placed in.
    std::optional<std::pair<NodeId, uint32_t>> leaf;
    for (ColorId c = 0; c < entries.size() && !leaf; ++c) {
      const std::vector<size_t> subtree = SubtreeSizes(entries[c]);
      for (size_t i = 0; i < entries[c].size() && !leaf; ++i) {
        const ElementMeta& m = store.element(entries[c][i].elem);
        if (subtree[i] > 1 || !schema.diagram().node(m.er_node).is_entity() ||
            m.logical >= workload::UpdateGenOptions().logical_id_base) {
          continue;
        }
        const auto sizes = placements(m.er_node, m.logical);
        if (std::all_of(sizes.begin(), sizes.end(), [](const auto& color) {
              return std::all_of(color.begin(), color.end(),
                                 [](size_t n) { return n == 1; });
            })) {
          leaf = {m.er_node, m.logical};
        }
      }
    }
    ASSERT_TRUE(leaf.has_value());
    const auto sizes = placements(leaf->first, leaf->second);
    auto r = exec.Execute(DeleteOf(leaf->first, leaf->second));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    size_t bound = 0, full_walk = 0;
    for (ColorId c = 0; c < sizes.size(); ++c) {
      if (sizes[c].empty()) continue;
      bound += sizes[c].size() + InsertedPlacements(store, c);
      full_walk += entries[c].size();
    }
    EXPECT_GT(r->stats.placements_visited, 0u);
    EXPECT_LE(r->stats.placements_visited, bound);
    EXPECT_LT(bound, full_walk);
    ++deletes;
  }
  EXPECT_GT(inserts, 0u);
  EXPECT_EQ(deletes, design::AllStrategies().size());
}

/// One read's answer: what must agree across schemas.
struct Answer {
  std::vector<uint32_t> logicals;
  std::map<std::string, size_t> groups;
  bool operator==(const Answer& o) const {
    return logicals == o.logicals && groups == o.groups;
  }
};

/// The nine figure reads of one store at its latest snapshot.
std::vector<Answer> Reads(const Fixture& f, const mct::MctSchema& schema,
                          MctStore* store) {
  std::vector<Answer> out;
  for (const std::string& name : f.w.figure_queries) {
    const query::AssociationQuery* q = f.w.Find(name);
    if (q->is_update()) continue;
    auto plan = query::PlanQuery(*q, schema);
    EXPECT_TRUE(plan.ok()) << name << ": " << plan.status().ToString();
    if (!plan.ok()) continue;
    query::Executor exec(store);
    exec.set_snapshot(store->visible_lsn());
    auto r = exec.Execute(*plan);
    EXPECT_TRUE(r.ok()) << name << ": " << r.status().ToString();
    if (!r.ok()) continue;
    out.push_back({std::move(r->logicals), std::move(r->groups)});
  }
  return out;
}

TEST(UpdateApplyTest, InsertsAndTheirDeletesKeepSchemasEquivalent) {
  Fixture f(0.2);
  std::vector<mct::MctSchema> schemas;
  std::vector<std::unique_ptr<wal::DurableStore>> stores;
  for (Strategy s : design::AllStrategies()) {
    schemas.push_back(f.designer.Design(s));
  }
  for (const mct::MctSchema& schema : schemas) {
    auto durable =
        wal::DurableStore::Ephemeral(instance::Materialize(f.logical, schema));
    ASSERT_TRUE(durable.ok()) << durable.status().ToString();
    stores.push_back(std::move(*durable));
  }
  std::vector<std::vector<Answer>> before;
  for (size_t s = 0; s < schemas.size(); ++s) {
    before.push_back(Reads(f, schemas[s], stores[s]->store()));
    EXPECT_EQ(before[s], before[0]) << schemas[s].name();
  }

  // The distinct inserts the generator makes for one schema at a time.
  std::vector<UpdateOp> inserts;
  std::set<std::tuple<NodeId, uint32_t, NodeId, NodeId>> distinct;
  for (const mct::MctSchema& schema : schemas) {
    workload::UpdateGenOptions gen;
    gen.num_ops = 64;
    for (const UpdateOp& op :
         workload::GenerateUpdateOps({schema}, f.logical, gen)) {
      if (op.kind == UpdateOp::Kind::kInsertSubtree &&
          distinct
              .insert({op.target_type, op.target_logical, op.subtree.type,
                       op.subtree.children.at(0).type})
              .second) {
        inserts.push_back(op);
      }
    }
  }

  size_t compared = 0, changed_a_read = 0;
  for (size_t k = 0; k < inserts.size(); ++k) {
    const UpdateOp insert = MovedInsert(
        inserts[k], inserts[k].target_logical, uint32_t(k + 1) << 16);
    SCOPED_TRACE(DebugString(insert));
    const SubtreeSpec& child = insert.subtree.children[0];
    const UpdateOp ops[] = {insert, DeleteOf(child.type, child.logical),
                            DeleteOf(insert.subtree.type,
                                     insert.subtree.logical)};
    std::vector<size_t> accepted;
    for (size_t s = 0; s < schemas.size(); ++s) {
      auto r = query::UpdateExecutor(stores[s].get()).Execute(insert);
      if (r.ok()) {
        accepted.push_back(s);
      } else {
        EXPECT_TRUE(r.status().IsNotSupported() ||
                    r.status().IsInvalidArgument())
            << schemas[s].name() << ": " << r.status().ToString();
      }
    }
    if (accepted.size() < 2) {
      // Undo a lone insert so every store keeps the same content.
      for (size_t s : accepted) {
        for (size_t i = 1; i < 3; ++i) {
          ASSERT_TRUE(
              query::UpdateExecutor(stores[s].get()).Execute(ops[i]).ok());
        }
      }
      continue;
    }
    ++compared;
    for (size_t i = 0; i < 3; ++i) {
      SCOPED_TRACE(DebugString(ops[i]));
      std::vector<Answer> first;
      for (size_t s : accepted) {
        if (i > 0) {
          auto r = query::UpdateExecutor(stores[s].get()).Execute(ops[i]);
          ASSERT_TRUE(r.ok()) << schemas[s].name() << ": "
                              << r.status().ToString();
        }
        std::vector<Answer> now = Reads(f, schemas[s], stores[s]->store());
        if (first.empty()) {
          first = std::move(now);
          if (i == 0 && first != before[s]) ++changed_a_read;
          if (i == 2) {
            EXPECT_EQ(first, before[s]) << schemas[s].name();
          }
        } else {
          EXPECT_EQ(now, first) << schemas[s].name() << " vs "
                                << schemas[accepted[0]].name();
        }
      }
    }
  }
  EXPECT_GT(compared, 0u);
  // The inserts show in the reads, so equal answers are not vacuous.
  EXPECT_GT(changed_a_read, 0u);
}

}  // namespace
}  // namespace mctdb::storage

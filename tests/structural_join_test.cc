#include "query/structural_join.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace mctdb::query {
namespace {

using storage::LabelEntry;

LabelEntry L(uint32_t elem, uint32_t start, uint32_t end, uint16_t level) {
  LabelEntry e;
  e.elem = elem;
  e.start = start;
  e.end = end;
  e.level = level;
  return e;
}

TEST(StructuralJoinTest, BasicContainment) {
  // Tree: a1(1,10){ b1(2,3) b2(4,5) }  a2(11,20){ }  b3(21,22) top-level.
  std::vector<LabelEntry> anc{L(1, 1, 10, 0), L(2, 11, 20, 0)};
  std::vector<LabelEntry> desc{L(10, 2, 3, 1), L(11, 4, 5, 1),
                               L(12, 21, 22, 0)};
  auto r = StackTreeJoin(anc, desc);
  ASSERT_EQ(r.descendants.size(), 2u);
  EXPECT_EQ(r.descendants[0].elem, 10u);
  EXPECT_EQ(r.descendants[1].elem, 11u);
  ASSERT_EQ(r.ancestors.size(), 1u);
  EXPECT_EQ(r.ancestors[0].elem, 1u);
  EXPECT_EQ(r.pairs, 2u);
}

TEST(StructuralJoinTest, NestedAncestorsAllPair) {
  // a1(1,100) contains a2(2,50) contains d(3,4): two pairs.
  std::vector<LabelEntry> anc{L(1, 1, 100, 0), L(2, 2, 50, 1)};
  std::vector<LabelEntry> desc{L(10, 3, 4, 2)};
  auto r = StackTreeJoin(anc, desc);
  EXPECT_EQ(r.pairs, 2u);
  EXPECT_EQ(r.descendants.size(), 1u);
  EXPECT_EQ(r.ancestors.size(), 2u);
}

TEST(StructuralJoinTest, ParentChildLevelFilter) {
  std::vector<LabelEntry> anc{L(1, 1, 100, 0)};
  std::vector<LabelEntry> desc{L(10, 2, 3, 1), L(11, 4, 5, 2)};
  StructuralJoinOptions opts;
  opts.parent_child_only = true;
  auto r = StackTreeJoin(anc, desc, opts);
  ASSERT_EQ(r.descendants.size(), 1u);
  EXPECT_EQ(r.descendants[0].elem, 10u) << "level-2 node is a grandchild";
}

TEST(StructuralJoinTest, EmptyInputs) {
  std::vector<LabelEntry> some{L(1, 1, 2, 0)};
  EXPECT_TRUE(StackTreeJoin({}, some).descendants.empty());
  EXPECT_TRUE(StackTreeJoin(some, {}).descendants.empty());
  EXPECT_TRUE(StackTreeJoin({}, {}).descendants.empty());
}

TEST(StructuralJoinTest, SiblingsDoNotMatch) {
  std::vector<LabelEntry> anc{L(1, 1, 10, 1)};
  std::vector<LabelEntry> desc{L(10, 11, 12, 1), L(11, 13, 14, 1)};
  auto r = StackTreeJoin(anc, desc);
  EXPECT_TRUE(r.descendants.empty());
  EXPECT_TRUE(r.ancestors.empty());
}

TEST(StructuralJoinTest, LargeInterleavedForest) {
  // 100 trees: root_i contains child_i; roots are ancestors of their own
  // children only.
  std::vector<LabelEntry> anc, desc;
  for (uint32_t i = 0; i < 100; ++i) {
    anc.push_back(L(i, i * 10 + 1, i * 10 + 9, 0));
    desc.push_back(L(1000 + i, i * 10 + 2, i * 10 + 3, 1));
  }
  auto r = StackTreeJoin(anc, desc);
  EXPECT_EQ(r.pairs, 100u);
  EXPECT_EQ(r.descendants.size(), 100u);
  EXPECT_EQ(r.ancestors.size(), 100u);
}

TEST(StructuralJoinTest, SemiJoinAncestorsDeduplicated) {
  // One ancestor with 3 descendants appears once on the ancestors side.
  std::vector<LabelEntry> anc{L(1, 1, 100, 0)};
  std::vector<LabelEntry> desc{L(10, 2, 3, 1), L(11, 4, 5, 1), L(12, 6, 7, 1)};
  auto r = StackTreeJoin(anc, desc);
  EXPECT_EQ(r.pairs, 3u);
  EXPECT_EQ(r.ancestors.size(), 1u);
}

/// A random forest labeled like one color of a store: a single counter
/// (with random gaps) hands out every start and end in document order, so
/// intervals are well nested and the list is sorted by start.
void Grow(Rng* rng, uint16_t level, uint16_t max_depth, uint64_t max_fanout,
          uint32_t* counter, std::vector<LabelEntry>* out) {
  const size_t self = out->size();
  *counter += 1 + uint32_t(rng->Uniform(3));
  out->push_back(L(uint32_t(self), *counter, 0, level));
  if (level < max_depth) {
    for (uint64_t k = rng->Uniform(max_fanout + 1); k > 0; --k) {
      Grow(rng, level + 1, max_depth, max_fanout, counter, out);
    }
  }
  *counter += 1 + uint32_t(rng->Uniform(3));
  (*out)[self].end = *counter;
}

/// Each entry kept with probability 1/keep_one_in; order is preserved.
std::vector<LabelEntry> Subset(Rng* rng, const std::vector<LabelEntry>& all,
                               uint64_t keep_one_in) {
  std::vector<LabelEntry> out;
  for (const LabelEntry& e : all) {
    if (rng->OneIn(keep_one_in)) out.push_back(e);
  }
  return out;
}

/// The reference: every (ancestor, descendant) pair tested directly.
StructuralJoinResult NestedLoopJoin(const std::vector<LabelEntry>& anc,
                                    const std::vector<LabelEntry>& desc,
                                    bool parent_child_only) {
  StructuralJoinResult out;
  std::vector<bool> matched_anc(anc.size(), false);
  for (const LabelEntry& d : desc) {
    bool matched = false;
    for (size_t i = 0; i < anc.size(); ++i) {
      if (!anc[i].Contains(d)) continue;
      if (parent_child_only && d.level != anc[i].level + 1) continue;
      ++out.pairs;
      matched = true;
      matched_anc[i] = true;
    }
    if (matched) out.descendants.push_back(d);
  }
  for (size_t i = 0; i < anc.size(); ++i) {
    if (matched_anc[i]) out.ancestors.push_back(anc[i]);
  }
  return out;
}

std::vector<uint32_t> Elems(const std::vector<LabelEntry>& v) {
  std::vector<uint32_t> out;
  for (const LabelEntry& e : v) out.push_back(e.elem);
  return out;
}

TEST(StructuralJoinTest, MatchesNestedLoopOnRandomForests) {
  size_t cases = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const uint16_t max_depth = uint16_t(1 + rng.Uniform(7));
    const uint64_t max_fanout = 1 + rng.Uniform(5);
    std::vector<LabelEntry> forest;
    uint32_t counter = 0;
    for (uint64_t roots = 1 + rng.Uniform(4); roots > 0; --roots) {
      Grow(&rng, 0, max_depth, max_fanout, &counter, &forest);
    }
    for (int draw = 0; draw < 5; ++draw) {
      std::vector<LabelEntry> anc = Subset(&rng, forest, 1 + rng.Uniform(3));
      std::vector<LabelEntry> desc = Subset(&rng, forest, 1 + rng.Uniform(3));
      for (bool pc : {false, true}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " draw " +
                     std::to_string(draw) + (pc ? " parent-child" : ""));
        StructuralJoinOptions opts;
        opts.parent_child_only = pc;
        StructuralJoinResult got = StackTreeJoin(anc, desc, opts);
        StructuralJoinResult want = NestedLoopJoin(anc, desc, pc);
        EXPECT_EQ(Elems(got.descendants), Elems(want.descendants));
        EXPECT_EQ(Elems(got.ancestors), Elems(want.ancestors));
        EXPECT_EQ(got.pairs, want.pairs);
        if (want.pairs > 0) ++cases;
      }
    }
  }
  EXPECT_GT(cases, 200u) << "too few random cases produced any pair";
}

}  // namespace
}  // namespace mctdb::query

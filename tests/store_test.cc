#include "storage/store.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "design/algorithm_mc.h"
#include "er/er_catalog.h"

namespace mctdb::storage {
namespace {

/// A tiny 2-color schema over a->r1->b to exercise the builder directly.
struct Fixture {
  er::ErDiagram diagram;
  er::ErGraph graph;
  mct::MctSchema schema;

  Fixture()
      : diagram(Make()), graph(diagram), schema("test", &graph) {
    schema.AddColor();
    schema.AddColor();
  }

  static er::ErDiagram Make() {
    er::ErDiagram d("t");
    auto a = d.AddEntity("a", {{"id", er::AttrType::kString, true},
                               {"name", er::AttrType::kString, false}});
    auto b = d.AddEntity("b", {{"id", er::AttrType::kString, true}});
    EXPECT_TRUE(d.AddOneToMany("r1", a, b).ok());
    return d;
  }
};

TEST(StoreBuilderTest, SharedElementAcrossColors) {
  Fixture f;
  StoreBuilder builder(&f.schema, {});
  ElemId a0 = builder.AddElement(0, 0, false);
  builder.AddAttr(a0, builder.InternAttrName("id"),
                  builder.InternValue("a_0"), false);
  builder.AddAttr(a0, builder.InternAttrName("name"),
                  builder.InternValue("Japan"), true);

  builder.BeginColor(0);
  builder.Enter(a0);
  builder.Leave(a0);
  builder.EndColor();
  builder.BeginColor(1);
  builder.Enter(a0);
  builder.Leave(a0);
  builder.EndColor();

  auto store = builder.Finish();
  EXPECT_EQ(store->num_elements(), 1u) << "stored once, two colors";
  LabelEntry l0, l1;
  EXPECT_TRUE(store->Label(0, a0, &l0));
  EXPECT_TRUE(store->Label(1, a0, &l1));
  StoreStats st = store->Stats();
  EXPECT_EQ(st.num_elements, 1u);
  EXPECT_EQ(st.num_attributes, 2u);
  EXPECT_EQ(st.num_content_nodes, 1u) << "keys have no content node";
}

TEST(StoreBuilderTest, LabelsNestProperly) {
  Fixture f;
  StoreBuilder builder(&f.schema, {});
  ElemId a0 = builder.AddElement(0, 0, false);
  ElemId r0 = builder.AddElement(2, 0, false);
  ElemId b0 = builder.AddElement(1, 0, false);
  ElemId b1 = builder.AddElement(1, 1, false);

  builder.BeginColor(0);
  builder.Enter(a0);
  builder.Enter(r0);
  builder.Enter(b0);
  builder.Leave(b0);
  builder.Leave(r0);
  builder.Leave(a0);
  builder.Enter(b1);  // second tree in the forest
  builder.Leave(b1);
  builder.EndColor();
  builder.BeginColor(1);
  builder.EndColor();
  auto store = builder.Finish();

  LabelEntry la, lr, lb, lb1;
  ASSERT_TRUE(store->Label(0, a0, &la));
  ASSERT_TRUE(store->Label(0, r0, &lr));
  ASSERT_TRUE(store->Label(0, b0, &lb));
  ASSERT_TRUE(store->Label(0, b1, &lb1));
  EXPECT_TRUE(la.Contains(lr));
  EXPECT_TRUE(la.Contains(lb));
  EXPECT_TRUE(lr.Contains(lb));
  EXPECT_FALSE(la.Contains(lb1)) << "separate trees are disjoint intervals";
  EXPECT_EQ(la.level, 0);
  EXPECT_EQ(lr.level, 1);
  EXPECT_EQ(lb.level, 2);
  EXPECT_EQ(store->Parent(0, b0), r0);
  EXPECT_EQ(store->Parent(0, r0), a0);
  EXPECT_EQ(store->Parent(0, a0), kInvalidElem);
  EXPECT_FALSE(store->Label(1, a0, &la)) << "absent from color 1";
}

TEST(StoreBuilderTest, PostingsInDocumentOrderPerTag) {
  Fixture f;
  StoreBuilder builder(&f.schema, {});
  std::vector<ElemId> bs;
  ElemId a0 = builder.AddElement(0, 0, false);
  for (uint32_t i = 0; i < 5; ++i) bs.push_back(builder.AddElement(1, i, false));
  builder.BeginColor(0);
  builder.Enter(a0);
  for (ElemId b : bs) {
    builder.Enter(b);
    builder.Leave(b);
  }
  builder.Leave(a0);
  builder.EndColor();
  builder.BeginColor(1);
  builder.EndColor();
  auto store = builder.Finish();

  const PostingMeta* meta = store->Posting(0, 1);
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->count, 5u);
  auto entries = ReadAll(store->buffer_pool(), *meta);
  for (size_t i = 1; i < entries.size(); ++i) {
    EXPECT_LT(entries[i - 1].start, entries[i].start);
  }
  EXPECT_EQ(store->Posting(0, 99), nullptr);
  EXPECT_EQ(store->Posting(1, 1), nullptr);
}

TEST(StoreBuilderTest, KeyIndexFindsCopies) {
  Fixture f;
  StoreBuilder builder(&f.schema, {});
  ElemId orig = builder.AddElement(1, 7, false);
  ElemId copy = builder.AddElement(1, 7, true);
  builder.BeginColor(0);
  builder.Enter(orig);
  builder.Leave(orig);
  builder.Enter(copy);
  builder.Leave(copy);
  builder.EndColor();
  builder.BeginColor(1);
  builder.EndColor();
  auto store = builder.Finish();
  auto elems = store->ElementsFor(1, 7);
  EXPECT_EQ(elems.size(), 2u);
  EXPECT_FALSE(store->element(orig).is_copy);
  EXPECT_TRUE(store->element(copy).is_copy);
  EXPECT_TRUE(store->ElementsFor(1, 99).empty());
}

TEST(StoreBuilderTest, OutOfOrderAttrsGroupPerElementInAddOrder) {
  Fixture f;
  StoreBuilder builder(&f.schema, {});
  std::vector<ElemId> elems;
  for (uint32_t i = 0; i < 5; ++i) {
    elems.push_back(builder.AddElement(1, i, false));
  }
  // Records for earlier elements arrive after later ones, interleaved;
  // element 3 gets none.
  const std::vector<std::pair<ElemId, std::string>> adds = {
      {elems[2], "c1"}, {elems[0], "a1"}, {elems[4], "e1"}, {elems[2], "c2"},
      {elems[1], "b1"}, {elems[0], "a2"}, {elems[2], "c3"}, {elems[0], "a3"}};
  const uint32_t name = builder.InternAttrName("v");
  for (const auto& [elem, value] : adds) {
    builder.AddAttr(elem, name, builder.InternValue(value),
                    /*with_content=*/value.back() == '2');
  }
  builder.BeginColor(0);
  for (ElemId e : elems) {
    builder.Enter(e);
    builder.Leave(e);
  }
  builder.EndColor();
  builder.BeginColor(1);
  builder.EndColor();
  auto store = builder.Finish();

  const std::vector<std::vector<std::string>> want = {
      {"a1", "a2", "a3"}, {"b1"}, {"c1", "c2", "c3"}, {}, {"e1"}};
  for (ElemId e : elems) {
    std::vector<std::string> got;
    for (const AttrRecord& rec : store->attrs(e)) {
      EXPECT_EQ(rec.name_id, name);
      EXPECT_EQ(rec.has_content, store->value(rec.value_id).back() == '2');
      got.push_back(store->value(rec.value_id));
    }
    EXPECT_EQ(got, want[e]) << "element " << e;
  }
  // The span lookup returns each element's first record of the name.
  std::vector<LabelEntry> entries(elems.size());
  for (size_t i = 0; i < elems.size(); ++i) entries[i].elem = elems[i];
  std::vector<uint32_t> ids(entries.size());
  store->AttrValueIds(entries, name, kMaxLsn, ids.data());
  EXPECT_EQ(store->value(ids[0]), "a1");
  EXPECT_EQ(store->value(ids[2]), "c1");
  EXPECT_EQ(ids[3], UINT32_MAX);
  EXPECT_EQ(store->Stats().num_attributes, adds.size());
}

TEST(StoreTest, AttrLookupAndUpdate) {
  Fixture f;
  StoreBuilder builder(&f.schema, {});
  ElemId a0 = builder.AddElement(0, 0, false);
  builder.AddAttr(a0, builder.InternAttrName("name"),
                  builder.InternValue("Japan"), true);
  builder.BeginColor(0);
  builder.Enter(a0);
  builder.Leave(a0);
  builder.EndColor();
  builder.BeginColor(1);
  builder.EndColor();
  auto store = builder.Finish();

  const std::string* v = store->AttrValue(a0, "name");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, "Japan");
  EXPECT_EQ(store->AttrValue(a0, "missing"), nullptr);

  uint32_t name_id = store->FindAttrName("name");
  ASSERT_NE(name_id, UINT32_MAX);
  uint64_t w0 = store->update_page_writes();
  store->UpdateAttrValue(a0, name_id, "Peru");
  EXPECT_EQ(*store->AttrValue(a0, "name"), "Peru");
  EXPECT_EQ(store->update_page_writes(), w0 + 1);
}

TEST(StoreTest, StatsBytesGrowWithData) {
  Fixture f;
  StoreBuilder small_builder(&f.schema, {});
  ElemId e = small_builder.AddElement(0, 0, false);
  small_builder.BeginColor(0);
  small_builder.Enter(e);
  small_builder.Leave(e);
  small_builder.EndColor();
  small_builder.BeginColor(1);
  small_builder.EndColor();
  auto small = small_builder.Finish();

  StoreBuilder big_builder(&f.schema, {});
  std::vector<ElemId> elems;
  for (uint32_t i = 0; i < 5000; ++i) {
    ElemId x = big_builder.AddElement(1, i, false);
    big_builder.AddAttr(x, big_builder.InternAttrName("id"),
                        big_builder.InternValue("b_" + std::to_string(i)),
                        false);
    elems.push_back(x);
  }
  big_builder.BeginColor(0);
  for (ElemId x : elems) {
    big_builder.Enter(x);
    big_builder.Leave(x);
  }
  big_builder.EndColor();
  big_builder.BeginColor(1);
  big_builder.EndColor();
  auto big = big_builder.Finish();

  EXPECT_GT(big->Stats().data_mbytes, small->Stats().data_mbytes);
  EXPECT_EQ(big->Stats().num_elements, 5000u);
}

}  // namespace
}  // namespace mctdb::storage

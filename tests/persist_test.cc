#include "storage/persist.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "design/designer.h"
#include "instance/materialize.h"
#include "query/executor.h"
#include "query/planner.h"
#include "storage/validate.h"
#include "workload/workload.h"

namespace mctdb::storage {
namespace {

using design::Strategy;

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

struct Fixture {
  workload::Workload w = workload::TpcwWorkload(0.03);
  er::ErGraph graph{w.diagram};
  design::Designer designer{graph};
  instance::LogicalInstance logical = instance::GenerateInstance(graph, w.gen);
};

TEST(PersistTest, SaveLoadRoundTripPreservesEverything) {
  Fixture f;
  mct::MctSchema schema = f.designer.Design(Strategy::kDr);
  auto original = instance::Materialize(f.logical, schema);
  std::string path = TempPath("dr.mctdb");
  ASSERT_TRUE(SaveStore(*original, path).ok());

  auto loaded = LoadStore(schema, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  MctStore& store = **loaded;

  auto a = original->Stats();
  auto b = store.Stats();
  EXPECT_EQ(a.num_elements, b.num_elements);
  EXPECT_EQ(a.num_attributes, b.num_attributes);
  EXPECT_EQ(a.num_content_nodes, b.num_content_nodes);
  EXPECT_EQ(a.num_colors, b.num_colors);

  // The loaded store passes full validation (including ICICs).
  analysis::DiagnosticReport report = ValidateStore(store);
  EXPECT_TRUE(report.empty()) << report.ToText();
}

bool SameLabel(const LabelEntry& a, const LabelEntry& b) {
  return a.elem == b.elem && a.start == b.start && a.end == b.end &&
         a.level == b.level && a.is_copy == b.is_copy &&
         a.logical == b.logical;
}

TEST(PersistTest, SaveLoadRoundTripMatchesElementByElement) {
  Fixture f;
  // DR has five colors; UNDR adds redundant copies of shared elements.
  for (Strategy strategy : {Strategy::kDr, Strategy::kUndr}) {
    mct::MctSchema schema = f.designer.Design(strategy);
    SCOPED_TRACE(schema.name());
    auto built = instance::Materialize(f.logical, schema);
    std::string path = TempPath("roundtrip.mctdb");
    ASSERT_TRUE(SaveStore(*built, path).ok());
    auto loaded_or = LoadStore(schema, path);
    ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
    const MctStore& loaded = **loaded_or;

    EXPECT_EQ(built->Stats().data_mbytes, loaded.Stats().data_mbytes);
    const ElemId n = static_cast<ElemId>(built->num_elements());
    ASSERT_EQ(loaded.num_elements(), n);
    size_t copies = 0, absent = 0, past_last = 0;
    for (mct::ColorId c = 0; c < schema.num_colors(); ++c) {
      std::vector<LabelEntry> a = built->ColorEntries(c);
      std::vector<LabelEntry> b = loaded.ColorEntries(c);
      ASSERT_EQ(a.size(), b.size()) << "color " << c;
      ElemId last = 0;
      for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_TRUE(SameLabel(a[i], b[i])) << "color " << c << " entry " << i;
        if (a[i].is_copy) ++copies;
        last = std::max(last, a[i].elem);
      }
      // Ids past the last element probe beyond every color's array.
      for (ElemId e = 0; e < n + 8; ++e) {
        LabelEntry la, lb;
        const bool in_a = built->Label(c, e, &la);
        ASSERT_EQ(in_a, loaded.Label(c, e, &lb))
            << "color " << c << " elem " << e;
        if (in_a) {
          ASSERT_TRUE(SameLabel(la, lb)) << "color " << c << " elem " << e;
        } else if (e < n) {
          ++absent;
          if (e > last) ++past_last;
        }
        ASSERT_EQ(built->Parent(c, e), loaded.Parent(c, e))
            << "color " << c << " elem " << e;
      }
      LabelEntry unused;
      EXPECT_FALSE(loaded.Label(c, kInvalidElem, &unused));
      EXPECT_EQ(loaded.Parent(c, kInvalidElem), kInvalidElem);
    }
    // The fixture reaches every case: elements missing from a color, and
    // elements created in a later color than the one probed.
    EXPECT_GT(absent, 0u);
    EXPECT_GT(past_last, 0u);
    if (strategy == Strategy::kUndr) {
      EXPECT_GT(copies, 0u);
    }
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(PersistTest, EqualStoresSaveToEqualBytes) {
  // Two independent builds of one multi-color store whose posting lists
  // fill pages: no byte of the image may depend on memory contents or
  // hash-table order.
  std::string images[2];
  for (int run = 0; run < 2; ++run) {
    workload::Workload w = workload::TpcwWorkload(0.2);
    er::ErGraph graph(w.diagram);
    design::Designer designer(graph);
    mct::MctSchema schema = designer.Design(Strategy::kDr);
    instance::LogicalInstance logical = instance::GenerateInstance(graph, w.gen);
    auto store = instance::Materialize(logical, schema);
    size_t max_pages = 0;
    for (mct::ColorId c = 0; c < schema.num_colors(); ++c) {
      for (er::NodeId tag = 0; tag < w.diagram.num_nodes(); ++tag) {
        if (const PostingMeta* p = store->Posting(c, tag)) {
          max_pages = std::max(max_pages, p->num_pages());
        }
      }
    }
    ASSERT_GE(max_pages, 2u) << "some posting list must fill a page";
    ASSERT_GT(schema.num_colors(), 1u);
    std::string path = TempPath(run == 0 ? "bytes_a.mctdb" : "bytes_b.mctdb");
    ASSERT_TRUE(SaveStore(*store, path).ok());
    images[run] = ReadFile(path);
  }
  ASSERT_FALSE(images[0].empty());
  EXPECT_TRUE(images[0] == images[1]) << "images differ";
}

TEST(PersistTest, LoadedStoreAnswersQueriesIdentically) {
  Fixture f;
  mct::MctSchema schema = f.designer.Design(Strategy::kEn);
  auto original = instance::Materialize(f.logical, schema);
  std::string path = TempPath("en.mctdb");
  ASSERT_TRUE(SaveStore(*original, path).ok());
  auto loaded = LoadStore(schema, path);
  ASSERT_TRUE(loaded.ok());

  for (const char* name : {"Q1", "Q2", "Q6", "Q9"}) {
    const query::AssociationQuery* q = f.w.Find(name);
    auto plan = query::PlanQuery(*q, schema);
    ASSERT_TRUE(plan.ok());
    query::Executor exec_orig(original.get());
    query::Executor exec_loaded(loaded->get());
    auto r1 = exec_orig.Execute(*plan);
    auto r2 = exec_loaded.Execute(*plan);
    ASSERT_TRUE(r1.ok() && r2.ok()) << name;
    EXPECT_EQ(r1->logicals, r2->logicals) << name;
    EXPECT_EQ(r1->raw_count, r2->raw_count) << name;
  }
}

TEST(PersistTest, FingerprintMismatchRefused) {
  Fixture f;
  mct::MctSchema en = f.designer.Design(Strategy::kEn);
  mct::MctSchema dr = f.designer.Design(Strategy::kDr);
  auto store = instance::Materialize(f.logical, en);
  std::string path = TempPath("fp.mctdb");
  ASSERT_TRUE(SaveStore(*store, path).ok());
  auto wrong = LoadStore(dr, path);
  ASSERT_FALSE(wrong.ok());
  EXPECT_TRUE(wrong.status().IsInvalidArgument());
  EXPECT_NE(wrong.status().message().find("fingerprint"), std::string::npos);
}

TEST(PersistTest, TruncatedFileRefused) {
  Fixture f;
  mct::MctSchema schema = f.designer.Design(Strategy::kShallow);
  auto store = instance::Materialize(f.logical, schema);
  std::string path = TempPath("trunc.mctdb");
  ASSERT_TRUE(SaveStore(*store, path).ok());
  // Truncate to 100 bytes.
  {
    std::FILE* fp = std::fopen(path.c_str(), "rb");
    ASSERT_NE(fp, nullptr);
    char buf[100];
    ASSERT_EQ(std::fread(buf, 1, sizeof(buf), fp), sizeof(buf));
    std::fclose(fp);
    fp = std::fopen(path.c_str(), "wb");
    std::fwrite(buf, 1, sizeof(buf), fp);
    std::fclose(fp);
  }
  auto bad = LoadStore(schema, path);
  EXPECT_FALSE(bad.ok());
}

TEST(PersistTest, GarbageFileRefused) {
  std::string path = TempPath("garbage.mctdb");
  std::FILE* fp = std::fopen(path.c_str(), "wb");
  std::fputs("this is not a store", fp);
  std::fclose(fp);
  Fixture f;
  mct::MctSchema schema = f.designer.Design(Strategy::kEn);
  auto bad = LoadStore(schema, path);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("magic"), std::string::npos);
}

TEST(PersistTest, MissingFileIsIoError) {
  Fixture f;
  mct::MctSchema schema = f.designer.Design(Strategy::kEn);
  auto bad = LoadStore(schema, TempPath("does_not_exist.mctdb"));
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsIoError());
}

TEST(PersistTest, FingerprintSensitiveToSchemaShape) {
  Fixture f;
  mct::MctSchema en = f.designer.Design(Strategy::kEn);
  mct::MctSchema mcmr = f.designer.Design(Strategy::kMcmr);
  mct::MctSchema en2 = f.designer.Design(Strategy::kEn);
  EXPECT_NE(SchemaFingerprint(en), SchemaFingerprint(mcmr));
  EXPECT_EQ(SchemaFingerprint(en), SchemaFingerprint(en2))
      << "designs are deterministic";
}

}  // namespace
}  // namespace mctdb::storage

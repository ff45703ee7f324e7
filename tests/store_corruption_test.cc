// Fuzz-style robustness corpus: every way we can damage a store file must
// produce a clean error (DataLoss / InvalidArgument / IoError) — never a
// crash, hang, or out-of-range read. Two sources of inputs:
//
//   * the committed corpus in tests/data/ (fingerprint-independent cases:
//     bad magic, v1 files, truncation before the header);
//   * runtime-generated damage to a freshly saved store — truncation at
//     a spread of offsets and single-bit flips at a stride across the
//     whole file — which exercises the per-section checksums and the
//     bounds checks on every count the loader reads;
//   * out-of-range ids planted under a valid section checksum, which only
//     the loader's own bounds checks can catch;
//   * the same truncation and failpoint cases on an image larger than
//     twice the loader's I/O buffer, so they cut across buffer refills.
//
// The CI ASAN job runs this test, so "no crash" includes "no silent
// out-of-bounds read".
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/failpoint.h"
#include "common/hash.h"
#include "design/designer.h"
#include "instance/materialize.h"
#include "storage/persist.h"
#include "workload/workload.h"

namespace mctdb::storage {
namespace {

using design::Strategy;

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

std::vector<char> ReadAllBytes(const std::string& path) {
  std::FILE* fp = std::fopen(path.c_str(), "rb");
  EXPECT_NE(fp, nullptr) << path;
  std::fseek(fp, 0, SEEK_END);
  long size = std::ftell(fp);
  std::fseek(fp, 0, SEEK_SET);
  std::vector<char> bytes(static_cast<size_t>(size));
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), fp), bytes.size());
  std::fclose(fp);
  return bytes;
}

void WriteAllBytes(const std::string& path, const std::vector<char>& bytes,
                   size_t len) {
  std::FILE* fp = std::fopen(path.c_str(), "wb");
  ASSERT_NE(fp, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, len, fp), len);
  std::fclose(fp);
}

/// One checksummed section of a saved image: the payload is
/// bytes[begin, end), and its 8-byte checksum follows at `end`.
struct Section {
  std::string name;
  size_t begin = 0;
  size_t end = 0;
};

/// The u32 at `pos`; 0 past the end, so a walk over a bad image stays in
/// bounds (and then fails its final size check).
uint32_t GetU32(const std::vector<char>& bytes, size_t pos) {
  uint32_t v = 0;
  if (pos + sizeof(v) <= bytes.size()) {
    std::memcpy(&v, bytes.data() + pos, sizeof(v));
  }
  return v;
}

/// The section layout of a well-formed image (see storage/persist.h), for
/// a schema with `num_tags` ER nodes.
std::vector<Section> Sections(const std::vector<char>& bytes,
                              size_t num_tags) {
  std::vector<Section> out;
  size_t pos = 0;
  size_t begin = 0;
  auto u32 = [&] {
    uint32_t v = GetU32(bytes, pos);
    pos += sizeof(v);
    return v;
  };
  auto end_section = [&](const char* name) {
    out.push_back({name, begin, pos});
    pos += sizeof(uint64_t);
    begin = pos;
  };
  pos += 16;  // magic, schema fingerprint
  end_section("header");
  pos += size_t{u32()} * kPageSize;
  end_section("pages");
  const uint32_t num_elements = u32();
  pos += size_t{num_elements} * 12;
  end_section("elements");
  for (uint32_t i = 0; i < num_elements; ++i) pos += size_t{u32()} * 12;
  end_section("attrs");
  for (int dict = 0; dict < 2; ++dict) {
    for (uint32_t n = u32(), i = 0; i < n; ++i) pos += u32();
  }
  end_section("dicts");
  const uint32_t num_colors = u32();
  for (uint32_t c = 0; c < num_colors; ++c) {
    pos += size_t{u32()} * sizeof(LabelEntry);
    pos += size_t{u32()} * 8;
  }
  end_section("labels");
  size_t present = 0;
  for (size_t i = 0; i < size_t{num_colors} * num_tags; ++i) {
    if (u32() == 0xFFFFFFFFu) continue;
    ++present;
    pos += size_t{u32()} * 4;
  }
  end_section("postings");
  pos += 4;  // index version
  for (size_t i = 0; i < present; ++i) pos += size_t{u32()} * 8;
  end_section("postidx");
  pos += 16;
  end_section("counters");
  EXPECT_EQ(pos, bytes.size()) << "section walk out of step with the image";
  return out;
}

const Section& FindSection(const std::vector<Section>& sections,
                           const std::string& name) {
  for (const Section& s : sections) {
    if (s.name == name) return s;
  }
  ADD_FAILURE() << "no section " << name;
  return sections.front();
}

/// Overwrites the u32 at `offset` into `section`'s payload and re-seals
/// the section with a matching checksum, so only the loader's own bounds
/// checks stand between the planted value and the store.
void PatchU32(std::vector<char>* bytes, const Section& section, size_t offset,
              uint32_t value) {
  ASSERT_LE(section.begin + offset + sizeof(value), section.end);
  std::memcpy(bytes->data() + section.begin + offset, &value, sizeof(value));
  // A section checksum is FNV-1a over its payload, as Hash64 computes it.
  const uint64_t sum = Hash64(std::string_view(
      bytes->data() + section.begin, section.end - section.begin));
  std::memcpy(bytes->data() + section.end, &sum, sizeof(sum));
}

struct CorpusFixture : public testing::Test {
  workload::Workload w = workload::TpcwWorkload(0.03);
  er::ErGraph graph{w.diagram};
  design::Designer designer{graph};
  mct::MctSchema schema = designer.Design(Strategy::kEn);

  /// A clean error is the only acceptable outcome for a damaged file.
  void ExpectCleanFailure(const std::string& path, const char* what) {
    auto result = LoadStore(schema, path);
    ASSERT_FALSE(result.ok()) << what << ": damaged file loaded fine";
    const Status& s = result.status();
    EXPECT_TRUE(s.IsDataLoss() || s.IsInvalidArgument() || s.IsIoError())
        << what << ": unexpected status " << s.ToString();
  }
};

TEST_F(CorpusFixture, CommittedCorpusFailsCleanly) {
  const char* files[] = {"empty.mctdb", "short_magic.mctdb",
                         "garbage.mctdb", "v1_magic.mctdb",
                         "header_only.mctdb"};
  for (const char* name : files) {
    std::string path = std::string(MCTDB_TEST_DATA_DIR) + "/" + name;
    ExpectCleanFailure(path, name);
  }
}

TEST_F(CorpusFixture, V1FilesAreRefusedWithAMigrationHint) {
  auto result = LoadStore(
      schema, std::string(MCTDB_TEST_DATA_DIR) + "/v1_magic.mctdb");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
  EXPECT_NE(result.status().message().find("version 1"),
            std::string::npos)
      << result.status().ToString();
}

TEST_F(CorpusFixture, TruncationAtAnyOffsetFailsCleanly) {
  instance::LogicalInstance logical =
      instance::GenerateInstance(graph, w.gen);
  auto store = instance::Materialize(logical, schema);
  std::string path = TempPath("trunc_corpus.mctdb");
  ASSERT_TRUE(SaveStore(*store, path).ok());
  std::vector<char> bytes = ReadAllBytes(path);
  ASSERT_GT(bytes.size(), 1024u);

  std::string damaged = TempPath("trunc_case.mctdb");
  std::vector<size_t> cuts;
  // Every prefix of the first 64 bytes (header-parsing edge cases), then
  // a prime stride across the body, then the last 64 byte boundaries
  // (checksum-tail edge cases).
  for (size_t i = 0; i < 64 && i < bytes.size(); ++i) cuts.push_back(i);
  for (size_t i = 64; i < bytes.size(); i += 4099) cuts.push_back(i);
  for (size_t i = bytes.size() - 64; i < bytes.size(); ++i)
    cuts.push_back(i);
  for (size_t cut : cuts) {
    WriteAllBytes(damaged, bytes, cut);
    ExpectCleanFailure(
        damaged,
        ("truncated to " + std::to_string(cut) + " bytes").c_str());
  }
}

TEST_F(CorpusFixture, BitFlipsAnywhereFailCleanlyOrLoadIdentically) {
  instance::LogicalInstance logical =
      instance::GenerateInstance(graph, w.gen);
  auto store = instance::Materialize(logical, schema);
  std::string path = TempPath("flip_corpus.mctdb");
  ASSERT_TRUE(SaveStore(*store, path).ok());
  std::vector<char> bytes = ReadAllBytes(path);

  std::string damaged = TempPath("flip_case.mctdb");
  // A prime stride visits every region (header, pages, dictionaries,
  // postings, per-section checksums) across repeated runs of the suite.
  for (size_t pos = 0; pos < bytes.size(); pos += 2053) {
    char saved = bytes[pos];
    bytes[pos] = static_cast<char>(bytes[pos] ^ (1 << (pos % 8)));
    WriteAllBytes(damaged, bytes, bytes.size());
    auto result = LoadStore(schema, damaged);
    if (result.ok()) {
      // A flip inside a checksum byte itself... is hashed too, so every
      // flip must be caught. Loading fine would mean a coverage hole.
      ADD_FAILURE() << "bit flip at offset " << pos
                    << " was not detected";
    } else {
      const Status& s = result.status();
      EXPECT_TRUE(s.IsDataLoss() || s.IsInvalidArgument())
          << "offset " << pos << ": " << s.ToString();
    }
    bytes[pos] = saved;
  }
}

TEST_F(CorpusFixture, OutOfRangeValueIdIsDataLoss) {
  instance::LogicalInstance logical =
      instance::GenerateInstance(graph, w.gen);
  auto store = instance::Materialize(logical, schema);
  std::string path = TempPath("value_id.mctdb");
  ASSERT_TRUE(SaveStore(*store, path).ok());
  std::vector<char> bytes = ReadAllBytes(path);
  const std::vector<Section> sections =
      Sections(bytes, schema.diagram().num_nodes());
  // The first attribute record's value id: records are (name id, value
  // id, content flag), each list led by its length.
  size_t offset = 0;
  ElemId elem = 0;
  while (store->attrs(elem).empty()) offset += 4, ++elem;
  PatchU32(&bytes, FindSection(sections, "attrs"), offset + 8, 0x7FFFFFF0u);
  std::string damaged = TempPath("value_id_case.mctdb");
  WriteAllBytes(damaged, bytes, bytes.size());
  auto result = LoadStore(schema, damaged);
  ASSERT_FALSE(result.ok()) << "a value id past the dictionary loaded";
  EXPECT_TRUE(result.status().IsDataLoss()) << result.status().ToString();

  // The same for a name id.
  bytes = ReadAllBytes(path);
  PatchU32(&bytes, FindSection(sections, "attrs"), offset + 4, 0x7FFFFFF0u);
  WriteAllBytes(damaged, bytes, bytes.size());
  result = LoadStore(schema, damaged);
  ASSERT_FALSE(result.ok()) << "a name id past the dictionary loaded";
  EXPECT_TRUE(result.status().IsDataLoss()) << result.status().ToString();
}

TEST_F(CorpusFixture, OutOfRangeParentIsDataLoss) {
  instance::LogicalInstance logical =
      instance::GenerateInstance(graph, w.gen);
  auto store = instance::Materialize(logical, schema);
  std::string path = TempPath("parent.mctdb");
  ASSERT_TRUE(SaveStore(*store, path).ok());
  std::vector<char> bytes = ReadAllBytes(path);
  const std::vector<Section> sections =
      Sections(bytes, schema.diagram().num_nodes());
  const Section& labels = FindSection(sections, "labels");
  // Per color: label count, labels, parent count, (elem, parent) pairs.
  size_t pos = labels.begin + 4;
  size_t parent_at = 0;
  for (uint32_t c = 0; c < GetU32(bytes, labels.begin); ++c) {
    pos += 4 + size_t{GetU32(bytes, pos)} * sizeof(LabelEntry);
    const uint32_t num_parents = GetU32(bytes, pos);
    pos += 4;
    if (num_parents > 0) {
      parent_at = pos + 4 - labels.begin;
      break;
    }
    pos += size_t{num_parents} * 8;
  }
  ASSERT_GT(parent_at, 0u) << "the image records no parent";
  PatchU32(&bytes, labels, parent_at, 0x7FFFFFF0u);
  std::string damaged = TempPath("parent_case.mctdb");
  WriteAllBytes(damaged, bytes, bytes.size());
  auto result = LoadStore(schema, damaged);
  ASSERT_FALSE(result.ok()) << "a parent past the element table loaded";
  EXPECT_TRUE(result.status().IsDataLoss()) << result.status().ToString();
}

TEST_F(CorpusFixture, SaveFailpointSurfacesIoError) {
  instance::LogicalInstance logical =
      instance::GenerateInstance(graph, w.gen);
  auto store = instance::Materialize(logical, schema);
  std::string path = TempPath("save_fault.mctdb");
  failpoint::FailpointGuard guard("persist.save", "err");
  Status s = SaveStore(*store, path);
  EXPECT_TRUE(s.IsIoError()) << s.ToString();
}

TEST_F(CorpusFixture, SaveTruncationIsCaughtAtLoad) {
  instance::LogicalInstance logical =
      instance::GenerateInstance(graph, w.gen);
  auto store = instance::Materialize(logical, schema);
  std::string path = TempPath("save_trunc.mctdb");
  {
    failpoint::FailpointGuard guard("persist.save", "trunc");
    // The save itself reports success — the bytes silently never hit the
    // disk past 4 KB, as with a torn copy or a full filesystem cache.
    ASSERT_TRUE(SaveStore(*store, path).ok());
  }
  auto result = LoadStore(schema, path);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDataLoss()) << result.status().ToString();
}

TEST_F(CorpusFixture, LoadFailpointsInjectCleanFailures) {
  instance::LogicalInstance logical =
      instance::GenerateInstance(graph, w.gen);
  auto store = instance::Materialize(logical, schema);
  std::string path = TempPath("load_fault.mctdb");
  ASSERT_TRUE(SaveStore(*store, path).ok());
  {
    failpoint::FailpointGuard guard("persist.load", "err");
    auto result = LoadStore(schema, path);
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsDataLoss());
  }
  {
    failpoint::FailpointGuard guard("persist.load", "trunc");
    auto result = LoadStore(schema, path);
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsDataLoss());
  }
  // Disarmed again: the same file loads fine.
  EXPECT_TRUE(LoadStore(schema, path).ok());
}

TEST_F(CorpusFixture, LoadStoreWithRetryRecoversFromTransientFaults) {
  instance::LogicalInstance logical =
      instance::GenerateInstance(graph, w.gen);
  auto store = instance::Materialize(logical, schema);
  std::string path = TempPath("load_retry.mctdb");
  ASSERT_TRUE(SaveStore(*store, path).ok());

  RetryPolicy policy;
  policy.max_attempts = 50;
  policy.initial_backoff = std::chrono::microseconds(1);
  policy.max_backoff = std::chrono::microseconds(10);
  // p=0.5: P(50 consecutive failures) ~ 1e-15 — the retry loop wins.
  failpoint::FailpointGuard guard("persist.load", "err(0.5)");
  uint64_t retries = 0;
  auto result = LoadStoreWithRetry(schema, path, {}, policy, &retries);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LT(retries, 50u);
}

TEST_F(CorpusFixture, RetryDoesNotMaskPermanentErrors) {
  std::string path =
      std::string(MCTDB_TEST_DATA_DIR) + "/garbage.mctdb";
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.initial_backoff = std::chrono::microseconds(1);
  uint64_t retries = 0;
  auto result = LoadStoreWithRetry(schema, path, {}, policy, &retries);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
  EXPECT_EQ(retries, 0u) << "wrong-file errors must not be retried";
}

/// A DEEP image at TPC-W 0.2 (3.4 MB), over twice the image I/O buffer,
/// so saving and loading it drain and refill the buffer several times.
struct LargeImage {
  workload::Workload w = workload::TpcwWorkload(0.2);
  er::ErGraph graph{w.diagram};
  design::Designer designer{graph};
  mct::MctSchema schema = designer.Design(Strategy::kDeep);
  std::unique_ptr<MctStore> store;
  std::string path;
  std::vector<char> bytes;

  LargeImage() {
    // Named after the first test that asks: ctest runs each test in its
    // own process, concurrently.
    path = TempPath("large_") +
           testing::UnitTest::GetInstance()->current_test_info()->name() +
           ".mctdb";
    instance::LogicalInstance logical =
        instance::GenerateInstance(graph, w.gen);
    store = instance::Materialize(logical, schema);
    EXPECT_TRUE(SaveStore(*store, path).ok());
    bytes = ReadAllBytes(path);
  }
};

LargeImage& Large() {
  static LargeImage* image = new LargeImage();
  return *image;
}

void ExpectCleanLoadFailure(const mct::MctSchema& schema,
                            const std::string& path, const std::string& what) {
  auto result = LoadStore(schema, path);
  ASSERT_FALSE(result.ok()) << what << ": damaged file loaded fine";
  EXPECT_TRUE(result.status().IsDataLoss() ||
              result.status().IsInvalidArgument())
      << what << ": unexpected status " << result.status().ToString();
}

TEST(LargeImageTest, ImageSpansSeveralBuffers) {
  EXPECT_GE(Large().bytes.size(), 2 * kImageIoBufferBytes);
}

TEST(LargeImageTest, TruncationAcrossBufferRefillsFailsCleanly) {
  LargeImage& large = Large();
  const std::vector<char>& bytes = large.bytes;
  ASSERT_GE(bytes.size(), 2 * kImageIoBufferBytes);
  std::vector<size_t> cuts;
  for (size_t at = 64 * 1024; at < bytes.size(); at += 64 * 1024) {
    cuts.insert(cuts.end(), {at - 1, at + 1});
  }
  for (const Section& s :
       Sections(bytes, large.schema.diagram().num_nodes())) {
    // Without the checksum, inside it, and around the next section's start.
    const size_t next = s.end + sizeof(uint64_t);
    cuts.insert(cuts.end(), {s.end, next - 1, next, next + 1});
  }
  std::string damaged = TempPath("large_trunc.mctdb");
  for (size_t cut : cuts) {
    if (cut >= bytes.size()) continue;
    WriteAllBytes(damaged, bytes, cut);
    ExpectCleanLoadFailure(large.schema, damaged,
                           "truncated to " + std::to_string(cut) + " bytes");
  }
}

TEST(LargeImageTest, FailpointsCutAcrossBufferRefills) {
  LargeImage& large = Large();
  std::string path = TempPath("large_save_trunc.mctdb");
  {
    failpoint::FailpointGuard guard("persist.save", "trunc");
    ASSERT_TRUE(SaveStore(*large.store, path).ok());
  }
  EXPECT_EQ(ReadAllBytes(path).size(), 4096u) << "the disk keeps 4 KB";
  auto result = LoadStore(large.schema, path);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDataLoss()) << result.status().ToString();
  {
    failpoint::FailpointGuard guard("persist.load", "trunc");
    result = LoadStore(large.schema, large.path);
    ASSERT_FALSE(result.ok()) << "half the image loaded";
    EXPECT_TRUE(result.status().IsDataLoss()) << result.status().ToString();
  }
  EXPECT_TRUE(LoadStore(large.schema, large.path).ok());
}

TEST(LargeImageTest, RoundTripAcrossBufferRefills) {
  LargeImage& large = Large();
  auto loaded_or = LoadStore(large.schema, large.path);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  const MctStore& built = *large.store;
  const MctStore& loaded = **loaded_or;

  EXPECT_EQ(built.Stats().data_mbytes, loaded.Stats().data_mbytes);
  const ElemId n = static_cast<ElemId>(built.num_elements());
  ASSERT_EQ(loaded.num_elements(), n);
  size_t copies = 0;
  for (ElemId e = 0; e < n; ++e) {
    const ElementMeta& a = built.element(e);
    const ElementMeta& b = loaded.element(e);
    ASSERT_EQ(a.er_node, b.er_node) << e;
    ASSERT_EQ(a.logical, b.logical) << e;
    ASSERT_EQ(a.is_copy, b.is_copy) << e;
    copies += a.is_copy;
    ASSERT_EQ(built.attrs(e).size(), loaded.attrs(e).size()) << e;
    for (size_t i = 0; i < built.attrs(e).size(); ++i) {
      const AttrRecord& ra = built.attrs(e)[i];
      const AttrRecord& rb = loaded.attrs(e)[i];
      ASSERT_EQ(built.attr_name(ra.name_id), loaded.attr_name(rb.name_id));
      ASSERT_EQ(built.value(ra.value_id), loaded.value(rb.value_id));
      ASSERT_EQ(ra.has_content, rb.has_content);
    }
  }
  EXPECT_GT(copies, 0u) << "DEEP stores redundant copies";
  for (mct::ColorId c = 0; c < large.schema.num_colors(); ++c) {
    std::vector<LabelEntry> a = built.ColorEntries(c);
    std::vector<LabelEntry> b = loaded.ColorEntries(c);
    ASSERT_EQ(a.size(), b.size()) << "color " << c;
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(std::memcmp(&a[i], &b[i], sizeof(LabelEntry)), 0)
          << "color " << c << " entry " << i;
    }
    for (ElemId e = 0; e < n; ++e) {
      ASSERT_EQ(built.Parent(c, e), loaded.Parent(c, e))
          << "color " << c << " elem " << e;
    }
  }
  // Saving the loaded store drains the buffer at the same places and
  // writes the same bytes.
  std::string again = TempPath("large_again.mctdb");
  ASSERT_TRUE(SaveStore(loaded, again).ok());
  EXPECT_TRUE(ReadAllBytes(again) == large.bytes) << "re-saved image differs";
}

}  // namespace
}  // namespace mctdb::storage

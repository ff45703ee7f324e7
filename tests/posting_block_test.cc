// Batched posting reads: NextSpan block iteration, the per-page interval
// summaries (the persistent posting index), index-assisted page skipping,
// and the single-reservation materialization contract of ReadAll.
#include "storage/posting.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "obs/exec_stats.h"
#include "storage/pager.h"
#include "storage/sharded_pool.h"

namespace mctdb::storage {
namespace {

/// n sibling intervals in document order: entry i is (2i+1, 2i+2) at
/// level 1 — strictly increasing starts, like any real posting list.
std::vector<LabelEntry> Siblings(size_t n) {
  std::vector<LabelEntry> entries(n);
  for (size_t i = 0; i < n; ++i) {
    entries[i].elem = static_cast<ElemId>(i);
    entries[i].start = static_cast<uint32_t>(2 * i + 1);
    entries[i].end = static_cast<uint32_t>(2 * i + 2);
    entries[i].level = 1;
    entries[i].logical = static_cast<uint32_t>(i);
  }
  return entries;
}

PostingMeta Build(Pager* pager, const std::vector<LabelEntry>& entries) {
  PostingWriter writer(pager);
  for (const LabelEntry& e : entries) writer.Append(e);
  return writer.Finish();
}

bool Same(const LabelEntry& a, const LabelEntry& b) {
  return a.elem == b.elem && a.start == b.start && a.end == b.end &&
         a.level == b.level && a.is_copy == b.is_copy &&
         a.logical == b.logical;
}

TEST(PostingBlockTest, NextSpanYieldsTheExactNextSequence) {
  Pager pager;
  // 2.5 pages: a full page, a full page, a partial tail.
  std::vector<LabelEntry> entries = Siblings(kEntriesPerPage * 2 + 200);
  PostingMeta meta = Build(&pager, entries);
  ShardedBufferPool pool(&pager, 8, 1);

  std::vector<LabelEntry> via_next;
  {
    PostingCursor cursor(&pool, &meta);
    LabelEntry e;
    while (cursor.Next(&e)) via_next.push_back(e);
    ASSERT_TRUE(cursor.status().ok());
  }
  std::vector<LabelEntry> via_span;
  size_t spans = 0;
  {
    PostingCursor cursor(&pool, &meta);
    const LabelEntry* data = nullptr;
    size_t n = 0;
    while (cursor.NextSpan(&data, &n)) {
      via_span.insert(via_span.end(), data, data + n);
      ++spans;
    }
    ASSERT_TRUE(cursor.status().ok());
  }
  ASSERT_EQ(via_next.size(), entries.size());
  ASSERT_EQ(via_span.size(), entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_TRUE(Same(via_next[i], via_span[i])) << "entry " << i;
    EXPECT_TRUE(Same(via_span[i], entries[i])) << "entry " << i;
  }
  // One span per page: the block path does one fetch per page, never a
  // per-entry copy loop.
  EXPECT_EQ(spans, meta.num_pages());
}

TEST(PostingBlockTest, WriterBuildsOneSummaryPerPage) {
  Pager pager;
  std::vector<LabelEntry> entries = Siblings(kEntriesPerPage * 2 + 31);
  PostingMeta meta = Build(&pager, entries);

  ASSERT_TRUE(meta.has_index());
  ASSERT_EQ(meta.summaries.size(), meta.pages.size());
  for (size_t p = 0; p < meta.summaries.size(); ++p) {
    size_t lo = p * kEntriesPerPage;
    size_t hi = std::min(lo + kEntriesPerPage, entries.size());
    uint32_t max_end = 0;
    for (size_t i = lo; i < hi; ++i) max_end = std::max(max_end, entries[i].end);
    EXPECT_EQ(meta.summaries[p].first_start, entries[lo].start) << "page " << p;
    EXPECT_EQ(meta.summaries[p].max_end, max_end) << "page " << p;
  }
}

TEST(PostingBlockTest, BoundsSkipPagesWithoutFetchingThem) {
  Pager pager;
  std::vector<LabelEntry> entries = Siblings(kEntriesPerPage * 4);
  PostingMeta meta = Build(&pager, entries);
  ASSERT_EQ(meta.num_pages(), 4u);

  // Baseline: an unbounded scan fetches every page.
  {
    ShardedBufferPool pool(&pager, 8, 1);
    obs::ExecStats stats("full");
    PostingCursor cursor(&pool, &meta, &stats);
    const LabelEntry* data = nullptr;
    size_t n = 0;
    while (cursor.NextSpan(&data, &n)) {
    }
    EXPECT_EQ(stats.page_misses(), 4u);
    EXPECT_EQ(stats.index_seeks(), 0u);
  }

  // A forward-join bound anchored in the last page: the front seek must
  // jump the first three pages without fetching them, and the scan must
  // still return every qualifying entry (bounds are necessary conditions,
  // never filters).
  ScanBounds bounds;
  bounds.start_gt = entries[kEntriesPerPage * 3 + 10].start;
  {
    ShardedBufferPool pool(&pager, 8, 1);
    obs::ExecStats stats("bounded");
    PostingCursor cursor(&pool, &meta, &stats);
    cursor.ApplyBounds(bounds);
    std::vector<LabelEntry> got;
    const LabelEntry* data = nullptr;
    size_t n = 0;
    while (cursor.NextSpan(&data, &n)) got.insert(got.end(), data, data + n);
    ASSERT_TRUE(cursor.status().ok());
    EXPECT_EQ(stats.page_misses(), 1u) << "three pages ruled out unfetched";
    EXPECT_GE(stats.index_seeks(), 1u);
    std::vector<LabelEntry> qualifying;
    for (const LabelEntry& e : entries) {
      if (e.start > bounds.start_gt) qualifying.push_back(e);
    }
    ASSERT_FALSE(qualifying.empty());
    for (const LabelEntry& want : qualifying) {
      EXPECT_TRUE(std::any_of(got.begin(), got.end(), [&](const LabelEntry& g) {
        return Same(g, want);
      })) << "entry with start " << want.start << " was wrongly skipped";
    }
  }

  // An early-stop bound anchored in the first page: the tail never loads.
  {
    ShardedBufferPool pool(&pager, 8, 1);
    obs::ExecStats stats("early");
    PostingCursor cursor(&pool, &meta, &stats);
    ScanBounds early;
    early.start_lt = entries[5].start;
    cursor.ApplyBounds(early);
    const LabelEntry* data = nullptr;
    size_t n = 0;
    while (cursor.NextSpan(&data, &n)) {
    }
    ASSERT_TRUE(cursor.status().ok());
    EXPECT_EQ(stats.page_misses(), 1u) << "only the front page is fetched";
  }
}

TEST(PostingBlockTest, MetaWithoutSummariesDegradesToSequentialScan) {
  Pager pager;
  std::vector<LabelEntry> entries = Siblings(kEntriesPerPage + 50);
  PostingMeta meta = Build(&pager, entries);
  meta.summaries.clear();  // hand-built metas may lack the index
  ASSERT_FALSE(meta.has_index());

  ShardedBufferPool pool(&pager, 8, 1);
  obs::ExecStats stats("degraded");
  PostingCursor cursor(&pool, &meta, &stats);
  ScanBounds bounds;
  bounds.start_gt = entries.back().start;  // would skip everything if indexed
  cursor.ApplyBounds(bounds);
  size_t total = 0;
  const LabelEntry* data = nullptr;
  size_t n = 0;
  while (cursor.NextSpan(&data, &n)) total += n;
  EXPECT_EQ(total, entries.size()) << "no index, no skipping — plain scan";
  EXPECT_EQ(stats.index_seeks(), 0u);
}

TEST(PostingBlockTest, ReadAllMaterializesWithOneExactReservation) {
  // The regression this pins: posting materialization must reserve the
  // known final size up front. A growth loop over a multi-page list
  // reallocates log(n) times and copies every entry repeatedly; the
  // tell-tale is capacity() > size() afterwards.
  Pager pager;
  std::vector<LabelEntry> entries = Siblings(kEntriesPerPage * 3 + 7);
  PostingMeta meta = Build(&pager, entries);
  ShardedBufferPool pool(&pager, 8, 1);

  std::vector<LabelEntry> all = ReadAll(&pool, meta);
  ASSERT_EQ(all.size(), meta.count);
  EXPECT_EQ(all.capacity(), meta.count)
      << "ReadAll must reserve meta.count once, not grow geometrically";
  for (size_t i = 0; i < entries.size(); ++i) {
    ASSERT_TRUE(Same(all[i], entries[i])) << "entry " << i;
  }
}

}  // namespace
}  // namespace mctdb::storage

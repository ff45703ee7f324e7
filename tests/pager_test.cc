#include "storage/pager.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <new>

#include "common/failpoint.h"
#include "common/hash.h"
#include "storage/posting.h"
#include "storage/sharded_pool.h"

namespace mctdb::storage {
namespace {

TEST(PagerTest, AppendRead) {
  Pager pager;
  char buf[kPageSize];
  std::memset(buf, 0x5A, kPageSize);
  PageId p = pager.Append(buf);
  // The pager keeps its own copy: later changes to the source do not leak.
  std::memset(buf + 100, 0x11, 10);
  char out[kPageSize];
  ASSERT_TRUE(pager.Read(p, out).ok());
  for (size_t i = 0; i < kPageSize; ++i) ASSERT_EQ(out[i], 0x5A) << i;
  EXPECT_EQ(pager.Append(buf), p + 1) << "ids are dense, in append order";
  ASSERT_TRUE(pager.Read(p + 1, out).ok());
  EXPECT_EQ(std::memcmp(buf, out, kPageSize), 0);
  EXPECT_EQ(pager.num_pages(), 2u);
  EXPECT_EQ(pager.bytes(), 2 * kPageSize);
}

TEST(PagerTest, CountsDiskIo) {
  Pager pager;
  uint64_t w0 = pager.disk_writes();
  char buf[kPageSize] = {};
  PageId p = pager.Append(buf);
  EXPECT_EQ(pager.disk_writes(), w0 + 1);
  uint64_t r0 = pager.disk_reads();
  char out[kPageSize];
  ASSERT_TRUE(pager.Read(p, out).ok());
  ASSERT_TRUE(pager.Read(p, out).ok());
  EXPECT_EQ(pager.disk_reads(), r0 + 2);
}

TEST(PostingTest, WriteAndScan) {
  Pager pager;
  PostingWriter writer(&pager);
  const size_t n = 3 * kEntriesPerPage + 17;  // spans 4 pages
  for (uint32_t i = 0; i < n; ++i) {
    LabelEntry e;
    e.elem = i;
    e.start = 2 * i + 1;
    e.end = 2 * i + 2;
    e.level = 3;
    e.logical = i * 10;
    writer.Append(e);
  }
  PostingMeta meta = writer.Finish();
  EXPECT_EQ(meta.count, n);
  EXPECT_EQ(meta.num_pages(), 4u);

  ShardedBufferPool pool(&pager, 2, 1);
  PostingCursor cursor(&pool, &meta);
  LabelEntry e;
  uint32_t i = 0;
  while (cursor.Next(&e)) {
    ASSERT_EQ(e.elem, i);
    ASSERT_EQ(e.start, 2 * i + 1);
    ASSERT_EQ(e.logical, i * 10);
    ++i;
  }
  EXPECT_EQ(i, n);
  EXPECT_EQ(pool.misses(), 4u) << "one miss per page on a cold scan";
}

TEST(PostingTest, ReadAllMatchesCursor) {
  Pager pager;
  PostingWriter writer(&pager);
  for (uint32_t i = 0; i < 100; ++i) {
    LabelEntry e;
    e.elem = i;
    e.start = i;
    e.end = 1000 - i;
    writer.Append(e);
  }
  PostingMeta meta = writer.Finish();
  ShardedBufferPool pool(&pager, 8, 1);
  auto all = ReadAll(&pool, meta);
  ASSERT_EQ(all.size(), 100u);
  EXPECT_EQ(all[42].elem, 42u);
  EXPECT_EQ(all[42].end, 958u);
}

TEST(PostingTest, FullPageTailIsZeroOverDirtyMemory) {
  // A full page leaves kPageSize % sizeof(LabelEntry) bytes after its last
  // entry. They reach the page checksum and saved images, so they must not
  // depend on what the writer's memory held before: build the writer over
  // poisoned bytes and check the tail comes out zero.
  static_assert(kPageSize % sizeof(LabelEntry) != 0);
  Pager pager;
  alignas(PostingWriter) unsigned char raw[sizeof(PostingWriter)];
  std::memset(raw, 0xA5, sizeof(raw));
  auto* writer = new (raw) PostingWriter(&pager);
  // One entry past a full page, so the first page is flushed full.
  for (uint32_t i = 0; i <= kEntriesPerPage; ++i) {
    LabelEntry e;
    e.elem = i;
    e.start = 2 * i + 1;
    e.end = 2 * i + 2;
    writer->Append(e);
  }
  PostingMeta meta = writer->Finish();
  writer->~PostingWriter();
  ASSERT_EQ(meta.num_pages(), 2u);
  char page[kPageSize];
  ASSERT_TRUE(pager.Read(meta.pages[0], page).ok());
  for (size_t i = kEntriesPerPage * sizeof(LabelEntry); i < kPageSize; ++i) {
    ASSERT_EQ(page[i], 0) << "tail byte " << i;
  }
}

TEST(PostingTest, EmptyList) {
  Pager pager;
  PostingWriter writer(&pager);
  PostingMeta meta = writer.Finish();
  EXPECT_EQ(meta.count, 0u);
  ShardedBufferPool pool(&pager, 2, 1);
  PostingCursor cursor(&pool, &meta);
  LabelEntry e;
  EXPECT_FALSE(cursor.Next(&e));
}

TEST(PagerChecksumTest, CorruptionIsDetectedAndRepairable) {
  Pager pager;
  pager.SetRetryPolicy(RetryPolicy::None());
  char buf[kPageSize];
  std::memset(buf, 0x11, kPageSize);
  PageId p = pager.Append(buf);
  pager.CorruptForTest(p, 1234);
  char out[kPageSize];
  Status s = pager.Read(p, out);
  ASSERT_TRUE(s.IsDataLoss()) << s.ToString();
  EXPECT_GE(pager.checksum_failures(), 1u);
  // Re-recording the checksum (the repair seam) makes it readable again.
  pager.RepairForTest(p);
  EXPECT_TRUE(pager.Read(p, out).ok());
}

TEST(PagerChecksumTest, ChecksumValueTracksWrites) {
  Pager pager;
  char buf[kPageSize] = {};
  PageId zero = pager.Append(buf);
  std::memset(buf, 0x42, kPageSize);
  PageId p = pager.Append(buf);
  EXPECT_EQ(pager.PageChecksumValue(p), PageChecksum(buf, kPageSize));
  EXPECT_NE(pager.PageChecksumValue(p), pager.PageChecksumValue(zero));
}

TEST(PagerFailpointTest, InjectedCorruptionSurfacesAsDataLoss) {
  Pager pager;
  pager.SetRetryPolicy(RetryPolicy::None());
  char buf[kPageSize] = {};
  PageId p = pager.Append(buf);
  char out[kPageSize];
  failpoint::FailpointGuard guard("pager.read", "err");
  Status s = pager.Read(p, out);
  ASSERT_TRUE(s.IsDataLoss()) << s.ToString();
  EXPECT_GE(pager.checksum_failures(), 1u)
      << "the fault must be caught by the real checksum path";
}

TEST(PagerFailpointTest, TruncateFaultIsAlsoCaught) {
  Pager pager;
  pager.SetRetryPolicy(RetryPolicy::None());
  char buf[kPageSize];
  std::memset(buf, 0x33, kPageSize);
  PageId p = pager.Append(buf);
  char out[kPageSize];
  failpoint::FailpointGuard guard("pager.read", "trunc");
  Status s = pager.Read(p, out);
  ASSERT_TRUE(s.IsDataLoss()) << s.ToString();
}

TEST(PagerFailpointTest, RetryRecoversFromFlakyReads) {
  Pager pager;
  RetryPolicy policy;
  policy.max_attempts = 30;
  policy.initial_backoff = std::chrono::microseconds(1);
  policy.max_backoff = std::chrono::microseconds(10);
  pager.SetRetryPolicy(policy);
  char buf[kPageSize];
  std::memset(buf, 0x77, kPageSize);
  PageId p = pager.Append(buf);
  char out[kPageSize];
  // p=0.5 per attempt, 30 attempts: effectively always recovers.
  failpoint::FailpointGuard guard("pager.read", "err(0.5)");
  uint64_t reads_before = pager.disk_reads();
  ASSERT_TRUE(pager.Read(p, out).ok());
  EXPECT_EQ(std::memcmp(buf, out, kPageSize), 0)
      << "recovered read returns the true bytes";
  EXPECT_EQ(pager.disk_reads(), reads_before + 1)
      << "disk_reads counts calls, not attempts";
}

TEST(PostingTest, CursorLatchesFetchFailure) {
  Pager pager;
  pager.SetRetryPolicy(RetryPolicy::None());
  PostingWriter writer(&pager);
  for (uint32_t i = 0; i < 2 * kEntriesPerPage; ++i) {
    LabelEntry e;
    e.elem = i;
    e.start = 2 * i + 1;
    e.end = 2 * i + 2;
    writer.Append(e);
  }
  PostingMeta meta = writer.Finish();
  ASSERT_EQ(meta.num_pages(), 2u);
  pager.CorruptForTest(meta.pages[1], 99);

  ShardedBufferPool pool(&pager, 4, 1);
  PostingCursor cursor(&pool, &meta);
  LabelEntry e;
  uint32_t seen = 0;
  while (cursor.Next(&e)) ++seen;
  EXPECT_EQ(seen, kEntriesPerPage) << "first page scans fine";
  EXPECT_TRUE(cursor.status().IsDataLoss())
      << cursor.status().ToString();
  // The failure is latched: Next stays false, status stays put.
  EXPECT_FALSE(cursor.Next(&e));
  EXPECT_TRUE(cursor.status().IsDataLoss());

  Status read_status;
  auto all = ReadAll(&pool, meta, nullptr, &read_status);
  EXPECT_TRUE(read_status.IsDataLoss());
}

TEST(PostingTest, ContainmentHelper) {
  LabelEntry anc{0, 1, 100, 0, 0, 0};
  LabelEntry desc{1, 5, 50, 1, 0, 0};
  LabelEntry sibling{2, 101, 150, 0, 0, 0};
  EXPECT_TRUE(anc.Contains(desc));
  EXPECT_FALSE(desc.Contains(anc));
  EXPECT_FALSE(anc.Contains(sibling));
  EXPECT_FALSE(anc.Contains(anc));
}

}  // namespace
}  // namespace mctdb::storage

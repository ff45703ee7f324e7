#include "storage/sharded_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

namespace mctdb::storage {
namespace {

/// Fills `pager` with `n` pages where page i holds the byte (i & 0xFF).
std::vector<PageId> FillPager(Pager* pager, size_t n) {
  std::vector<PageId> ids;
  char buf[kPageSize];
  for (size_t i = 0; i < n; ++i) {
    std::memset(buf, int(i & 0xFF), kPageSize);
    ids.push_back(pager->Append(buf));
  }
  return ids;
}

TEST(ShardedPoolTest, HitAfterMissAndContent) {
  Pager pager;
  std::vector<PageId> ids = FillPager(&pager, 4);
  ShardedBufferPool pool(&pager, 8, 4);
  const char* frame = pool.Fetch(ids[2]);
  EXPECT_EQ(frame[0], 2);
  EXPECT_EQ(pool.misses(), 1u);
  pool.Unpin(ids[2]);
  const char* again = pool.Fetch(ids[2]);
  EXPECT_EQ(again[0], 2);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pager.disk_reads(), 1u) << "second fetch served from cache";
  pool.Unpin(ids[2]);
}

TEST(ShardedPoolTest, LruEviction) {
  // The exact victim on one shard: a store's own pool is one shard, and
  // the serial per-query page counters depend on which page it evicts.
  Pager pager;
  std::vector<PageId> ids = FillPager(&pager, 4);
  ShardedBufferPool pool(&pager, 2, 1);
  auto touch = [&pool](PageId id) {
    (void)pool.Fetch(id);  // warm the cache; frame not needed
    pool.Unpin(id);
  };
  touch(ids[0]);
  touch(ids[1]);
  touch(ids[0]);  // 0 is now most recent
  touch(ids[2]);  // evicts 1
  EXPECT_EQ(pool.resident(), 2u);
  pool.ResetStats();
  touch(ids[0]);
  EXPECT_EQ(pool.hits(), 1u) << "0 must have survived";
  touch(ids[1]);
  EXPECT_EQ(pool.misses(), 1u) << "1 must have been evicted";
}

TEST(ShardedPoolTest, CapacityOneThrashesDeterministically) {
  // Eviction boundary: with one frame, alternating between two pages
  // misses every time, and the accounting invariant still holds.
  Pager pager;
  std::vector<PageId> ids = FillPager(&pager, 2);
  ShardedBufferPool pool(&pager, 1, 1);
  for (int i = 0; i < 4; ++i) {
    for (PageId id : ids) {
      (void)pool.Fetch(id);  // warm the cache; frame not needed
      pool.Unpin(id);
    }
  }
  EXPECT_EQ(pool.misses(), 8u);
  EXPECT_EQ(pool.hits(), 0u);
  EXPECT_EQ(pool.resident(), 1u);
  EXPECT_EQ(pool.hits() + pool.misses(), 8u) << "every fetch accounted";
}

TEST(ShardedPoolTest, CapacityOnePoolStillServesEveryPage) {
  // The eviction boundary: a 1-page budget forces an eviction on every
  // distinct fetch (so the pool thrashes deterministically and never
  // hits), and the single shard must keep serving correct bytes.
  Pager pager;
  std::vector<PageId> ids = FillPager(&pager, 8);
  ShardedBufferPool pool(&pager, 1);
  EXPECT_EQ(pool.num_shards(), 1u) << "1-page budget collapses to 1 shard";
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < ids.size(); ++i) {
      const char* frame = pool.Fetch(ids[i]);
      ASSERT_EQ(frame[0], char(i));
      pool.Unpin(ids[i]);
      EXPECT_LE(pool.resident(), 1u);
    }
  }
  EXPECT_EQ(pool.hits(), 0u);
  EXPECT_EQ(pool.misses(), 3u * 8u) << "every fetch accounted";
}

TEST(ShardedPoolTest, CapacityEqualsWorkingSetNeverReEvicts) {
  // The other eviction boundary: with one shard and capacity == working
  // set, the warmup pass faults everything in and the steady state never
  // touches the pager again.
  Pager pager;
  std::vector<PageId> ids = FillPager(&pager, 16);
  ShardedBufferPool pool(&pager, 16, 1);
  for (PageId id : ids) {
    (void)pool.Fetch(id);  // warm the cache; frame not needed
    pool.Unpin(id);
  }
  EXPECT_EQ(pool.misses(), 16u);
  uint64_t reads_after_warmup = pager.disk_reads();
  for (int round = 0; round < 4; ++round) {
    for (PageId id : ids) {
      (void)pool.Fetch(id);  // warm the cache; frame not needed
      pool.Unpin(id);
    }
  }
  EXPECT_EQ(pool.hits(), 4u * 16u);
  EXPECT_EQ(pool.misses(), 16u);
  EXPECT_EQ(pager.disk_reads(), reads_after_warmup) << "fully cached";
}

TEST(ShardedPoolTest, ShardedWorkingSetStaysMostlyCached) {
  // Hash-sharding skews the 16-page working set across 4 x 4-page shards
  // (splitmix64 gives a 2/4/4/6 split), so the overflowing shard may keep
  // thrashing — but the rest of the budget must stay cached: per round at
  // most the overflowed remainder misses.
  Pager pager;
  std::vector<PageId> ids = FillPager(&pager, 16);
  ShardedBufferPool pool(&pager, 16, 4);
  for (int round = 0; round < 5; ++round) {
    for (PageId id : ids) {
      (void)pool.Fetch(id);  // warm the cache; frame not needed
      pool.Unpin(id);
    }
  }
  EXPECT_EQ(pool.hits() + pool.misses(), 5u * 16u);
  EXPECT_GE(pool.hits(), 5u * 16u / 2) << "majority of fetches cached";
  EXPECT_LE(pool.resident(), 16u);
}

TEST(ShardedPoolTest, PinnedFramesSurviveCapacityPressure) {
  Pager pager;
  std::vector<PageId> ids = FillPager(&pager, 6);
  ShardedBufferPool pool(&pager, 1);  // 1 shard, 1 page budget
  const char* pinned = pool.Fetch(ids[0]);
  // Faulting other pages through an over-committed shard must not move or
  // free the pinned frame.
  for (size_t i = 1; i < ids.size(); ++i) {
    const char* frame = pool.Fetch(ids[i]);
    ASSERT_EQ(frame[0], char(i));
    pool.Unpin(ids[i]);
  }
  EXPECT_EQ(pinned[0], 0);
  EXPECT_EQ(pinned[kPageSize - 1], 0);
  pool.Unpin(ids[0]);
}

TEST(ShardedPoolTest, PerShardStatsSumToTotals) {
  Pager pager;
  std::vector<PageId> ids = FillPager(&pager, 32);
  ShardedBufferPool pool(&pager, 16, 4);
  for (int round = 0; round < 2; ++round) {
    for (PageId id : ids) {
      (void)pool.Fetch(id);  // warm the cache; frame not needed
      pool.Unpin(id);
    }
  }
  uint64_t hit_sum = 0, miss_sum = 0;
  for (const auto& shard : pool.PerShard()) {
    hit_sum += shard.hits;
    miss_sum += shard.misses;
  }
  EXPECT_EQ(hit_sum, pool.hits());
  EXPECT_EQ(miss_sum, pool.misses());
  EXPECT_EQ(hit_sum + miss_sum, 2u * 32u);
}

TEST(ShardedPoolTest, MultiThreadedHammer) {
  // N threads x random fetches over M pages with an undersized budget:
  // every fetch must return the right bytes, and the global accounting
  // invariant hits + misses == total fetches must hold. Run under TSAN in
  // CI to certify the locking.
  constexpr size_t kPages = 64;
  constexpr size_t kThreads = 8;
  constexpr size_t kFetchesPerThread = 2000;
  Pager pager;
  std::vector<PageId> ids = FillPager(&pager, kPages);
  ShardedBufferPool pool(&pager, 16, 8);

  std::vector<std::thread> threads;
  std::atomic<size_t> wrong_bytes{0};
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(uint32_t(t) * 7919u + 1u);
      std::uniform_int_distribution<size_t> pick(0, kPages - 1);
      for (size_t i = 0; i < kFetchesPerThread; ++i) {
        size_t j = pick(rng);
        const char* frame = pool.Fetch(ids[j]);
        if (frame[0] != char(j) || frame[kPageSize - 1] != char(j)) {
          wrong_bytes.fetch_add(1);
        }
        pool.Unpin(ids[j]);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(wrong_bytes.load(), 0u);
  EXPECT_EQ(pool.hits() + pool.misses(), kThreads * kFetchesPerThread);
  EXPECT_LE(pool.resident(), 16u) << "no pins left, budget must hold";
}

TEST(ShardedPoolTest, TwoArgFetchReportsPerFetchOutcome) {
  // The attribution contract: the pool tells the CALLER whether each fetch
  // missed, so a query can charge its own I/O instead of diffing global
  // counters.
  Pager pager;
  std::vector<PageId> ids = FillPager(&pager, 2);
  ShardedBufferPool pool(&pager, 4, 1);
  bool miss = false;
  const char* frame = pool.Fetch(ids[0], &miss);
  EXPECT_TRUE(miss);
  EXPECT_EQ(frame[0], 0);
  pool.Unpin(ids[0]);
  frame = pool.Fetch(ids[0], &miss);
  EXPECT_FALSE(miss);
  EXPECT_EQ(frame[0], 0);
  pool.Unpin(ids[0]);
  (void)pool.Fetch(ids[1], &miss);
  EXPECT_TRUE(miss) << "a different page is its own miss";
  pool.Unpin(ids[1]);
}

TEST(ShardedPoolTest, SlowReadDoesNotSerializeHitsInSameShard) {
  // A miss's disk I/O runs with the shard lock RELEASED: while one thread
  // is stuck in a slow pager read of page A, a hit on already-resident
  // page B of the SAME shard must complete immediately.
  Pager pager;
  std::vector<PageId> ids = FillPager(&pager, 2);
  ShardedBufferPool pool(&pager, 4, 1);  // one shard: A and B share a mutex

  // Warm page B so the main thread's fetch below is a pure hit.
  (void)pool.Fetch(ids[1]);
  pool.Unpin(ids[1]);

  std::mutex mu;
  std::condition_variable cv;
  bool a_read_started = false;
  bool a_read_released = false;
  pager.SetReadHook([&](PageId id) {
    if (id != ids[0]) return;
    std::unique_lock<std::mutex> lock(mu);
    a_read_started = true;
    cv.notify_all();
    cv.wait(lock, [&] { return a_read_released; });
  });

  std::thread cold([&] {
    const char* frame = pool.Fetch(ids[0]);  // blocks inside the hook
    EXPECT_EQ(frame[0], 0);
    pool.Unpin(ids[0]);
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return a_read_started; });
  }

  // The cold thread is now parked inside Pager::Read. A hit on page B
  // must not wait for it; if Fetch held the shard lock across the read,
  // this fetch would deadlock (we only release the hook afterwards).
  const char* frame = pool.Fetch(ids[1]);
  EXPECT_EQ(frame[0], 1);
  pool.Unpin(ids[1]);
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_FALSE(a_read_released)
        << "the hit completed while the slow read was still in flight";
    a_read_released = true;
  }
  cv.notify_all();
  cold.join();
  pager.SetReadHook(nullptr);
}

TEST(ShardedPoolTest, ConcurrentFetchOfLoadingPageWaitsForBytes) {
  // Two threads miss-race on the same page: the second must wait for the
  // first thread's in-flight read (one disk read serves both) and then
  // see the page's actual bytes, never a zero-filled frame.
  Pager pager;
  std::vector<PageId> ids = FillPager(&pager, 1);
  ShardedBufferPool pool(&pager, 4, 1);

  std::mutex mu;
  std::condition_variable cv;
  bool read_started = false;
  bool read_released = false;
  pager.SetReadHook([&](PageId) {
    std::unique_lock<std::mutex> lock(mu);
    read_started = true;
    cv.notify_all();
    cv.wait(lock, [&] { return read_released; });
  });

  std::thread loader([&] {
    const char* frame = pool.Fetch(ids[0]);
    EXPECT_EQ(frame[0], 0);
    EXPECT_EQ(frame[kPageSize - 1], 0);
    pool.Unpin(ids[0]);
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return read_started; });
  }
  std::atomic<bool> waiter_done{false};
  std::thread waiter([&] {
    bool miss = true;
    const char* frame = pool.Fetch(ids[0], &miss);
    EXPECT_FALSE(miss) << "second fetcher rides the in-flight load";
    EXPECT_EQ(frame[0], 0);
    EXPECT_EQ(frame[kPageSize - 1], 0);
    pool.Unpin(ids[0]);
    waiter_done.store(true);
  });
  // Give the waiter a moment to reach the load_cv wait; it must NOT
  // finish while the bytes are still being read in.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(waiter_done.load());
  {
    std::lock_guard<std::mutex> lock(mu);
    read_released = true;
  }
  cv.notify_all();
  loader.join();
  waiter.join();
  EXPECT_EQ(pager.disk_reads(), 1u) << "one read served both fetchers";
  pager.SetReadHook(nullptr);
}

TEST(ShardedPoolTest, ConcurrentPagerCountersAreExact) {
  // The Pager's atomic I/O counters must not lose increments under
  // concurrent Read (the bug the seed had with `mutable uint64_t`).
  Pager pager;
  std::vector<PageId> ids = FillPager(&pager, 4);
  uint64_t before = pager.disk_reads();
  constexpr size_t kThreads = 8;
  constexpr size_t kReads = 500;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      char buf[kPageSize];
      for (size_t i = 0; i < kReads; ++i) {
        ASSERT_TRUE(pager.Read(ids[i % ids.size()], buf).ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(pager.disk_reads() - before, kThreads * kReads);
}

TEST(ShardedPoolQuarantineTest, FailedLoadReturnsDataLossAndQuarantines) {
  Pager pager;
  pager.SetRetryPolicy(RetryPolicy::None());
  std::vector<PageId> ids = FillPager(&pager, 4);
  pager.CorruptForTest(ids[1], 512);
  ShardedBufferPool pool(&pager, 8, 2);

  const char* frame = nullptr;
  bool miss = false;
  Status s = pool.Fetch(ids[1], &frame, &miss);
  ASSERT_TRUE(s.IsDataLoss()) << s.ToString();
  EXPECT_EQ(frame, nullptr);
  EXPECT_GE(pool.quarantined(), 1u);
  EXPECT_EQ(pool.resident(), 0u) << "no frame cached for a failed read";
  // The quarantined frame was evicted — nothing stale is resident, and
  // healthy pages keep serving.
  const char* ok_frame = pool.Fetch(ids[0]);
  EXPECT_EQ(ok_frame[0], 0);
  pool.Unpin(ids[0]);
}

TEST(ShardedPoolQuarantineTest, RepairThenRefetchRecovers) {
  Pager pager;
  pager.SetRetryPolicy(RetryPolicy::None());
  std::vector<PageId> ids = FillPager(&pager, 2);
  pager.CorruptForTest(ids[0], 8);
  ShardedBufferPool pool(&pager, 4, 1);

  const char* frame = nullptr;
  bool miss = false;
  ASSERT_TRUE(pool.Fetch(ids[0], &frame, &miss).IsDataLoss());
  EXPECT_EQ(pool.resident(), 0u);
  pager.RepairForTest(ids[0]);
  // No pool restart needed: the failed frame was erased, so the next
  // fetch re-reads the (now healthy) page.
  Status s = pool.Fetch(ids[0], &frame, &miss);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(miss);
  EXPECT_EQ(frame[0], 0);
  pool.Unpin(ids[0]);
}

TEST(ShardedPoolQuarantineTest, ConcurrentFetchersAllSeeTheFailure) {
  // Piggybacked waiters on a failing load must wake, observe the failure,
  // and return it — no hang, no crash, no half-initialized frame.
  Pager pager;
  pager.SetRetryPolicy(RetryPolicy::None());
  std::vector<PageId> ids = FillPager(&pager, 4);
  pager.CorruptForTest(ids[2], 100);
  ShardedBufferPool pool(&pager, 8, 2);

  constexpr int kThreads = 8;
  std::atomic<int> data_loss{0}, succeeded{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        const char* frame = nullptr;
        bool miss = false;
        Status s = pool.Fetch(ids[2], &frame, &miss);
        if (s.ok()) {
          succeeded.fetch_add(1);
          pool.Unpin(ids[2]);
        } else if (s.IsDataLoss()) {
          data_loss.fetch_add(1);
        } else {
          ADD_FAILURE() << "unexpected status " << s.ToString();
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(data_loss.load(), kThreads * 50);
  EXPECT_EQ(succeeded.load(), 0);
  EXPECT_GE(pool.quarantined(), 1u);

  // After repair every thread's next fetch succeeds.
  pager.RepairForTest(ids[2]);
  const char* frame = pool.Fetch(ids[2]);
  EXPECT_EQ(frame[0], 2);
  pool.Unpin(ids[2]);
}

TEST(ShardedPoolQuarantineTest, PoolRetriesOnceBeforeQuarantining) {
  // The pool's own second-chance re-read: a fault that clears between
  // attempts (here: repaired by a hook between reads) never surfaces.
  Pager pager;
  pager.SetRetryPolicy(RetryPolicy::None());
  std::vector<PageId> ids = FillPager(&pager, 1);
  pager.CorruptForTest(ids[0], 1);
  std::atomic<int> attempts{0};
  pager.SetReadHook([&](PageId id) {
    if (attempts.fetch_add(1) == 0) {
      // First attempt sees the corruption; heal before the re-read.
      // (Safe: the hook runs on the loading thread, outside pool locks,
      // and this test uses a single fetching thread.)
      return;
    }
    pager.RepairForTest(id);
  });

  ShardedBufferPool pool(&pager, 4, 1);
  const char* frame = nullptr;
  bool miss = false;
  Status s = pool.Fetch(ids[0], &frame, &miss);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(frame[0], 0);
  pool.Unpin(ids[0]);
}

}  // namespace
}  // namespace mctdb::storage

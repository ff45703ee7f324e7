// Ablation: storage-layer primitives — posting scan throughput through the
// buffer pool at different pool sizes (hit-ratio cliff), and the stack-tree
// structural join itself.
#include <benchmark/benchmark.h>

#include "bench/micro_util.h"

#include "query/structural_join.h"
#include "storage/pager.h"
#include "storage/posting.h"
#include "storage/sharded_pool.h"

namespace {

using namespace mctdb;
using namespace mctdb::storage;

struct PostingFixture {
  Pager pager;
  PostingMeta meta;

  explicit PostingFixture(size_t n) {
    PostingWriter writer(&pager);
    for (uint32_t i = 0; i < n; ++i) {
      LabelEntry e;
      e.elem = i;
      e.start = 2 * i + 1;
      e.end = 2 * i + 2;
      writer.Append(e);
    }
    meta = writer.Finish();
  }
};

void BM_PostingScan(benchmark::State& state) {
  static PostingFixture* fixture = new PostingFixture(500000);
  // Pool size in pages: small pools force re-faulting on every pass.
  ShardedBufferPool pool(&fixture->pager, size_t(state.range(0)),
                         /*num_shards=*/1);
  uint64_t sum = 0;
  for (auto _ : state) {
    PostingCursor cursor(&pool, &fixture->meta);
    LabelEntry e;
    while (cursor.Next(&e)) sum += e.start;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(fixture->meta.count));
  state.counters["hit_ratio"] =
      pool.hits() + pool.misses() == 0
          ? 0.0
          : double(pool.hits()) / double(pool.hits() + pool.misses());
}

void BM_StackTreeJoin(benchmark::State& state) {
  // One ancestor per 10 descendants, nested intervals.
  size_t n = size_t(state.range(0));
  std::vector<LabelEntry> anc, desc;
  for (uint32_t i = 0; i < n / 10; ++i) {
    LabelEntry a;
    a.elem = i;
    a.start = i * 30 + 1;
    a.end = i * 30 + 29;
    anc.push_back(a);
    for (uint32_t j = 0; j < 10; ++j) {
      LabelEntry d;
      d.elem = 1000000 + i * 10 + j;
      d.start = i * 30 + 2 + 2 * j;
      d.end = i * 30 + 3 + 2 * j;
      d.level = 1;
      desc.push_back(d);
    }
  }
  uint64_t pairs = 0;
  for (auto _ : state) {
    auto r = query::StackTreeJoin(anc, desc);
    pairs = r.pairs;
    benchmark::DoNotOptimize(pairs);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(n));
  state.counters["pairs"] = double(pairs);
}

}  // namespace

// Pool sizes: 16 pages (thrash) to 4096 pages (fully resident: 500k entries
// / 409 per page ~ 1223 pages).
BENCHMARK(BM_PostingScan)->Arg(16)->Arg(256)->Arg(2048)->Arg(4096);
BENCHMARK(BM_StackTreeJoin)->Arg(1000)->Arg(100000)->Arg(1000000);

MCTDB_MICRO_BENCH_MAIN();

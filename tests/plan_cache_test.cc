// PlanCache unit tests: lookup outcomes, the generation guard, LRU
// eviction, and shared_ptr pinning semantics.
#include "service/plan_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

namespace mctsvc {
namespace {

std::shared_ptr<CachedPlan> Entry(uint64_t generation,
                                  std::string name = "") {
  auto e = std::make_shared<CachedPlan>();
  e->generation = generation;
  e->query.name = std::move(name);
  return e;
}

TEST(PlanCacheTest, LookupOutcomesHitMissInvalidated) {
  PlanCache cache(4);
  LookupOutcome outcome;
  EXPECT_EQ(cache.Lookup("k", &outcome), nullptr);
  EXPECT_EQ(outcome, LookupOutcome::kMiss);

  cache.Insert("k", Entry(cache.generation(), "Q1"));
  auto hit = cache.Lookup("k", &outcome);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(outcome, LookupOutcome::kHit);
  EXPECT_EQ(hit->query.name, "Q1");

  // A checkpoint ran: the entry is stale, dropped on lookup, and the slot
  // is a clean miss afterwards.
  cache.BumpGeneration();
  EXPECT_EQ(cache.Lookup("k", &outcome), nullptr);
  EXPECT_EQ(outcome, LookupOutcome::kInvalidated);
  EXPECT_EQ(cache.Lookup("k", &outcome), nullptr);
  EXPECT_EQ(outcome, LookupOutcome::kMiss);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PlanCacheTest, GenerationBumpInvalidatesEverything) {
  PlanCache cache(4);
  cache.Insert("a", Entry(cache.generation()));
  cache.Insert("b", Entry(cache.generation()));
  ASSERT_EQ(cache.size(), 2u);

  cache.BumpGeneration();  // a checkpoint ran

  LookupOutcome outcome;
  EXPECT_EQ(cache.Lookup("a", &outcome), nullptr);
  EXPECT_EQ(outcome, LookupOutcome::kInvalidated);
  EXPECT_EQ(cache.Lookup("b", &outcome), nullptr);
  EXPECT_EQ(outcome, LookupOutcome::kInvalidated);
  EXPECT_EQ(cache.size(), 0u);

  // Entries built under the NEW generation hit again.
  cache.Insert("a", Entry(cache.generation()));
  EXPECT_NE(cache.Lookup("a", &outcome), nullptr);
  EXPECT_EQ(outcome, LookupOutcome::kHit);
}

TEST(PlanCacheTest, LruEvictsTheColdestEntry) {
  PlanCache cache(2);
  cache.Insert("a", Entry(cache.generation()));
  cache.Insert("b", Entry(cache.generation()));
  LookupOutcome outcome;
  // Touch "a" so "b" is now the coldest.
  ASSERT_NE(cache.Lookup("a", &outcome), nullptr);
  cache.Insert("c", Entry(cache.generation()));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.Lookup("a", &outcome), nullptr);
  EXPECT_NE(cache.Lookup("c", &outcome), nullptr);
  EXPECT_EQ(cache.Lookup("b", &outcome), nullptr);
  EXPECT_EQ(outcome, LookupOutcome::kMiss);
}

TEST(PlanCacheTest, ReplacingAKeyKeepsCapacityAccounting) {
  PlanCache cache(2);
  cache.Insert("a", Entry(cache.generation(), "first"));
  cache.Insert("a", Entry(cache.generation(), "second"));
  EXPECT_EQ(cache.size(), 1u);
  LookupOutcome outcome;
  auto got = cache.Lookup("a", &outcome);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->query.name, "second");
}

TEST(PlanCacheTest, ZeroCapacityDisablesCaching) {
  PlanCache cache(0);
  cache.Insert("a", Entry(cache.generation()));
  EXPECT_EQ(cache.size(), 0u);
  LookupOutcome outcome;
  EXPECT_EQ(cache.Lookup("a", &outcome), nullptr);
  EXPECT_EQ(outcome, LookupOutcome::kMiss);
}

TEST(PlanCacheTest, EvictionCannotDangleAHeldEntry) {
  PlanCache cache(1);
  cache.Insert("a", Entry(cache.generation(), "held"));
  LookupOutcome outcome;
  std::shared_ptr<const CachedPlan> held = cache.Lookup("a", &outcome);
  ASSERT_NE(held, nullptr);
  cache.Insert("b", Entry(cache.generation()));  // evicts "a"
  EXPECT_EQ(cache.Lookup("a", &outcome), nullptr);
  // The holder keeps the evicted entry alive — this is what lets a queued
  // task keep pointing into a cached plan across evictions.
  EXPECT_EQ(held->query.name, "held");
}

}  // namespace
}  // namespace mctsvc

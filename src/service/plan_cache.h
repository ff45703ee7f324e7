// PlanCache: one store's LRU cache of compiled query plans.
//
// Planning a query — path recovery per schema, color selection, static
// analysis — is pure CPU repeated verbatim for every resubmission of the
// same query text. A plan is a function of (query, schema) alone and reads
// no store state, and the service keeps one cache per store, whose schema
// never changes, so the canonical query text is the whole key. Every entry
// pins the whole chain a QueryPlan points into (the query copy AND the
// plan) in one heap-allocated CachedPlan, shared_ptr-held by the cache and
// by every in-flight task using it — eviction can never dangle a running
// query.
//
// Commits do not invalidate an entry: a read sees committed rows through
// the snapshot the worker pins at dequeue, not through its plan. A
// checkpoint bumps the generation, and the next lookup of an entry built
// under an older generation reports kInvalidated and drops it, so the
// caller re-plans once; generation() thereby counts attempted checkpoints.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/ordered_mutex.h"
#include "query/plan.h"
#include "query/query_spec.h"

namespace mctsvc {

/// One cached compilation: the query copy, the verified plan compiled from
/// it (plan.query points at the `query` member, plan.statically_empty /
/// analysis_codes carry the QRY verdict), and the cache generation it was
/// built under.
struct CachedPlan {
  mctdb::query::AssociationQuery query;
  mctdb::query::QueryPlan plan;
  /// PlanCache generation at build time (bumped by checkpoints).
  uint64_t generation = 0;
};

enum class LookupOutcome {
  kHit,          ///< fresh entry returned
  kMiss,         ///< no entry under the key
  kInvalidated,  ///< entry existed but predates the current generation
};

class PlanCache {
 public:
  explicit PlanCache(size_t capacity) : capacity_(capacity) {}

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the entry under `query_text` (query::CanonicalQueryText) iff
  /// it was built under the current generation; an older entry is erased
  /// and reported as kInvalidated. The returned pointer (kHit only) stays
  /// valid for as long as the caller holds it, regardless of eviction.
  std::shared_ptr<const CachedPlan> Lookup(const std::string& query_text,
                                           LookupOutcome* outcome);

  /// Installs (or replaces) the entry under `query_text`, evicting the
  /// least recently used entry past capacity. A capacity of 0 disables
  /// caching.
  void Insert(const std::string& query_text,
              std::shared_ptr<const CachedPlan> entry);

  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }
  /// Makes every cached plan re-plan once (lazily, at its next lookup).
  /// Called at every attempted checkpoint.
  void BumpGeneration() {
    generation_.fetch_add(1, std::memory_order_acq_rel);
  }

  size_t size() const;

 private:
  struct Slot {
    std::shared_ptr<const CachedPlan> entry;
    std::list<std::string>::iterator lru_it;
  };

  const size_t capacity_;
  std::atomic<uint64_t> generation_{0};
  mutable mctdb::OrderedMutex mu_{mctdb::LockRank::kPlanCache};
  std::list<std::string> lru_;  ///< most recently used first
  std::unordered_map<std::string, Slot> map_;
};

}  // namespace mctsvc

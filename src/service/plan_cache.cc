#include "service/plan_cache.h"

namespace mctsvc {

std::shared_ptr<const CachedPlan> PlanCache::Lookup(
    const std::string& query_text, LookupOutcome* outcome) {
  std::lock_guard<mctdb::OrderedMutex> lock(mu_);
  auto it = map_.find(query_text);
  if (it == map_.end()) {
    *outcome = LookupOutcome::kMiss;
    return nullptr;
  }
  const std::shared_ptr<const CachedPlan>& entry = it->second.entry;
  if (entry->generation != generation_.load(std::memory_order_acquire)) {
    // A checkpoint ran since the plan was built: drop the entry so the
    // caller re-plans.
    lru_.erase(it->second.lru_it);
    map_.erase(it);
    *outcome = LookupOutcome::kInvalidated;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  *outcome = LookupOutcome::kHit;
  return entry;
}

void PlanCache::Insert(const std::string& query_text,
                       std::shared_ptr<const CachedPlan> entry) {
  if (capacity_ == 0) return;
  std::lock_guard<mctdb::OrderedMutex> lock(mu_);
  auto it = map_.find(query_text);
  if (it != map_.end()) {
    it->second.entry = std::move(entry);
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return;
  }
  lru_.push_front(query_text);
  map_.emplace(query_text, Slot{std::move(entry), lru_.begin()});
  while (map_.size() > capacity_) {
    map_.erase(lru_.back());
    lru_.pop_back();
  }
}

size_t PlanCache::size() const {
  std::lock_guard<mctdb::OrderedMutex> lock(mu_);
  return map_.size();
}

}  // namespace mctsvc

#include "wal/maintenance.h"

#include <algorithm>

#include "obs/flight_recorder.h"
#include "obs/trace_id.h"

namespace mctdb::wal {

namespace flight = obs::flight;

const char* ToString(CheckpointReason r) {
  switch (r) {
    case CheckpointReason::kManual: return "manual";
    case CheckpointReason::kWalSize: return "wal_size";
    case CheckpointReason::kWalRecords: return "wal_records";
    case CheckpointReason::kElapsed: return "elapsed";
    case CheckpointReason::kGapPressure: return "gap_pressure";
  }
  return "?";
}

MaintenanceManager::MaintenanceManager(DurableStore* store,
                                       const MaintenanceOptions& options,
                                       Callback on_checkpoint)
    : store_(store),
      options_(options),
      on_checkpoint_(std::move(on_checkpoint)) {}

MaintenanceManager::~MaintenanceManager() {
  Stop();
  store_->AttachMaintenance(nullptr);
}

void MaintenanceManager::Start() {
  std::lock_guard lk(mu_);
  if (thread_.joinable()) return;
  stop_ = false;
  store_->AttachMaintenance(this);
  running_.store(true, std::memory_order_relaxed);
  appends_at_last_checkpoint_ = store_->wal_appends();
  thread_ = std::thread([this] { Loop(); });
}

void MaintenanceManager::Stop() {
  {
    std::lock_guard lk(mu_);
    if (!thread_.joinable()) return;
    stop_ = true;
    // A stop counts as an epoch for stalled writers: they wake, see
    // running() false, and surface ResourceExhausted instead of blocking
    // out their full deadline on a dead manager.
    cv_.notify_all();
  }
  thread_.join();
  running_.store(false, std::memory_order_relaxed);
}

uint64_t MaintenanceManager::checkpoints_total() const {
  uint64_t total = 0;
  for (const auto& c : by_reason_) {
    total += c.load(std::memory_order_relaxed);
  }
  return total;
}

std::string MaintenanceManager::last_error() const {
  std::lock_guard lk(mu_);
  return last_error_;
}

bool MaintenanceManager::StallForRebalance(
    std::chrono::steady_clock::time_point deadline) {
  std::unique_lock lk(mu_);
  const uint64_t start_epoch = rebalance_epoch_;
  urgent_ = true;
  cv_.notify_all();
  while (rebalance_epoch_ == start_epoch) {
    if (stop_ || !running_.load(std::memory_order_relaxed)) return false;
    if (cv_.wait_until(lk, deadline) == std::cv_status::timeout) {
      return rebalance_epoch_ != start_epoch;
    }
  }
  return true;
}

Status MaintenanceManager::RunCheckpoint(CheckpointReason reason) {
  flight::Record(flight::Subsystem::kCheckpoint,
                 flight::Site::kMaintenanceTrigger, obs::CurrentTraceId(),
                 static_cast<uint64_t>(reason));
  Result<CheckpointStats> r = store_->Checkpoint(CheckpointMode::kRebaseLive);
  Event event;
  event.reason = reason;
  event.status = r.ok() ? Status::OK() : r.status();
  if (r.ok()) {
    event.stats = r.value();
    by_reason_[static_cast<size_t>(reason)].fetch_add(
        1, std::memory_order_relaxed);
    appends_at_last_checkpoint_ = store_->wal_appends();
  }
  {
    std::lock_guard lk(mu_);
    // The epoch advances even on failure: a stalled writer retries, fails
    // the same way, and burns its bounded budget instead of sleeping it.
    ++rebalance_epoch_;
    last_error_ = r.ok() ? std::string() : r.status().message();
    cv_.notify_all();
  }
  if (on_checkpoint_) on_checkpoint_(event);
  return r.ok() ? Status::OK() : r.status();
}

void MaintenanceManager::Loop() {
  using clock = std::chrono::steady_clock;
  const auto poll = std::chrono::duration_cast<clock::duration>(
      std::chrono::duration<double>(std::max(options_.poll_seconds, 1e-3)));
  auto last_checkpoint = clock::now();
  // Far enough in the past that the first read-only cycle probes at once.
  auto last_reprobe = clock::now() - std::chrono::hours(1);
  std::unique_lock lk(mu_);
  while (!stop_) {
    cv_.wait_for(lk, poll, [this] { return stop_ || urgent_; });
    if (stop_) break;
    const bool urgent = urgent_;
    urgent_ = false;
    lk.unlock();
    // Each cycle is its own trace: background work has no ambient
    // ScopedTraceId, so flight events and the service's generation bump
    // would otherwise all land on trace 0.
    obs::ScopedTraceId trace(obs::MintTraceId());
    const auto now = clock::now();
    if (store_->read_only()) {
      // Don't checkpoint against a full disk; probe it on the timer.
      const auto reprobe_every =
          std::chrono::duration_cast<clock::duration>(
              std::chrono::duration<double>(options_.reprobe_seconds));
      if (now - last_reprobe >= reprobe_every) {
        last_reprobe = now;
        Status probed = store_->TryExitReadOnly();
        std::lock_guard elk(mu_);
        last_error_ = probed.ok() ? std::string() : probed.message();
        // Counted once its outcome is recorded: a caller that sees the
        // count and then takes mu_ reads this probe's last_error().
        reprobes_.fetch_add(1, std::memory_order_relaxed);
        if (urgent) {
          // A writer stalled against a read-only store: wake it either
          // way — retrying against a still-degraded store fails fast
          // with Unavailable rather than ResourceExhausted.
          ++rebalance_epoch_;
          cv_.notify_all();
        }
      } else if (urgent) {
        std::lock_guard elk(mu_);
        ++rebalance_epoch_;
        cv_.notify_all();
      }
      lk.lock();
      continue;
    }
    CheckpointReason reason{};
    bool fire = false;
    const uint64_t appends_since =
        store_->wal_appends() - appends_at_last_checkpoint_;
    if (urgent) {
      reason = CheckpointReason::kGapPressure;
      fire = true;
    } else if (options_.gap_pressure_min_free > 0 &&
               store_->min_free_gap_low_water() <=
                   options_.gap_pressure_min_free) {
      reason = CheckpointReason::kGapPressure;
      fire = true;
    } else if (options_.wal_bytes_threshold > 0 &&
               store_->wal_bytes() >= options_.wal_bytes_threshold) {
      reason = CheckpointReason::kWalSize;
      fire = true;
    } else if (options_.wal_records_threshold > 0 &&
               appends_since >= options_.wal_records_threshold) {
      reason = CheckpointReason::kWalRecords;
      fire = true;
    } else if (options_.interval_seconds > 0 && appends_since > 0 &&
               now - last_checkpoint >=
                   std::chrono::duration_cast<clock::duration>(
                       std::chrono::duration<double>(
                           options_.interval_seconds))) {
      reason = CheckpointReason::kElapsed;
      fire = true;
    }
    if (fire) {
      (void)RunCheckpoint(reason);
      last_checkpoint = clock::now();
    }
    lk.lock();
  }
}

}  // namespace mctdb::wal

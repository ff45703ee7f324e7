// Flight recorder: a lock-free, per-thread ring buffer of fixed-size
// binary events — the black box that survives a crash (DESIGN.md §16).
//
// Every instrumented site calls Record(subsystem, site, trace_id, arg):
// one relaxed atomic load when the recorder is disabled, and when enabled
// four relaxed stores plus one release store into the calling thread's
// private ring. There are no locks anywhere on the record path, so it is
// safe from any thread at any time, including inside WAL group commit and
// buffer-pool eviction.
//
// Rings are claimed one per thread (lazily, on first Record) from a fixed
// global registry and are never freed: a thread that exits leaves its
// events behind for the post-mortem, which is the point. The dumper walks
// the registry with acquire loads only — no allocation, no locks, no
// formatting — which makes DumpToFd() async-signal-safe and lets the
// crash handler write the last-N-events-per-thread to disk from inside
// SIGABRT/SIGSEGV before the process dies.
//
// TSAN-cleanliness: every slot word is a std::atomic<uint64_t>. A dumper
// racing a wrapped writer can observe a logically torn event (words from
// two different events in one slot); each slot's packed word carries the
// event's sequence number, so the decoder drops slots whose sequence
// disagrees with their position instead of emitting garbage.
//
// Dump triggers:
//   * on demand             DumpToFile / DumpToConfiguredPath
//   * on fatal signal       InstallCrashHandler (write()-only path)
//   * on Status escalation  first DataLoss/Unavailable after Enable()
//                           (one-shot; see SetDumpPath)
// `mctc blackbox <dump>` decodes a dump to text or JSON; /flightz serves
// a live Snapshot() of the rings.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace mctdb::obs::flight {

/// Which layer recorded the event. Fits in 8 bits on the wire.
enum class Subsystem : uint8_t {
  kService = 0,  ///< admission, shedding, breaker, deadlines
  kPlanCache,    ///< lookup outcomes and generation bumps
  kExec,         ///< executor stage spans (begin/end)
  kWal,          ///< append, group-commit fsync
  kCheckpoint,   ///< checkpoint begin/end
  kPool,         ///< buffer-pool eviction / quarantine
  kFailpoint,    ///< armed fault-injection site fired
  kStatus,       ///< Status escalated to DataLoss/Unavailable
};
inline constexpr size_t kNumSubsystems = 8;

/// What happened. The `arg` column's meaning is per-site (catalog in
/// DESIGN.md §16): LSNs for WAL sites, page ids for pool sites, StageKind
/// (low byte) for span sites, generation for plan-cache sites.
enum class Site : uint8_t {
  kAdmit = 0,             ///< arg: in-flight count after admission
  kShed,                  ///< arg: in-flight count at the shed decision
  kReject,                ///< arg: in-flight count at the hard limit
  kBreakerReject,         ///< arg: 0
  kDeadline,              ///< arg: 0 (cancelled at dequeue)
  kSpanBegin,             ///< arg: StageKind
  kSpanEnd,               ///< arg: StageKind | elapsed_us << 8
  kPlanCacheHit,          ///< arg: cache generation the entry matched
  kPlanCacheMiss,         ///< arg: cache generation planned under
  kPlanCacheInvalidated,  ///< arg: cache generation that evicted the entry
  kGenerationBump,        ///< arg: the new generation
  kWalAppend,             ///< arg: assigned LSN
  kWalFsync,              ///< arg: batch-end LSN the fsync made durable
  kCheckpointBegin,       ///< arg: last applied LSN at entry
  kCheckpointEnd,         ///< arg: checkpoint LSN
  kEvict,                 ///< arg: evicted page id
  kQuarantine,            ///< arg: quarantined page id
  kFailpointHit,          ///< arg: first 8 bytes of the site name
  kEscalation,            ///< arg: Status::Code value
  kMaintenanceTrigger,    ///< arg: CheckpointReason value
  kWriteStall,            ///< arg: stall count for the store so far
  kReadOnlyEnter,         ///< arg: errno that degraded the WAL
  kReadOnlyExit,          ///< arg: durable LSN after the re-probe
};
inline constexpr size_t kNumSites = 23;

const char* ToString(Subsystem s);
const char* ToString(Site s);

namespace internal {
extern std::atomic<bool> g_enabled;
void RecordSlow(Subsystem subsystem, Site site, uint64_t trace_id,
                uint64_t arg);
}  // namespace internal

/// True once Enable() ran (and Disable() has not).
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

/// Turns the recorder on with `events_per_thread` ring slots per thread
/// (0 = keep the current/default sizing, 1024 events = 32 KiB). Also
/// installs the failpoint-hit and Status-escalation observers. Idempotent;
/// the sizing only applies to rings claimed after the call.
void Enable(size_t events_per_thread = 0);

/// Stops recording (rings and their contents stay readable). For tests.
void Disable();

/// Records one event into the calling thread's ring. One relaxed load
/// when the recorder is off.
inline void Record(Subsystem subsystem, Site site, uint64_t trace_id,
                   uint64_t arg) {
  if (!internal::g_enabled.load(std::memory_order_relaxed)) return;
  internal::RecordSlow(subsystem, site, trace_id, arg);
}

/// Configures the dump destination used by the crash handler and the
/// Status-escalation one-shot. The path is copied into a fixed buffer
/// (truncated past ~255 bytes) so the signal path never allocates.
void SetDumpPath(const char* path);
const char* DumpPath();  // "" when unset

/// Writes the binary dump to `fd`. Async-signal-safe: atomic loads, stack
/// buffers, and write() only. Returns false on a write error.
bool DumpToFd(int fd);

/// Opens/truncates `path` and writes the binary dump.
Status DumpToFile(const char* path);

/// DumpToFile(DumpPath()); InvalidArgument when no path is configured.
Status DumpToConfiguredPath();

/// Installs the fatal-signal dump handler (SIGABRT, SIGSEGV, SIGBUS,
/// SIGILL, SIGFPE): writes the dump to DumpPath(), then re-raises so the
/// process still dies by the original signal (CI exit-code assertions
/// keep working). No-op handler when DumpPath() is empty.
void InstallCrashHandler();

/// One decoded event. `thread_index` is the ring's registry slot (stable
/// per thread for the process lifetime); `seq` orders events within one
/// thread even when timestamps collide.
struct Event {
  uint64_t nanos = 0;  ///< CLOCK_MONOTONIC at Record time
  uint64_t trace_id = 0;
  uint64_t arg = 0;
  uint64_t seq = 0;
  uint32_t thread_index = 0;
  Subsystem subsystem = Subsystem::kService;
  Site site = Site::kAdmit;
};

/// Decodes a binary dump (as produced by DumpToFd). Torn slots are
/// dropped; a bad magic or truncated header is an error.
Result<std::vector<Event>> Decode(const std::string& bytes);
Result<std::vector<Event>> DecodeFile(const std::string& path);

/// Live snapshot of every ring, for /flightz. Same torn-slot filtering as
/// Decode.
std::vector<Event> Snapshot();

/// Renderers sort by (nanos, thread_index, seq). Text is one event per
/// line; JSON is {"events":[{...},...]}. `trace_filter` != 0 keeps only
/// that trace's events.
std::string RenderText(const std::vector<Event>& events,
                       uint64_t trace_filter = 0);
std::string RenderJson(const std::vector<Event>& events,
                       uint64_t trace_filter = 0);

/// Test hook: drops every ring's contents (the rings themselves survive)
/// and re-arms the escalation one-shot.
void ResetForTest();

}  // namespace mctdb::obs::flight

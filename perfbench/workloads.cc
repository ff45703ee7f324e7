// The three perfbench workloads.
//
// All of them serve reads the same way: eight clients each keep one
// request outstanding (eight in flight in all) against a
// mctsvc::QueryService with three workers. A reading client picks one of
// the seven schemas and one of the nine read figure queries uniformly from
// its own seeded generator, submits through its own session on that store,
// and waits on the future; latency runs from the submit call to the
// future's value. In mixed, one of the eight clients writes instead: it
// picks a store the same way and submits that store's next update. Each
// store has one update session and a cursor into its own op stream (see
// UpdateStreams), so every store applies a prefix of its stream in order.
// A writer blocked behind a background checkpoint holds only its own slot,
// so the read traffic around it keeps its shape.
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <thread>
#include <tuple>

#include <unistd.h>

#include "query/update_exec.h"
#include "service/query_service.h"
#include "spans.h"
#include "workload/update_gen.h"
#include "workloads.h"

namespace perfbench {

namespace {

using mctdb::Status;
using mctdb::query::ExecResult;
using mctdb::storage::UpdateOp;
using mctsvc::QueryService;

/// TPC-W scale of build and read_cold: 1.29 M stored elements, 215-1431
/// posting pages per store.
constexpr double kScale = 3.0;
/// mixed runs at scale 1. A checkpoint rewrites a whole store (0.5-1.5 s
/// per store at scale 3), and several checkpoints per store and run at
/// scale 3 left the writer stalled most of the time.
constexpr double kMixedScale = 1.0;
constexpr size_t kClients = 8;
constexpr size_t kWorkers = 3;
/// Set-ups per serving run; setup_s and the build metrics are medians.
constexpr int kSetups = 2;
/// Unrecorded traffic before the measured phase, so pools fill first.
constexpr double kWarmupSeconds = 1.0;
/// Read traffic over the reloaded images after each build of `build`.
constexpr double kBuildReadSeconds = 8.0;
/// Blocks in each store's update stream; far more than one run commits.
constexpr size_t kUpdateBlocks = 1500;
/// Ops asked of GenerateUpdateOps for the inserts and renames the update
/// streams repeat.
constexpr size_t kRoundOps = 64;
/// Ops in one block of an update stream (see UpdateStreams).
constexpr size_t kBlockOps = 6;
/// Interval-label gap of mixed's stores. At the default of 16 the
/// gap-pressure trigger fired about once per insert on SHALLOW and writers
/// stalled past their budget; at 48 it does not fire.
constexpr uint32_t kMixedLabelStride = 48;
/// Durable-log size that triggers a background checkpoint.
constexpr uint64_t kCheckpointWalBytes = 6 << 10;

struct ServeConfig {
  size_t pool_pages = 2048;
  /// Interval-label gap of the stores (StoreOptions::label_stride).
  uint32_t label_stride = mctdb::storage::StoreOptions().label_stride;
  /// How many of the clients submit updates instead of reads (mixed).
  size_t writers = 0;
};

constexpr uint32_t kNoWindow = UINT32_MAX;

struct Cursor {
  std::mutex mu;
  size_t next = 0;  // guarded by mu
};

/// The update kinds, U1-U3, in the order of UpdateOp::Kind.
constexpr const char* kKindNames[] = {"insert", "delete", "rename"};

size_t KindIndex(UpdateOp::Kind kind) {
  switch (kind) {
    case UpdateOp::Kind::kInsertSubtree: return 0;
    case UpdateOp::Kind::kDeleteSubtree: return 1;
    case UpdateOp::Kind::kRenameValue: return 2;
  }
  return 2;
}

/// What the clients saw during one or more phases.
struct ClientOut {
  Report report;
  std::vector<double> query_lat, update_lat, fsync_s;
  /// Per read and per update, the one-second window it completed in
  /// (counted across the phases merged so far), or kNoWindow past a
  /// phase's last full second.
  std::vector<uint32_t> query_window, update_window;
  uint32_t windows = 0;
  ReadCounters reads;
  StageTotals stages;
  uint64_t wal_appends = 0, wal_fsyncs = 0;
  /// Acknowledged updates by kind (KindIndex).
  uint64_t committed[3] = {};
  /// (store, op index) of acknowledged and of failed updates.
  std::vector<std::pair<size_t, size_t>> acked, failed_updates;

  void Merge(const ClientOut& o) {
    report.Merge(o.report);
    query_lat.insert(query_lat.end(), o.query_lat.begin(), o.query_lat.end());
    update_lat.insert(update_lat.end(), o.update_lat.begin(),
                      o.update_lat.end());
    for (uint32_t w : o.query_window) {
      query_window.push_back(w == kNoWindow ? kNoWindow : windows + w);
    }
    for (uint32_t w : o.update_window) {
      update_window.push_back(w == kNoWindow ? kNoWindow : windows + w);
    }
    fsync_s.insert(fsync_s.end(), o.fsync_s.begin(), o.fsync_s.end());
    reads.Merge(o.reads);
    stages.Merge(o.stages);
    wal_appends += o.wal_appends;
    wal_fsyncs += o.wal_fsyncs;
    for (size_t k = 0; k < 3; ++k) committed[k] += o.committed[k];
    acked.insert(acked.end(), o.acked.begin(), o.acked.end());
    failed_updates.insert(failed_updates.end(), o.failed_updates.begin(),
                          o.failed_updates.end());
    windows += o.windows;
  }
};

/// The service counters the serve metrics read. They are cumulative, so a
/// phase's share is the difference of captures taken around it.
struct ServiceCounters {
  uint64_t queue_wait[mctsvc::LatencyHistogram::kBuckets] = {};
  uint64_t plan_hits = 0, plan_misses = 0, sheds = 0, rejected = 0,
           failed = 0;

  static ServiceCounters Of(const mctsvc::ServiceMetrics& m) {
    ServiceCounters c;
    for (size_t i = 0; i < mctsvc::LatencyHistogram::kBuckets; ++i) {
      c.queue_wait[i] = m.queue_wait_seconds.bucket(i);
    }
    c.plan_hits = m.plan_cache_hits.load();
    c.plan_misses = m.plan_cache_misses.load();
    c.sheds = m.sheds.load();
    c.rejected = m.rejected.load();
    c.failed = m.failed.load();
    return c;
  }

  /// Adds what happened between captures `start` and `end`.
  void AddDelta(const ServiceCounters& start, const ServiceCounters& end) {
    for (size_t i = 0; i < mctsvc::LatencyHistogram::kBuckets; ++i) {
      queue_wait[i] += end.queue_wait[i] - start.queue_wait[i];
    }
    plan_hits += end.plan_hits - start.plan_hits;
    plan_misses += end.plan_misses - start.plan_misses;
    sheds += end.sheds - start.sheds;
    rejected += end.rejected - start.rejected;
    failed += end.failed - start.failed;
  }
};

/// Moves an inserted subtree's logical ids up by `shift` and gives its
/// values a per-round suffix, so a repeated insert adds new instances.
void ShiftSubtree(uint32_t shift, const std::string& suffix,
                  mctdb::storage::SubtreeSpec* spec) {
  spec->logical += shift;
  for (auto& attr : spec->attrs) attr.value += suffix;
  for (auto& child : spec->children) ShiftSubtree(shift, suffix, &child);
}

/// A U2 op deleting instance `logical` of `type`.
UpdateOp DeleteOp(mctdb::er::NodeId type, uint32_t logical) {
  UpdateOp op;
  op.kind = UpdateOp::Kind::kDeleteSubtree;
  op.target_type = type;
  op.target_logical = logical;
  return op;
}

/// The update streams of mixed, one per store, `blocks` blocks each.
///
/// GenerateUpdateOps admits an op only if every schema it is given can
/// apply it, and no TPC-W insert passes all seven schemas; it also puts
/// every insert first and every delete last. So each store gets a stream of
/// its own, in blocks of kBlockOps: an insert generated for the store's
/// schema alone, a rename, the delete of the inserted child, a rename, the
/// delete of the inserted relationship instance, a rename. Inserts repeat
/// with fresh logical ids and values, under another parent instance each
/// round. The renames, generated for all seven schemas, are the same in
/// every stream, and a block leaves no inserted instance behind, so at a
/// block boundary every store holds the same logical content. A schema
/// that admits no insert (UNDR) applies each of the block's renames twice
/// instead.
std::vector<std::vector<UpdateOp>> UpdateStreams(const Stores& stores,
                                                 size_t blocks) {
  mctdb::workload::UpdateGenOptions gen;
  gen.num_ops = kRoundOps;
  std::vector<UpdateOp> renames;
  for (UpdateOp& op : mctdb::workload::GenerateUpdateOps(
           stores.schemas, *stores.logical, gen)) {
    if (op.kind == UpdateOp::Kind::kRenameValue) {
      renames.push_back(std::move(op));
    }
  }
  std::vector<std::vector<UpdateOp>> streams(stores.schemas.size());
  if (renames.empty()) return streams;
  for (size_t s = 0; s < streams.size(); ++s) {
    std::vector<UpdateOp> inserts;
    uint32_t top_id = gen.logical_id_base;
    for (UpdateOp& op : mctdb::workload::GenerateUpdateOps(
             {stores.schemas[s]}, *stores.logical, gen)) {
      if (op.kind != UpdateOp::Kind::kInsertSubtree) continue;
      top_id = std::max({top_id, op.subtree.logical,
                         op.subtree.children.at(0).logical});
      inserts.push_back(std::move(op));
    }
    const uint32_t ids_per_round = top_id - gen.logical_id_base + 1;
    std::vector<UpdateOp>& ops = streams[s];
    for (size_t b = 0; b < blocks; ++b) {
      UpdateOp rename[3];
      for (size_t k = 0; k < 3; ++k) {
        rename[k] = renames[(3 * b + k) % renames.size()];
        rename[k].new_value += "_b" + std::to_string(b);
      }
      if (inserts.empty()) {
        for (const UpdateOp& op : rename) {
          ops.push_back(op);
          ops.push_back(op);
        }
        continue;
      }
      const uint32_t round = uint32_t(b / inserts.size());
      UpdateOp insert = inserts[b % inserts.size()];
      insert.target_logical =
          uint32_t((uint64_t(insert.target_logical) + uint64_t(round) * 7919) %
                   stores.logical->count(insert.target_type));
      ShiftSubtree(round * ids_per_round, "_r" + std::to_string(round),
                   &insert.subtree);
      const mctdb::storage::SubtreeSpec& child = insert.subtree.children[0];
      UpdateOp delete_child = DeleteOp(child.type, child.logical);
      UpdateOp delete_root =
          DeleteOp(insert.subtree.type, insert.subtree.logical);
      ops.push_back(std::move(insert));
      ops.push_back(rename[0]);
      ops.push_back(std::move(delete_child));
      ops.push_back(rename[1]);
      ops.push_back(std::move(delete_root));
      ops.push_back(rename[2]);
    }
  }
  return streams;
}

/// Stores, their reference answers, the update streams, and the service
/// with its sessions. Members are destroyed bottom-up: sessions, then the
/// service, then the stores it serves.
struct ServeState {
  Stores stores;
  std::vector<ExecResult> reference;
  std::vector<std::vector<UpdateOp>> ops;  // [store]
  uint64_t wal_header_bytes = 0;
  std::unique_ptr<QueryService> service;
  std::vector<std::vector<std::shared_ptr<QueryService::Session>>>
      read_sessions;  // [client][store]
  std::vector<std::shared_ptr<QueryService::Session>> update_sessions;
  std::vector<std::unique_ptr<Cursor>> cursors;
};

Status StartService(const ServeConfig& cfg, ServeState* st) {
  const bool durable = !st->stores.durable.empty();
  mctsvc::ServiceOptions options;
  options.num_threads = kWorkers;
  options.pool_pages = cfg.pool_pages;
  options.maintenance_enabled = durable;
  options.maintenance.wal_bytes_threshold = kCheckpointWalBytes;
  st->service = std::make_unique<QueryService>(options);
  const size_t n = st->stores.schemas.size();
  for (size_t i = 0; i < n; ++i) {
    const std::string& name = st->stores.schemas[i].name();
    if (durable) {
      MCTDB_RETURN_IF_ERROR(
          st->service->AddDurableStore(name, st->stores.durable[i].get()));
      MCTDB_ASSIGN_OR_RETURN(auto session, st->service->OpenSession(name));
      st->update_sessions.push_back(std::move(session));
      st->cursors.push_back(std::make_unique<Cursor>());
    } else {
      MCTDB_RETURN_IF_ERROR(
          st->service->AddStore(name, st->stores.loaded[i].get()));
    }
  }
  st->read_sessions.resize(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    for (size_t i = 0; i < n; ++i) {
      MCTDB_ASSIGN_OR_RETURN(
          auto session,
          st->service->OpenSession(st->stores.schemas[i].name()));
      st->read_sessions[c].push_back(std::move(session));
    }
  }
  return Status::OK();
}

/// WAL work of one committed update, and the time of its group-commit span
/// when it led the fsync.
void CollectFsync(const mctdb::query::UpdateExecResult& r, ClientOut* out) {
  out->wal_appends += r.wal_appends;
  out->wal_fsyncs += r.wal_fsyncs;
  if (r.wal_fsyncs == 0) return;
  for (const mctdb::obs::Span& child : r.trace.children) {
    if (child.kind == mctdb::obs::StageKind::kWal &&
        child.label == "group_commit") {
      out->fsync_s.push_back(child.elapsed_seconds);
    }
  }
}

void RunClient(const Tpcw& tpcw, ServeState& st, bool writer,
               uint64_t seed, Clock::time_point start, Clock::time_point end,
               uint64_t parent, size_t client, ClientOut* out) {
  std::mt19937_64 rng(seed);
  const size_t n = st.stores.schemas.size();
  const bool traced = SpansEnabled();
  // Durable stores change under the traffic; the others must answer every
  // query exactly as the reference does.
  const bool check_reads = st.stores.durable.empty();
  while (Clock::now() < end) {
    const size_t s = rng() % n;
    if (writer) {
      Cursor& cur = *st.cursors[s];
      const std::vector<UpdateOp>& ops = st.ops[s];
      Timer span("service.update", traced ? st.stores.schemas[s].name() : "",
                 parent);
      mctdb::Result<mctsvc::UpdateFuture> future =
          Status::Internal("update stream exhausted");
      size_t op = ops.size();
      Clock::time_point t0;
      {
        std::lock_guard<std::mutex> lock(cur.mu);
        if (cur.next < ops.size()) {
          op = cur.next++;
          t0 = Clock::now();
          future = st.update_sessions[s]->SubmitUpdate(ops[op]);
        }
      }
      out->report.Attempt();
      if (!future.ok()) {
        out->report.Fail(future.status());
        if (op < ops.size()) out->failed_updates.emplace_back(s, op);
        continue;
      }
      auto result = future->get();
      const Clock::time_point done = Clock::now();
      if (!result.ok()) {
        out->report.Fail(result.status());
        out->failed_updates.emplace_back(s, op);
        continue;
      }
      out->update_lat.push_back(SecondsBetween(t0, done));
      out->update_window.push_back(
          done < end ? uint32_t(SecondsBetween(start, done)) : kNoWindow);
      ++out->committed[KindIndex(ops[op].kind)];
      out->acked.emplace_back(s, op);
      CollectFsync(*result, out);
    } else {
      const size_t q = rng() % tpcw.reads.size();
      Timer span("service.query",
                 traced ? st.stores.schemas[s].name() + " " +
                              tpcw.reads[q]->name
                        : "",
                 parent);
      const Clock::time_point t0 = Clock::now();
      auto future = st.read_sessions[client][s]->SubmitQuery(*tpcw.reads[q]);
      out->report.Attempt();
      if (!future.ok()) {
        out->report.Fail(future.status());
        continue;
      }
      auto result = future->get();
      const Clock::time_point done = Clock::now();
      if (!result.ok()) {
        out->report.Fail(result.status());
        continue;
      }
      out->query_lat.push_back(SecondsBetween(t0, done));
      out->query_window.push_back(
          done < end ? uint32_t(SecondsBetween(start, done)) : kNoWindow);
      out->reads.Add(*result);
      if (traced) out->stages.Add(result->trace);
      if (check_reads && !SameAnswer(*result, st.reference[q])) {
        out->report.Mismatch(tpcw.reads[q]->name + " on " +
                             st.stores.schemas[s].name() +
                             " differs from its reference answer");
      }
    }
  }
}

/// Runs the clients for `seconds` (whole seconds, at least one) and adds
/// what they saw to `out`. Returns the wall time until the last client's
/// last request completed.
double RunPhase(const Tpcw& tpcw, ServeState& st, const ServeConfig& cfg,
                uint64_t seed, double seconds, const char* name,
                ClientOut* out) {
  Timer phase(name);
  std::vector<ClientOut> outs(kClients);
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::seconds(std::max<int64_t>(1, int64_t(seconds)));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      RunClient(tpcw, st, c < cfg.writers, seed * 0x9E3779B97F4A7C15ull + c,
                start, end, phase.id(), c, &outs[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed = SecondsBetween(start, Clock::now());
  for (const ClientOut& o : outs) out->Merge(o);
  out->windows += uint32_t(std::chrono::duration<double>(end - start).count());
  return elapsed;
}

/// Interpolated quantile of the queue-wait histogram's power-of-two
/// microsecond buckets.
double QueueWaitQuantileUs(const ServiceCounters& c, double q) {
  uint64_t total = 0;
  for (uint64_t b : c.queue_wait) total += b;
  if (total == 0) return 0.0;
  const double rank = q * double(total);
  double seen = 0;
  for (size_t i = 0; i < mctsvc::LatencyHistogram::kBuckets; ++i) {
    const double count = double(c.queue_wait[i]);
    if (count > 0 && seen + count >= rank) {
      const double hi = mctsvc::LatencyHistogram::BucketUpperUs(i);
      const double lo = i == 0 ? 0.0 : hi / 2;
      return lo + (hi - lo) * (rank - seen) / count;
    }
    seen += count;
  }
  return mctsvc::LatencyHistogram::BucketUpperUs(
      mctsvc::LatencyHistogram::kBuckets - 1);
}

/// Adds each latency to the one-second window it completed in.
void AddToWindows(const std::vector<double>& lat,
                  const std::vector<uint32_t>& window,
                  std::vector<std::vector<double>>* by_window) {
  for (size_t i = 0; i < lat.size(); ++i) {
    if (window[i] < by_window->size()) {
      (*by_window)[window[i]].push_back(lat[i]);
    }
  }
}

/// The serving end-to-end metrics and the service layer's numbers over the
/// measured phases; `svc_counters` holds the service counters of those
/// phases only.
/// Latency quantiles and throughput are taken per one-second window and
/// reported as their medians over the windows, so a stall of the machine
/// for a second or two moves a few windows instead of the whole figure.
/// op_p99_us takes every acknowledged operation, reads and updates alike.
void SetServeMetrics(const ClientOut& total, double elapsed,
                     const ServiceCounters& svc_counters, Report* report) {
  std::vector<std::vector<double>> queries(total.windows);
  AddToWindows(total.query_lat, total.query_window, &queries);
  std::vector<std::vector<double>> ops = queries;
  AddToWindows(total.update_lat, total.update_window, &ops);
  std::vector<double> p50, p99, qps, op_p99;
  for (size_t w = 0; w < total.windows; ++w) {
    p50.push_back(Quantile(queries[w], 0.5));
    p99.push_back(Quantile(queries[w], 0.99));
    qps.push_back(double(queries[w].size()));
    op_p99.push_back(Quantile(ops[w], 0.99));
  }
  report->Set("query_p50_us", Median(p50) * 1e6, "us");
  report->Set("query_p99_us", Median(p99) * 1e6, "us");
  report->Set("query_qps", Median(qps), "1/s");
  report->Set("op_p99_us", Median(op_p99) * 1e6, "us");
  total.reads.SetMetrics(report);
  total.stages.SetMetrics(report);

  ServiceStats svc;
  svc.queue_wait_p50_us = QueueWaitQuantileUs(svc_counters, 0.5);
  svc.queue_wait_p99_us = QueueWaitQuantileUs(svc_counters, 0.99);
  const uint64_t lookups = svc_counters.plan_hits + svc_counters.plan_misses;
  svc.plan_cache_hit_ratio =
      lookups == 0 ? 0.0 : double(svc_counters.plan_hits) / double(lookups);
  svc.sheds = svc_counters.sheds;
  svc.rejected = svc_counters.rejected;
  svc.failed = svc_counters.failed;
  const size_t updates = total.update_lat.size();
  svc.update_p50_us = Quantile(total.update_lat, 0.5) * 1e6;
  svc.update_p99_us = Quantile(total.update_lat, 0.99) * 1e6;
  svc.update_ops_s = double(updates) / elapsed;
  svc.update_share =
      updates == 0 ? 0.0
                   : double(updates) / double(updates + total.query_lat.size());
  svc.SetMetrics(report);
  for (size_t k = 0; k < 3; ++k) {
    report->Set(std::string("service.updates.") + kKindNames[k],
                double(total.committed[k]), "count");
  }
}

/// The state the acknowledged updates of one store must have left behind.
struct Expected {
  std::map<std::tuple<mctdb::er::NodeId, uint32_t, std::string>,
           std::string>
      values;
  std::map<std::pair<mctdb::er::NodeId, uint32_t>, bool> present;
};

Expected ExpectedState(const std::vector<UpdateOp>& ops,
                       const std::vector<size_t>& applied) {
  Expected e;
  for (size_t i : applied) {
    const UpdateOp& op = ops[i];
    switch (op.kind) {
      case UpdateOp::Kind::kRenameValue:
        e.values[{op.target_type, op.target_logical, op.attr}] = op.new_value;
        break;
      case UpdateOp::Kind::kInsertSubtree:
        e.present[{op.subtree.type, op.subtree.logical}] = true;
        for (const auto& child : op.subtree.children) {
          e.present[{child.type, child.logical}] = true;
        }
        break;
      case UpdateOp::Kind::kDeleteSubtree:
        e.present[{op.target_type, op.target_logical}] = false;
        break;
    }
  }
  return e;
}

void CheckExpected(const Expected& e, const mctdb::storage::MctStore& store,
                   const std::string& name, Report* report) {
  const mctdb::Lsn snap = store.visible_lsn();
  for (const auto& [key, value] : e.values) {
    const auto& [type, logical, attr] = key;
    std::vector<mctdb::storage::ElemId> elems =
        store.ElementsFor(type, logical, snap);
    if (elems.empty()) {
      report->Mismatch("renamed instance missing after reopen on " + name);
      continue;
    }
    for (mctdb::storage::ElemId id : elems) {
      const std::string* v = store.AttrValue(id, attr, snap);
      if (v == nullptr || *v != value) {
        report->Mismatch("acknowledged rename lost after reopen on " + name);
        break;
      }
    }
  }
  for (const auto& [key, live] : e.present) {
    if (store.ElementsFor(key.first, key.second, snap).empty() == live) {
      report->Mismatch(std::string("acknowledged ") +
                       (live ? "insert" : "delete") +
                       " lost after reopen on " + name);
    }
  }
}

/// After the measured phase of mixed, untimed: reopen every store from its
/// image and log, and check that every acknowledged update survived and
/// that the store answers as it did before; then bring every store to the
/// same block boundary of its stream and check that the schemas agree.
Status FinishMixed(const Tpcw& tpcw, const Args& args,
                   const ServeConfig& cfg, const ClientOut& all,
                   ServeState& st, Report* report, WalStats* wal) {
  const size_t n = st.stores.schemas.size();
  std::vector<std::vector<size_t>> applied(n);
  std::vector<std::vector<size_t>> todo(n);
  for (auto [s, op] : all.acked) applied[s].push_back(op);
  for (auto [s, op] : all.failed_updates) todo[s].push_back(op);
  st.read_sessions.clear();
  st.update_sessions.clear();
  st.service.reset();  // stops the workers and the maintenance threads

  mctdb::wal::DurableStoreOptions options;
  options.store.label_stride = cfg.label_stride;
  std::vector<std::vector<ExecResult>> live(n);
  std::vector<mctdb::Lsn> acked_lsn(n);
  for (size_t s = 0; s < n; ++s) {
    MCTDB_ASSIGN_OR_RETURN(
        live[s], RunReads(tpcw, st.stores.schemas[s], st.stores.serving(s)));
    acked_lsn[s] = st.stores.durable[s]->snapshot();
    st.stores.durable[s].reset();
  }
  for (size_t s = 0; s < n; ++s) {
    const mctdb::mct::MctSchema& schema = st.stores.schemas[s];
    Timer t("wal.open", schema.name());
    auto reopened =
        mctdb::wal::DurableStore::Open(schema, st.stores.paths[s], options);
    wal->open_s += t.Stop();
    if (!reopened.ok()) return reopened.status();
    st.stores.durable[s] = std::move(*reopened);
    const mctdb::wal::DurableStore& ds = *st.stores.durable[s];
    if (ds.snapshot() < acked_lsn[s]) {
      report->Mismatch("reopened " + schema.name() +
                       " lost its acknowledged tail");
    }
    std::sort(applied[s].begin(), applied[s].end());
    CheckExpected(ExpectedState(st.ops[s], applied[s]), *ds.store(),
                  schema.name(), report);
    MCTDB_ASSIGN_OR_RETURN(std::vector<ExecResult> recovered,
                           RunReads(tpcw, schema, ds.store()));
    for (size_t q = 0; q < recovered.size(); ++q) {
      if (!SameAnswer(live[s][q], recovered[q])) {
        report->Mismatch(tpcw.reads[q]->name + " on " + schema.name() +
                         " answers differently after reopen");
      }
    }
    const uint64_t records = ds.recovery().scanned_records;
    const uint64_t bytes = ds.wal_bytes();
    if (records > 0 && bytes > st.wal_header_bytes) {
      wal->bytes_per_update +=
          double(bytes - st.wal_header_bytes) / double(records) / double(n);
    }
  }

  size_t prefix = 0;
  for (size_t s = 0; s < n; ++s) {
    prefix = std::max(prefix, st.cursors[s]->next);
  }
  prefix = (prefix + kBlockOps - 1) / kBlockOps * kBlockOps;
  for (size_t s = 0; s < n; ++s) {
    for (size_t op = st.cursors[s]->next; op < prefix; ++op) {
      todo[s].push_back(op);
    }
    std::sort(todo[s].begin(), todo[s].end());
    for (size_t op : todo[s]) {
      mctdb::query::UpdateExecutor exec(st.stores.durable[s].get());
      report->Attempt();
      auto result = exec.Execute(st.ops[s][op]);
      if (!result.ok()) report->Fail(result.status());
    }
  }
  CrossSchemaReference(tpcw, st.stores, report, "mixed at a block boundary");
  if (args.trace) {
    for (size_t s = 0; s < n; ++s) {
      Timer t("wal.checkpoint", st.stores.schemas[s].name());
      auto stats = st.stores.durable[s]->Checkpoint(
          mctdb::wal::CheckpointMode::kRebaseLive);
      wal->checkpoint_s += t.Stop();
      if (!stats.ok()) return stats.status();
    }
  }
  return Status::OK();
}

/// The WAL counters the durable stores and the service kept during the run.
WalStats WalStatsOf(const ClientOut& measured, const ServeState& st) {
  WalStats wal;
  wal.fsync_p50_us = Quantile(measured.fsync_s, 0.5) * 1e6;
  wal.fsync_p99_us = Quantile(measured.fsync_s, 0.99) * 1e6;
  wal.appends = measured.wal_appends;
  wal.fsyncs = measured.wal_fsyncs;
  wal.checkpoints_min_store = UINT64_MAX;
  // The maintenance threads count checkpoints by reason only in the
  // service's Prometheus export.
  const std::string text = st.service->MetricsText();
  const std::string gap = "reason=\"gap_pressure\"} ";
  for (size_t p = text.find(gap); p != std::string::npos;
       p = text.find(gap, p + 1)) {
    wal.gap_checkpoints +=
        std::strtoull(text.c_str() + p + gap.size(), nullptr, 10);
  }
  for (size_t s = 0; s < st.stores.schemas.size(); ++s) {
    // The service bumps a store's plan-cache generation after every
    // maintenance checkpoint it attempted.
    const uint64_t checkpoints =
        st.service->plan_cache(st.stores.schemas[s].name())->generation();
    wal.checkpoints += checkpoints;
    wal.checkpoints_min_store =
        std::min(wal.checkpoints_min_store, checkpoints);
    wal.write_stalls += st.stores.durable[s]->write_stalls();
    wal.rebases += st.stores.durable[s]->rebases();
  }
  return wal;
}

/// read_cold and mixed: set up kSetups times, then warm up, measure, and
/// (mixed) check durability.
Status RunServe(const Args& args, double scale, Open open,
                const ServeConfig& cfg, Report* report) {
  const Tpcw tpcw(scale, args.instance_seed);
  const std::string dir =
      args.out_dir + "/" + args.workload + "-" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);

  std::unique_ptr<ServeState> st;
  std::vector<BuildTimes> builds;
  std::vector<double> setups;
  for (int k = 0; k < kSetups; ++k) {
    st.reset();
    st = std::make_unique<ServeState>();
    BuildTimes times;
    Timer t("setup");
    mctdb::storage::StoreOptions options;
    options.label_stride = cfg.label_stride;
    MCTDB_RETURN_IF_ERROR(FullBuild(tpcw, dir, open, options,
                                    /*keep_built=*/false, &st->stores, &times));
    st->reference = CrossSchemaReference(tpcw, st->stores, report, "setup");
    if (open == Open::kDurable) {
      Timer gen_timer("workload.generate_update_ops");
      st->ops = UpdateStreams(st->stores, kUpdateBlocks);
      if (st->ops[0].empty()) {
        return Status::Internal("no rename passes every schema");
      }
      st->wal_header_bytes = st->stores.durable[0]->wal_bytes();
    }
    MCTDB_RETURN_IF_ERROR(StartService(cfg, st.get()));
    setups.push_back(t.Stop());
    builds.push_back(times);
  }
  report->Set("setup_s", Median(setups), "s");
  SetBuildMetrics(builds, report);
  if (args.trace) {
    report->Set("query.plan_us", MedianPlanSeconds(tpcw, st->stores) * 1e6,
                "us");
  }

  ClientOut warmup, measured;
  RunPhase(tpcw, *st, cfg, args.seed ^ 0x5eed, kWarmupSeconds, "warmup",
           &warmup);
  const ServiceCounters before = ServiceCounters::Of(st->service->metrics());
  const double elapsed =
      RunPhase(tpcw, *st, cfg, args.seed, args.seconds, "measure", &measured);
  ServiceCounters svc;
  svc.AddDelta(before, ServiceCounters::Of(st->service->metrics()));
  report->Merge(warmup.report);
  report->Merge(measured.report);
  SetServeMetrics(measured, elapsed, svc, report);

  WalStats wal;
  if (open == Open::kDurable) {
    for (size_t k = 0; k < 3; ++k) {
      if (measured.committed[k] == 0) {
        return Status::Internal(std::string("no ") + kKindNames[k] +
                                " committed in the measured phase");
      }
    }
    wal = WalStatsOf(measured, *st);
    ClientOut all = std::move(warmup);
    all.Merge(measured);
    MCTDB_RETURN_IF_ERROR(
        FinishMixed(tpcw, args, cfg, all, *st, report, &wal));
  }
  wal.SetMetrics(report);
  st.reset();
  std::filesystem::remove_all(dir);
  return Status::OK();
}

/// Checks that each reloaded image answers the read queries like the store
/// it was built from, and that the schemas agree; returns the answers of
/// the first schema.
std::vector<ExecResult> CheckImages(const Tpcw& tpcw, const Stores& stores,
                                    Report* report) {
  std::vector<ExecResult> reference;
  for (size_t i = 0; i < stores.schemas.size(); ++i) {
    const std::string& name = stores.schemas[i].name();
    auto built = RunReads(tpcw, stores.schemas[i], stores.built[i].get());
    auto loaded = RunReads(tpcw, stores.schemas[i], stores.loaded[i].get());
    if (!built.ok() || !loaded.ok()) {
      report->Mismatch("build: reads on " + name + " failed");
      continue;
    }
    if (reference.empty()) reference = *loaded;
    for (size_t q = 0; q < tpcw.reads.size(); ++q) {
      if (!SameAnswer((*loaded)[q], (*built)[q])) {
        report->Mismatch("build: reloaded " + name + " answers " +
                         tpcw.reads[q]->name + " unlike the built store");
      }
      if (!SameAnswer((*loaded)[q], reference[q])) {
        report->Mismatch("build: " + tpcw.reads[q]->name + " on " + name +
                         " differs from " + stores.schemas[0].name());
      }
    }
  }
  return reference;
}

}  // namespace

// build: set-up is one cold build whose stores are thrown away. The
// measured phase repeats full builds — generate -> design x7 ->
// materialize x7 -> SaveStore x7 -> LoadStore x7 — until their summed time
// reaches the measured seconds. After each build, outside build_s, the
// reloaded images are checked against the stores they were built from and
// then serve read traffic (a warm-up, then kBuildReadSeconds measured),
// which gives the workload's query numbers.
Status RunBuild(const Args& args, Report* report) {
  const std::string dir =
      args.out_dir + "/build-" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);

  std::unique_ptr<Tpcw> tpcw;
  {
    Timer t("setup");
    tpcw = std::make_unique<Tpcw>(kScale, args.instance_seed);
    Stores cold;
    BuildTimes times;
    MCTDB_RETURN_IF_ERROR(FullBuild(*tpcw, dir, Open::kLoad, {},
                                    /*keep_built=*/false, &cold, &times));
    report->Set("setup_s", t.Stop(), "s");
  }

  const ServeConfig cfg;
  std::vector<BuildTimes> builds;
  ClientOut reads;
  ServiceCounters svc;
  double read_seconds = 0;
  double measured = 0;
  std::unique_ptr<ServeState> st;
  while (measured < args.seconds) {
    st.reset();  // free the previous build before the next one
    st = std::make_unique<ServeState>();
    BuildTimes times;
    report->Attempt();
    Status built = FullBuild(*tpcw, dir, Open::kLoad, {},
                             /*keep_built=*/true, &st->stores, &times);
    measured += times.total;
    if (!built.ok()) {
      report->Fail(built);
      st.reset();
      continue;
    }
    builds.push_back(times);
    st->reference = CheckImages(*tpcw, st->stores, report);
    st->stores.built.clear();
    MCTDB_RETURN_IF_ERROR(StartService(cfg, st.get()));
    const uint64_t seed = args.seed * 1000 + builds.size();
    ClientOut warmup;
    RunPhase(*tpcw, *st, cfg, seed ^ 0x5eed, kWarmupSeconds, "warmup",
             &warmup);
    report->Merge(warmup.report);
    const ServiceCounters before = ServiceCounters::Of(st->service->metrics());
    read_seconds +=
        RunPhase(*tpcw, *st, cfg, seed, kBuildReadSeconds, "reads", &reads);
    svc.AddDelta(before, ServiceCounters::Of(st->service->metrics()));
  }
  if (st == nullptr) return Status::Internal("the last build failed");

  SetBuildMetrics(builds, report);
  report->Merge(reads.report);
  SetServeMetrics(reads, read_seconds, svc, report);
  if (args.trace) {
    report->Set("query.plan_us", MedianPlanSeconds(*tpcw, st->stores) * 1e6,
                "us");
  }
  WalStats().SetMetrics(report);
  st.reset();
  std::filesystem::remove_all(dir);
  return Status::OK();
}

Status RunReadCold(const Args& args, Report* report) {
  ServeConfig cfg;
  cfg.pool_pages = 256;
  return RunServe(args, kScale, Open::kLoad, cfg, report);
}

Status RunMixed(const Args& args, Report* report) {
  ServeConfig cfg;
  cfg.writers = 1;
  cfg.label_stride = kMixedLabelStride;
  return RunServe(args, kMixedScale, Open::kDurable, cfg, report);
}

}  // namespace perfbench

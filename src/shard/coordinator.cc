#include "shard/coordinator.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/clock.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "exec/profile.h"
#include "exec/scan_op.h"

namespace snowprune {
namespace shard {

int64_t RetryBackoffUs(const RetryPolicy& policy, int retry) {
  if (retry < 1) retry = 1;
  if (policy.base_backoff_us <= 0) return 0;
  // Capped exponential, saturating well before the shift could overflow.
  int64_t backoff = policy.base_backoff_us;
  for (int i = 1; i < retry && backoff < policy.max_backoff_us; ++i) {
    backoff *= 2;
  }
  backoff = std::min(backoff, policy.max_backoff_us);
  // ±25% deterministic jitter: hash (seed, retry) to a [0,1) draw, the same
  // splitmix construction the failpoint layer uses. Deterministic so tests
  // can assert the exact schedule; jittered so a storm of shards retrying
  // in lockstep decorrelates.
  uint64_t x = policy.jitter_seed ^ (static_cast<uint64_t>(retry) *
                                     0x9e3779b97f4a7c15ULL);
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  const double u = static_cast<double>(x >> 11) * 0x1.0p-53;
  return static_cast<int64_t>(static_cast<double>(backoff) *
                              (0.75 + 0.5 * u));
}

namespace {

/// The coordinator-side stand-in for the table scan: iterates the final
/// global scan set in order, consults the (evolving) top-k boundary before
/// each partition exactly where the serial scan would — before the "load" —
/// and emits the shard-delivered row fragment as one batch per partition
/// (even an empty one, matching TableScanOp's one-batch-per-partition
/// contract). Per-partition stats are metered here, in scan-set order, so
/// the gathered PruningStats reproduce a serial run's counters bit-for-bit;
/// a fragment dropped by a boundary that tightened after the scatter is the
/// sharded analog of a parallel worker's stale lookahead load and is
/// surfaced as speculative_loads.
class GatherSourceOp final : public ScanSource {
 public:
  GatherSourceOp(std::shared_ptr<Table> table, ScanSet scan_set,
                 PruningStats* stats)
      : table_(std::move(table)),
        scan_set_(std::move(scan_set)),
        stats_(stats) {}

  void AttachTopKPruner(TopKPruner* pruner) override { topk_pruner_ = pruner; }
  TopKPruner* topk_pruner() const { return topk_pruner_; }
  void ReplaceScanSet(ScanSet scan_set) override {
    scan_set_ = std::move(scan_set);
  }
  const ScanSet& scan_set() const override { return scan_set_; }
  void set_fragments(std::unordered_map<PartitionId, std::vector<Row>>* f) {
    fragments_ = f;
  }

  /// Profiling mirror (traced queries): receives the same deltas as
  /// `stats_`, attributed to this node. The coordinator meters the whole
  /// sharded query here — sub-engines run with metering off — so the
  /// profile's summed pruning reconciles against the query's PruningStats.
  void set_profile_stats(PruningStats* stats) { profile_stats_ = stats; }

  void Open() override { cursor_ = 0; }

  bool Next(Batch* out) override {
    if (profile_ == nullptr) return NextInner(out);
    return ProfiledNext(
        profile_, [&] { return NextInner(out); },
        [&] { return static_cast<int64_t>(out->rows.size()); });
  }

  bool NextInner(Batch* out) {
    out->rows.clear();
    out->source.clear();
    while (cursor_ < scan_set_.size()) {
      PartitionId pid = scan_set_[cursor_++];
      if (topk_pruner_ != nullptr && topk_pruner_->ShouldSkip(*table_, pid)) {
        // Exactly the serial scan's pre-load check. A fragment the scatter
        // already produced for this partition was a speculative load.
        ++stats_->pruned_by_topk;
        if (profile_stats_ != nullptr) ++profile_stats_->pruned_by_topk;
        if (fragments_ != nullptr && fragments_->count(pid) > 0) {
          ++stats_->speculative_loads;
          if (profile_stats_ != nullptr) ++profile_stats_->speculative_loads;
        }
        continue;
      }
      ++stats_->scanned_partitions;
      stats_->scanned_rows += table_->partition_metadata(pid).row_count();
      if (profile_stats_ != nullptr) {
        ++profile_stats_->scanned_partitions;
        profile_stats_->scanned_rows +=
            table_->partition_metadata(pid).row_count();
      }
      if (fragments_ != nullptr) {
        auto it = fragments_->find(pid);
        if (it != fragments_->end()) out->rows = std::move(it->second);
      }
      return true;  // one batch per partition, even with no surviving rows
    }
    return false;
  }

  void Close() override {}
  const Schema& output_schema() const override { return table_->schema(); }

 private:
  std::shared_ptr<Table> table_;
  ScanSet scan_set_;
  PruningStats* stats_;
  PruningStats* profile_stats_ = nullptr;
  TopKPruner* topk_pruner_ = nullptr;
  std::unordered_map<PartitionId, std::vector<Row>>* fragments_ = nullptr;
  size_t cursor_ = 0;
};

/// The scan at the bottom of a join-free chain of project / limit / top-k /
/// sort / aggregate — the one shape the gather source supports — or null,
/// and the query falls back to the single-engine path.
const PlanNode* SupportedShape(const PlanPtr& plan) {
  for (const PlanNode* node = plan.get(); node != nullptr;
       node = node->child.get()) {
    if (node->kind == PlanNode::Kind::kJoin) return nullptr;
    if (node->kind == PlanNode::Kind::kScan) return node;
  }
  return nullptr;
}

/// The coordinator's hook into Engine::Compile: the cross-shard probe
/// narrows the filter pass, and the scan's source is the gather.
class GatherHook final : public SourceHook {
 public:
  GatherHook(std::shared_ptr<Table> table, std::string table_name,
             const ShardMap& map, FilterPrunerConfig filter)
      : table_(std::move(table)),
        table_name_(std::move(table_name)),
        map_(map),
        filter_(std::move(filter)),
        summary_pruned_(map.num_shards(), 0) {}

  ScanSet FilterInput(const ExprPtr& predicate, const ScanSet& full) override {
    // Cross-shard pruning first: one merged-zone-map probe per shard.
    // Merged stats are monotone (they admit everything any member admits),
    // so a probe-excluded shard's partitions are exactly partitions the
    // per-partition pass would have pruned anyway — removing them up front
    // changes no counter, it only spares the metadata work and, crucially,
    // the shard contact.
    FilterPruner probe(predicate, filter_);
    bool any_pruned = false;
    for (size_t s = 0; s < map_.num_shards(); ++s) {
      if (map_.shard_partitions(s).empty()) continue;
      if (probe.CanPruneFromStats(map_.shard_summary(s), map_.shard_rows(s))) {
        summary_pruned_[s] = 1;
        any_pruned = true;
      }
    }
    if (!any_pruned) return full;
    std::vector<PartitionId> remaining;
    remaining.reserve(full.size());
    for (PartitionId pid : full) {
      if (!summary_pruned_[map_.shard_of(pid)]) remaining.push_back(pid);
    }
    return ScanSet(std::move(remaining));
  }

  std::unique_ptr<ScanSource> MakeSource(
      ScanSet scan_set, PruningStats* stats, QueryProfile* profile,
      std::shared_ptr<const jit::CompiledPredicate> program) override {
    auto op = std::make_unique<GatherSourceOp>(table_, std::move(scan_set),
                                               stats);
    if (profile != nullptr) {
      // The gather source is the scan side of the sharded query, so every
      // pruning counter — partition levels and the cross-shard level — is
      // attributed to its node.
      ProfileNode* node = profile->NewNode("Gather", table_name_);
      op->set_profile(node);
      op->set_profile_stats(&node->pruning);
    }
    gather_ = op.get();
    program_ = std::move(program);
    return op;
  }

  /// Per shard: excluded by the merged-zone-map probe.
  const std::vector<uint8_t>& summary_pruned() const { return summary_pruned_; }
  /// The source MakeSource built.
  GatherSourceOp* gather() const { return gather_; }
  /// The eagerly specialized scan filter (null when not specialized): the
  /// scatter ships it to every shard sub-query.
  const std::shared_ptr<const jit::CompiledPredicate>& program() const {
    return program_;
  }

 private:
  std::shared_ptr<Table> table_;
  std::string table_name_;
  const ShardMap& map_;
  FilterPrunerConfig filter_;
  std::vector<uint8_t> summary_pruned_;
  GatherSourceOp* gather_ = nullptr;
  std::shared_ptr<const jit::CompiledPredicate> program_;
};

}  // namespace

ShardCoordinator::ShardCoordinator(Catalog* catalog, ShardExecConfig config)
    : catalog_(catalog),
      config_(std::move(config)),
      engine_(catalog, config_.engine) {
  config_.num_shards = std::max<size_t>(1, config_.num_shards);
  shard_engines_.reserve(config_.num_shards);
  for (size_t s = 0; s < config_.num_shards; ++s) {
    shard_engines_.push_back(
        std::make_unique<Engine>(catalog, config_.engine));
  }
}

ShardCoordinator::~ShardCoordinator() = default;

const ShardMap& ShardCoordinator::MapFor(const std::string& name,
                                         const Table& table) {
  auto it = map_cache_.find(name);
  if (it == map_cache_.end() ||
      it->second.table_instance() != table.instance_id()) {
    // First sight, or DML swapped the table object: (re)build from the new
    // version's metadata.
    it = map_cache_
             .insert_or_assign(
                 name, ShardMap::Build(table, config_.num_shards,
                                       config_.policy))
             .first;
  }
  return it->second;
}

Result<QueryResult> ShardCoordinator::Execute(const PlanPtr& plan,
                                              const std::atomic<bool>* cancel,
                                              Trace* trace,
                                              int64_t deadline_ns) {
  if (!plan) return Status::InvalidArgument("null plan");
  last_exec_ = ExecInfo{};

  // Snapshot the one referenced table of a supported plan: the whole
  // scatter — compile and every shard sub-query — executes against this
  // version, so DML stays snapshot-atomic across shards. Configurations the
  // gather source does not cover (a predicate cache, runtime-phase filter
  // pruning) and missing tables take the single-engine path.
  const PlanNode* scan_node = SupportedShape(plan);
  std::shared_ptr<Table> table;
  if (scan_node != nullptr && config_.engine.predicate_cache == nullptr &&
      (!config_.engine.enable_filter_pruning ||
       config_.engine.filter_pruning_phase ==
           FilterPruningPhase::kCompileTime)) {
    table = catalog_->GetTable(scan_node->table);
  }
  if (!table) {
    ExecuteOptions opts;
    opts.cancel = cancel;
    opts.trace = trace;
    opts.deadline_ns = deadline_ns;
    return engine_.Execute(plan, opts);
  }
  return ExecuteSharded(plan, *scan_node, std::move(table), cancel, trace,
                        deadline_ns);
}

Result<QueryResult> ShardCoordinator::ExecuteSharded(
    const PlanPtr& plan, const PlanNode& scan_node,
    std::shared_ptr<Table> table, const std::atomic<bool>* cancel,
    Trace* trace, int64_t deadline_ns) {
  const ShardMap& map = MapFor(scan_node.table, *table);
  static Counter* const queries_sharded =
      MetricsRegistry::Instance().GetCounter("shard.queries_sharded");
  queries_sharded->Add();

  auto t0 = std::chrono::steady_clock::now();
  QueryResult result;

  // Traced execution: the coordinator owns the "query" root span; each
  // contacted shard's sub-query records into its own child trace, stitched
  // under the scatter span once the scatter joins.
  ScopedSpan query_span(trace, "query");

  // Compile through the engine's one pipeline, with the gather source in
  // place of the table scan: the compile-time pruning sequence runs once,
  // globally, and leaves the final global scan set on the gather.
  std::map<std::string, std::shared_ptr<Table>> snapshot;
  snapshot[scan_node.table] = table;
  ExecuteOptions compile_opts;
  compile_opts.tables = &snapshot;
  compile_opts.trace = trace;
  GatherHook hook(table, scan_node.table, map, config_.engine.filter);
  auto compiled = engine_.Compile(plan, compile_opts, query_span.id(), &result,
                                  &hook);
  if (!compiled.ok()) return compiled.status();
  CompiledQuery& query = *compiled.value();
  GatherSourceOp* gather = hook.gather();
  last_exec_.sharded = true;
  last_exec_.summary_pruned = hook.summary_pruned();

  // Slice the final global scan set by shard ownership. Partitions already
  // skippable under the initialized top-k boundary (§5.4) are dropped
  // before contact — boundaries only ever tighten, so the gather's own
  // pre-partition check is guaranteed to skip them too.
  TopKPruner* pruner = gather->topk_pruner();
  const ScanSet& final_set = gather->scan_set();
  std::vector<ScanSet> slices(map.num_shards());
  for (PartitionId pid : final_set) {
    if (pruner != nullptr && pruner->ShouldSkip(*table, pid)) continue;
    // Scatter-edge contract, debug-checked: every scattered partition id is
    // a real partition of the shared snapshot, and lands exactly on the
    // shard that owns it — the sub-queries' slice-subset DCHECK on the
    // engine side and the fragment realignment below both build on this.
    SNOW_DCHECK_LT(static_cast<size_t>(pid), table->num_partitions());
    SNOW_DCHECK_LT(map.shard_of(pid), map.num_shards());
    slices[map.shard_of(pid)].Add(pid);
  }

  last_exec_.contacted.assign(map.num_shards(), 0);
  std::vector<size_t> contacted;
  for (size_t s = 0; s < map.num_shards(); ++s) {
    if (!slices[s].empty()) {
      last_exec_.contacted[s] = 1;
      contacted.push_back(s);
    }
  }
  last_exec_.shards_contacted = contacted.size();
  query.stats.shards_total += static_cast<int64_t>(map.assigned_shards());
  query.stats.shards_pruned +=
      static_cast<int64_t>(map.assigned_shards() - contacted.size());
  if (ProfileNode* node = gather->profile()) {
    // The cross-shard level belongs to the gather source too: it is the
    // scan-side of this query, where all partition work is accounted.
    node->pruning.shards_total += static_cast<int64_t>(map.assigned_shards());
    node->pruning.shards_pruned +=
        static_cast<int64_t>(map.assigned_shards() - contacted.size());
  }
  static Counter* const scatter_fanout =
      MetricsRegistry::Instance().GetCounter("shard.scatter_fanout");
  static Counter* const shards_pruned_counter =
      MetricsRegistry::Instance().GetCounter("shard.shards_pruned");
  scatter_fanout->Add(static_cast<int64_t>(contacted.size()));
  shards_pruned_counter->Add(
      static_cast<int64_t>(map.assigned_shards() - contacted.size()));

  if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
    return Status::Cancelled("query cancelled before execution");
  }
  if (DeadlinePassed(deadline_ns)) {
    return Status::DeadlineExceeded("deadline passed before scatter");
  }

  // Scatter: a bare scan sub-plan (all other operators run gather-side)
  // over exactly the shard's slice, against the shared snapshot, with the
  // caller's cancel flag fanned out to every sub-query. The predicate was
  // bound by the compile above; the scan-set override makes the shard
  // engines skip re-binding, so concurrent sub-queries share the tree
  // read-only. An eagerly specialized filter is shared the same way: the
  // compile built it once, stamped with the snapshot's table instance, and
  // sub-engines attach it only when their snapshot agrees, never compiling
  // locally. (Sharded scatters bypass the predicate cache, so the
  // threshold-based promotion path does not apply.)
  PlanPtr sub_plan = ScanPlan(scan_node.table, scan_node.predicate);
  std::map<std::string, std::shared_ptr<const jit::CompiledPredicate>>
      compiled_filters;
  if (hook.program() != nullptr) {
    compiled_filters[scan_node.table] = hook.program();
  }

  std::vector<Result<QueryResult>> shard_results;
  shard_results.reserve(contacted.size());
  for (size_t i = 0; i < contacted.size(); ++i) {
    shard_results.emplace_back(Status::Internal("shard sub-query unrun"));
  }
  // Traced scatter: each sub-query records into its own Trace (scatter
  // threads never touch the parent), stitched under the scatter span after
  // the joins below — the join is the only synchronization needed.
  const uint32_t scatter_span =
      trace != nullptr ? trace->BeginSpan("scatter", query_span.id()) : 0;
  std::vector<std::unique_ptr<Trace>> shard_traces;
  if (trace != nullptr) {
    shard_traces.reserve(contacted.size());
    for (size_t i = 0; i < contacted.size(); ++i) {
      shard_traces.push_back(std::make_unique<Trace>());
    }
  }
  // Concurrency contract (lock-free by structure, so nothing here is
  // mutex-annotated): each scatter thread i writes only shard_results[i] —
  // pre-sized above, never resized while threads run — and reads only
  // shared state that is frozen for the scatter's duration (slices,
  // snapshot, sub_plan, the pre-bound predicate tree). The retry budget and
  // retry tally are shared atomics. The joins below are the sole
  // synchronization edge back to the coordinator thread.
  static Counter* const retries_counter =
      MetricsRegistry::Instance().GetCounter("shard.retries");
  static Counter* const retry_exhausted_counter =
      MetricsRegistry::Instance().GetCounter("shard.retry_exhausted");
  std::atomic<int> retry_budget{config_.retry.retry_budget};
  std::atomic<int64_t> total_retries{0};
  auto run_shard = [&](size_t i) {
    const size_t s = contacted[i];
    std::map<std::string, ScanSet> overrides;
    overrides[scan_node.table] = slices[s];
    ExecuteOptions opts;
    opts.cancel = cancel;
    opts.tables = &snapshot;
    opts.scan_sets = &overrides;
    opts.collect_batch_rows = true;
    opts.deadline_ns = deadline_ns;
    if (!compiled_filters.empty()) opts.compiled_filters = &compiled_filters;
    if (!shard_traces.empty()) opts.trace = shard_traces[i].get();
    // Transient-failure retry loop. Each attempt executes against the same
    // snapshot and scan-set slice, so a successful retry is byte-identical
    // to a first-try success: the fragments gathered below cannot tell the
    // attempts apart.
    for (int attempt = 1;; ++attempt) {
      Result<QueryResult> sub = [&]() -> Result<QueryResult> {
        // Injection sites: the sub-query is lost on the way out (launch) or
        // its response is lost on the way back (complete — the work was
        // done, the answer is gone). Both are the retryable wire faults a
        // real scatter sees.
        if (SNOW_FAILPOINT("shard.scatter_launch")) {
          return InjectedFault("shard.scatter_launch");
        }
        Result<QueryResult> r = shard_engines_[s]->Execute(sub_plan, opts);
        if (r.ok() && SNOW_FAILPOINT("shard.scatter_complete")) {
          return InjectedFault("shard.scatter_complete");
        }
        return r;
      }();
      if (sub.ok() || !IsRetryable(sub.status().code()) ||
          (cancel != nullptr && cancel->load(std::memory_order_relaxed)) ||
          DeadlinePassed(deadline_ns)) {
        shard_results[i] = std::move(sub);
        return;
      }
      if (attempt >= config_.retry.max_attempts ||
          retry_budget.fetch_sub(1, std::memory_order_acq_rel) <= 0) {
        // Out of attempts or out of per-query budget: surface the
        // underlying transient error untouched.
        retry_exhausted_counter->Add();
        shard_results[i] = std::move(sub);
        return;
      }
      const int64_t backoff_us = RetryBackoffUs(config_.retry, attempt);
      if (opts.trace != nullptr) {
        // The retry lands in this shard's own sub-trace (stitched under the
        // scatter span later), next to the failed attempt's spans.
        const uint32_t span = opts.trace->BeginSpan("shard.retry");
        opts.trace->AnnotateInt(span, "attempt", attempt);
        opts.trace->AnnotateInt(span, "backoff_us", backoff_us);
        opts.trace->AnnotateStr(span, "error", sub.status().ToString());
        opts.trace->EndSpan(span);
      }
      total_retries.fetch_add(1, std::memory_order_relaxed);
      retries_counter->Add();
      if (backoff_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
      }
    }
  };
  if (contacted.size() == 1) {
    // Single-survivor fast path: no thread handoff, the sub-query runs on
    // the coordinator's own thread.
    run_shard(0);
  } else if (!contacted.empty()) {
    // Dedicated scatter threads — never the shared worker pool, whose
    // workers the sub-queries' own morsels need (a sub-query blocking on a
    // pool occupied by the sub-queries themselves would deadlock).
    std::vector<std::thread> threads;
    threads.reserve(contacted.size());
    for (size_t i = 0; i < contacted.size(); ++i) {
      threads.emplace_back(run_shard, i);
    }
    last_exec_.scatter_threads = threads.size();
    for (auto& t : threads) t.join();
  }
  last_exec_.retries = total_retries.load(std::memory_order_relaxed);
  result.shard_retries = last_exec_.retries;
  if (trace != nullptr) {
    trace->AnnotateInt(scatter_span, "fanout",
                       static_cast<int64_t>(contacted.size()));
    trace->AnnotateInt(scatter_span, "threads",
                       static_cast<int64_t>(last_exec_.scatter_threads));
    trace->AnnotateInt(scatter_span, "retries", last_exec_.retries);
    for (auto& sub_trace : shard_traces) {
      trace->MergeChildTrace(sub_trace.get(), scatter_span);
    }
    trace->EndSpan(scatter_span);
  }

  if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
    return Status::Cancelled("query cancelled");
  }
  if (DeadlinePassed(deadline_ns)) {
    return Status::DeadlineExceeded("deadline exceeded during scatter");
  }
  std::unordered_map<PartitionId, std::vector<Row>> fragments;
  for (size_t i = 0; i < contacted.size(); ++i) {
    if (!shard_results[i].ok()) return shard_results[i].status();
    QueryResult& sub = shard_results[i].value();
    const ScanSet& slice = slices[contacted[i]];
    if (sub.batch_rows.size() != slice.size()) {
      return Status::Internal("shard sub-query fragment misalignment");
    }
    size_t row = 0;
    for (size_t b = 0; b < sub.batch_rows.size(); ++b) {
      std::vector<Row>& frag = fragments[slice[b]];
      frag.reserve(sub.batch_rows[b]);
      for (size_t r = 0; r < sub.batch_rows[b]; ++r) {
        frag.push_back(std::move(sub.rows[row++]));
      }
    }
  }
  gather->set_fragments(&fragments);

  result.scan_set_bytes =
      static_cast<int64_t>(gather->scan_set().SerializedBytes());

  // Gather: replay the fragments through the real operator pipeline, in
  // global scan-set order — identical operator state evolution, identical
  // rows, identical stats.
  ScopedSpan gather_span(trace, "gather", query_span.id());
  if (trace != nullptr) {
    for (Operator* op : query.profiled_ops) {
      op->set_trace(trace, gather_span.id());
    }
  }
  // Injection site: the gathered fragments are lost before replay (a
  // coordinator-side buffer fault). The scatter work is gone with them —
  // this is the one site where a fault costs a whole query's worth of
  // sub-query work, which is exactly what the chaos oracle should see.
  if (SNOW_FAILPOINT("shard.gather_replay")) {
    return InjectedFault("shard.gather_replay");
  }
  Operator* root = query.root.get();
  root->Open();
  Batch batch;
  while (root->Next(&batch)) {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) break;
    if (DeadlinePassed(deadline_ns)) break;
    for (auto& row : batch.rows) result.rows.push_back(std::move(row));
  }
  root->Close();
  result.wall_ms = MsSince(t0);

  if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
    return Status::Cancelled("query cancelled");
  }
  if (DeadlinePassed(deadline_ns)) {
    return Status::DeadlineExceeded("deadline exceeded during gather");
  }

  // The engine's exit: its stats audit and profile reconciliation cover
  // the shard counters too (shards_pruned <= shards_total, etc.).
  query.Finish(trace, &result);
  return result;
}

}  // namespace shard
}  // namespace snowprune

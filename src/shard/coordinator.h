#ifndef SNOWPRUNE_SHARD_COORDINATOR_H_
#define SNOWPRUNE_SHARD_COORDINATOR_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/engine.h"
#include "shard/shard_map.h"
#include "storage/catalog.h"

namespace snowprune {
namespace shard {

/// Retry policy for transient shard sub-query failures. A failed shard is
/// re-executed against the same snapshot and scan-set slice, so a
/// successful retry is byte-identical to a first-try success; terminal
/// (non-retryable) failures surface immediately.
struct RetryPolicy {
  /// Attempts per shard, first try included. 1 disables retries.
  int max_attempts = 3;
  /// Total retries allowed across all shards of one query (a storm of
  /// failures gives up instead of multiplying scatter work).
  int retry_budget = 8;
  /// Backoff before retry r (1-based) is min(max_backoff_us,
  /// base_backoff_us << (r-1)) ± 25% deterministic jitter. The defaults are
  /// deliberately tiny: in-process retries shouldn't stall a query, and
  /// tests need storms to finish fast.
  int64_t base_backoff_us = 100;
  int64_t max_backoff_us = 10000;
  /// Seed for the jitter hash (see RetryBackoffUs).
  uint64_t jitter_seed = 42;
};

/// The exact backoff-with-jitter schedule the coordinator sleeps between
/// attempts — exposed so tests can assert the sequence is deterministic.
/// `retry` is 1-based (the delay before the first retry).
int64_t RetryBackoffUs(const RetryPolicy& policy, int retry);

/// Sharded-execution sizing: how many shards the catalog is partitioned
/// into and how partitions are placed. `engine` is the template for the
/// per-shard engines and the unsharded fallback engine alike (pool
/// injection, pruning toggles, ...).
struct ShardExecConfig {
  size_t num_shards = 1;
  ShardPolicy policy = ShardPolicy::kRange;
  EngineConfig engine;
  RetryPolicy retry;
};

/// Scatter-gather query execution over a sharded catalog — the paper's §4
/// scheduler setting: pruning consults partition metadata *before* any
/// worker is contacted, and a shard whose merged zone maps exclude the
/// predicate never sees the query at all (the new top level of the pruning
/// hierarchy, metered as PruningStats::shards_{total,pruned}).
///
/// Execution phases for a supported plan (a join-free single-scan chain of
/// scan / project / limit / top-k / sort / aggregate):
///
///  1. compile: the plan goes through Engine::Compile, the same compile
///     pipeline an unsharded query takes, with a SourceHook in the scan
///     case. The hook narrows the filter pass to shards whose merged zone
///     maps do not exclude the predicate, and builds a gather source in
///     place of the table scan. The rest — §3 filter pruning, §5.3/§5.4
///     top-k ordering + boundary initialization, §4 LIMIT pruning, the
///     operators above the source and their profile nodes — is the
///     engine's own code, and leaves one final global scan set on the
///     gather source.
///  2. scatter: the surviving scan set is sliced by shard ownership
///     (partitions already skippable under the initialized top-k boundary
///     are dropped before contact); each surviving shard's engine executes
///     a bare scan sub-plan over exactly its slice, against the one shared
///     table snapshot, on the shared worker pool.
///  3. gather: per-partition row fragments are replayed, in global scan-set
///     order, through the compiled operator tree (limit / top-k / sort /
///     aggregate) with the top-k boundary consulted before each partition —
///     the same consumer-side merge discipline the parallel engine uses, so
///     rows AND per-table PruningStats are byte-identical to a single-engine
///     serial run at every (shard count × thread count), with the shard
///     counters strictly additive on top.
///
/// Unsupported shapes (joins, multi-scan plans) and configurations the
/// gather source does not cover (runtime-phase filter pruning, a predicate
/// cache) fall back to an ordinary single engine — trivially identical.
///
/// Thread safety: a coordinator executes one query at a time (the query
/// service gives each driver thread its own coordinator); the shard
/// sub-queries it scatters run concurrently on internal threads.
class ShardCoordinator {
 public:
  /// Per-execution observability (valid until the next Execute call).
  struct ExecInfo {
    bool sharded = false;  ///< Scatter/gather path (vs single-engine fallback).
    size_t shards_contacted = 0;
    /// Threads spawned for the scatter: 0 when ≤1 shard survived pruning
    /// (the single-survivor fast path runs on the calling thread).
    size_t scatter_threads = 0;
    /// Per shard: excluded by the merged-zone-map probe (cross-shard level).
    std::vector<uint8_t> summary_pruned;
    /// Per shard: executed a sub-query (its slice of the final scan set,
    /// minus init-boundary skips, was non-empty).
    std::vector<uint8_t> contacted;
    /// Shard sub-query re-executions after transient faults (summed over
    /// shards; 0 on a fault-free run).
    int64_t retries = 0;
  };

  ShardCoordinator(Catalog* catalog, ShardExecConfig config);
  ~ShardCoordinator();

  /// Compiles, prunes the shard map, scatters, gathers. `cancel` fans out
  /// to every in-flight shard sub-query (they share the flag) and is polled
  /// between coordinator phases.
  ///
  /// `trace`, when set, records compile/scatter/gather spans, gives every
  /// contacted shard's sub-query its own child trace (stitched under the
  /// scatter span once the scatter joins), and attaches an EXPLAIN ANALYZE
  /// profile to the result whose per-node pruning counters — all attributed
  /// to the gather source, where the coordinator meters — reconcile exactly
  /// against the query's PruningStats.
  ///
  /// `deadline_ns` is an absolute steady-clock deadline (0 = none). It fans
  /// out to every shard sub-query and is checked between coordinator phases
  /// and before each retry backoff; past it the query returns
  /// kDeadlineExceeded.
  Result<QueryResult> Execute(const PlanPtr& plan,
                              const std::atomic<bool>* cancel = nullptr,
                              Trace* trace = nullptr, int64_t deadline_ns = 0);

  const ExecInfo& last_exec() const { return last_exec_; }
  const ShardExecConfig& config() const { return config_; }

 private:
  Result<QueryResult> ExecuteSharded(const PlanPtr& plan,
                                     const PlanNode& scan_node,
                                     std::shared_ptr<Table> table,
                                     const std::atomic<bool>* cancel,
                                     Trace* trace, int64_t deadline_ns);
  /// The cached shard map for the table version, rebuilt after DML swapped
  /// the table object (instance_id mismatch).
  const ShardMap& MapFor(const std::string& name, const Table& table);

  Catalog* catalog_;
  ShardExecConfig config_;
  /// Compiles every sharded query (with the gather source hooked in) and
  /// runs the plans that fall back to a single engine.
  Engine engine_;
  std::vector<std::unique_ptr<Engine>> shard_engines_;
  std::map<std::string, ShardMap> map_cache_;
  ExecInfo last_exec_;
};

}  // namespace shard
}  // namespace snowprune

#endif  // SNOWPRUNE_SHARD_COORDINATOR_H_

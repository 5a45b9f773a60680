/// The repository benchmark: drives one named workload through the public
/// service::QueryService API (Submit / Await) for a fixed time, checks the
/// answers against a serial, unsharded, cache-less Engine, and prints the
/// metrics as one JSON line.
///
///   perfbench --workload prod_mix|scan_heavy|dashboard_dml --seed N
///             --seconds S --trace 0|1 [--spans-out PATH]
///
/// --trace 0 reports the end-to-end metrics: set-up is repeated five times
/// (median reported), then the closed-loop clients run for S seconds.
/// --trace 1 reports the per-layer metrics: four S/4-second windows
/// alternate untraced and traced (every query traced); the benchmark nests
/// the engine's own spans (Handle::trace) under its spans around Submit,
/// Await and freeing the result, and reports self time per span name plus
/// the tracing overhead (traced vs untraced windows). Exit code 1 on a
/// wrong answer, 2 on a usage or set-up error.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "core/filter_pruner.h"
#include "exec/engine.h"
#include "report.h"
#include "service/query_service.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace snowprune;  // NOLINT

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

double CpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e3 +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e3;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Current resident set size, from /proc/self/statm.
double RssMb() {
  long pages = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    long size = 0;
    if (std::fscanf(f, "%ld %ld", &size, &pages) != 2) pages = 0;
    std::fclose(f);
  }
  return static_cast<double>(pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// ---------------------------------------------------------------------------
// Answers
// ---------------------------------------------------------------------------

/// A query's answer, reduced to what the check compares: an order-sensitive
/// hash of every row's typed values, the row count, and its PruningStats.
/// Top-k answers also keep, per row, the hash of its ORDER BY key and of
/// the row, so an answer that differs only in which rows tied on the key it
/// returns, or in their order, can be told apart from a wrong one.
struct Answer {
  uint64_t hash = 0;
  int64_t rows = 0;
  PruningStats stats;
  bool cache_hit = false;
  KeyedRows keyed_rows;  ///< Top-k only.
};

constexpr uint64_t kHashSeed = 1469598103934665603ULL;

uint64_t MixHash(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0xff51afd7ed558ccdULL;
  return h ^ (h >> 33);
}

/// Folds one typed value into `h` (type tag, then the exact bits).
uint64_t HashValueInto(uint64_t h, const Value& v) {
  if (v.is_null()) return MixHash(h, 1);
  if (v.is_bool()) return MixHash(h, 2 + static_cast<uint64_t>(v.bool_value()));
  if (v.is_int64()) {
    return MixHash(MixHash(h, 4), static_cast<uint64_t>(v.int64_value()));
  }
  if (v.is_float64()) {
    uint64_t bits = 0;
    const double d = v.float64_value();
    std::memcpy(&bits, &d, sizeof(bits));
    return MixHash(MixHash(h, 5), bits);
  }
  return MixHash(MixHash(h, 6), std::hash<std::string>()(v.string_value()));
}

uint64_t HashRow(const Row& row) {
  uint64_t h = kHashSeed;
  for (const Value& v : row) h = HashValueInto(h, v);
  return h;
}

Answer Fingerprint(const PlanPtr& plan, const QueryResult& r) {
  Answer a;
  a.rows = static_cast<int64_t>(r.rows.size());
  a.stats = r.stats;
  a.cache_hit = r.predicate_cache_hit;
  std::optional<size_t> order_column;
  if (plan->kind == PlanNode::Kind::kTopK) {
    order_column = r.schema.FindColumn(plan->order_column);
  }
  uint64_t h = kHashSeed;
  for (const Row& row : r.rows) {
    const uint64_t row_hash = HashRow(row);
    h = MixHash(h, row_hash);
    if (order_column.has_value()) {
      a.keyed_rows.emplace_back(HashValueInto(kHashSeed, row[*order_column]),
                                row_hash);
    }
  }
  a.hash = h;
  return a;
}

/// Empty when `got` matches the serial `want`. Shard counters and
/// speculative loads exist only on sharded / parallel runs and are not
/// compared. A predicate-cache hit legitimately shrinks the scan set, so
/// for hits only the counters fixed at compile time are compared; a hit
/// also changes the top-k heap's history, which can reorder rows tied on
/// the ORDER BY key or pick other rows tied on the last key — such an
/// answer matches (see SameUpToTies), and `*tie_reordered` is set
/// (`*tie_substituted` too when other rows were picked).
std::string Diff(const Answer& got, const Answer& want,
                 const RowsWithKey& rows_with_key, bool* tie_reordered,
                 bool* tie_substituted) {
  *tie_reordered = false;
  *tie_substituted = false;
  if (got.rows != want.rows) {
    return "rows " + std::to_string(got.rows) + " vs serial " +
           std::to_string(want.rows);
  }
  if (got.hash != want.hash) {
    if (!got.cache_hit ||
        !SameUpToTies(got.keyed_rows, want.keyed_rows, rows_with_key,
                      tie_substituted)) {
      return "row contents differ from serial";
    }
    *tie_reordered = true;
  }
  const PruningStats& g = got.stats;
  const PruningStats& w = want.stats;
  struct Field {
    const char* name;
    int64_t got;
    int64_t want;
    bool cache_invariant;
  };
  const Field fields[] = {
      {"total_partitions", g.total_partitions, w.total_partitions, true},
      {"pruned_by_filter", g.pruned_by_filter, w.pruned_by_filter, true},
      {"pruned_by_limit", g.pruned_by_limit, w.pruned_by_limit, true},
      {"pruned_by_join", g.pruned_by_join, w.pruned_by_join, false},
      {"pruned_by_topk", g.pruned_by_topk, w.pruned_by_topk, false},
      {"scanned_partitions", g.scanned_partitions, w.scanned_partitions,
       false},
      {"scanned_rows", g.scanned_rows, w.scanned_rows, false},
  };
  for (const Field& f : fields) {
    if (got.cache_hit && !f.cache_invariant) continue;
    if (f.got != f.want) {
      return std::string(f.name) + " " + std::to_string(f.got) +
             " vs serial " + std::to_string(f.want);
    }
  }
  return "";
}

struct Sampled {
  PlanPtr plan;
  Answer answer;
};

// ---------------------------------------------------------------------------
// One measured window
// ---------------------------------------------------------------------------

/// What one completed read reports.
struct ReadRecord {
  int cls = 0;
  double latency_ms = 0.0;  ///< Submit to result freed.
  double queue_ms = 0.0;    ///< Handle::queue_ms.
  double wall_ms = 0.0;     ///< QueryResult::wall_ms.
  double free_ms = 0.0;     ///< Destroying the QueryResult.
  int64_t end_ns = 0;       ///< When the result was freed.
  int64_t rows = 0;
  int64_t shard_retries = 0;
  PruningStats stats;
  // Traced reads only (negative when the span is absent).
  double compile_ms = -1.0;
  double scatter_ms = -1.0;
  double gather_ms = -1.0;
  int64_t stage_tasks = 0;
};

/// Process-wide and cache counters, read before and after a window; the
/// window keeps the difference, so windows of one kind add up.
struct Counters {
  int64_t jit_compiles = 0;
  int64_t jit_hits = 0;
  int64_t jit_fallbacks = 0;
  int64_t jit_invalidations = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_coalesced_waits = 0;
  int64_t loads = 0;
  int64_t loaded_rows = 0;
  std::vector<int64_t> pool_queue_us;  ///< Per-bucket task queue waits.

  static Histogram* PoolQueueHistogram() {
    return MetricsRegistry::Instance().GetHistogram(
        "pool.task_queue_us", {10.0, 50.0, 100.0, 500.0, 1000.0, 5000.0,
                               10000.0, 50000.0, 100000.0});
  }

  /// Everything but the partition-load meters, which the window reads
  /// itself (catalog meters are reset at its start).
  static Counters Take(const Workload& w) {
    MetricsRegistry& m = MetricsRegistry::Instance();
    Counters s;
    s.jit_compiles = m.GetCounter("jit.compiles")->Value();
    s.jit_hits = m.GetCounter("jit.hits")->Value();
    s.jit_fallbacks = m.GetCounter("jit.fallbacks")->Value();
    s.jit_invalidations = m.GetCounter("jit.invalidations")->Value();
    if (w.cache() != nullptr) {
      const PredicateCache::Counters c = w.cache()->snapshot();
      s.cache_hits = c.hits;
      s.cache_misses = c.misses;
      s.cache_coalesced_waits = c.coalesced_waits;
    }
    s.pool_queue_us = PoolQueueHistogram()->BucketCounts();
    return s;
  }

  /// `*this += sign * o`.
  void Add(const Counters& o, int64_t sign = 1) {
    jit_compiles += sign * o.jit_compiles;
    jit_hits += sign * o.jit_hits;
    jit_fallbacks += sign * o.jit_fallbacks;
    jit_invalidations += sign * o.jit_invalidations;
    cache_hits += sign * o.cache_hits;
    cache_misses += sign * o.cache_misses;
    cache_coalesced_waits += sign * o.cache_coalesced_waits;
    loads += sign * o.loads;
    loaded_rows += sign * o.loaded_rows;
    pool_queue_us.resize(
        std::max(pool_queue_us.size(), o.pool_queue_us.size()));
    for (size_t i = 0; i < o.pool_queue_us.size(); ++i) {
      pool_queue_us[i] += sign * o.pool_queue_us[i];
    }
  }
};

struct Window {
  std::vector<ReadRecord> reads;
  Outcomes read_outcomes;
  Outcomes write_outcomes;
  std::vector<WriteSample> writes;
  std::vector<Sampled> samples;
  /// One span tree per traced read, plus one per traced write.
  std::vector<std::vector<Span>> trees;
  double wall_s = 0.0;
  double cpu_ms = 0.0;
  Counters counters;  ///< Change over the window.
  /// Slice boundaries (steady-clock ns) and process CPU ms at each: the
  /// end-to-end rates are medians over slices, so a passing slow phase of
  /// the machine moves one slice, not the figure.
  std::vector<int64_t> slice_ns;
  std::vector<double> slice_cpu_ms;
  std::vector<double> rss_mb;  ///< Resident memory sampled every 10 ms.

  /// Appends `o` (a later window of the same kind).
  void Merge(Window o) {
    reads.insert(reads.end(), o.reads.begin(), o.reads.end());
    read_outcomes.Merge(o.read_outcomes);
    write_outcomes.Merge(o.write_outcomes);
    writes.insert(writes.end(), o.writes.begin(), o.writes.end());
    samples.insert(samples.end(), o.samples.begin(), o.samples.end());
    for (auto& tree : o.trees) trees.push_back(std::move(tree));
    wall_s += o.wall_s;
    cpu_ms += o.cpu_ms;
    counters.Add(o.counters);
    rss_mb.insert(rss_mb.end(), o.rss_mb.begin(), o.rss_mb.end());
  }
};

/// Folds a read's engine trace under the benchmark's own spans: ids 1-5
/// are client.query (root), client.submit, client.await, bench.check and
/// client.free; the engine's roots nest under client.await.
void AddEngineSpans(const Trace& trace, std::vector<Span>* tree,
                    ReadRecord* rec) {
  constexpr uint32_t kAwait = 3;
  constexpr uint32_t kOffset = 5;
  std::vector<uint32_t> roots;
  for (const TraceSpan& s : trace.spans()) {
    const uint32_t parent = s.parent == 0 ? kAwait : s.parent + kOffset;
    tree->push_back(
        Span{s.id + kOffset, parent, s.name, s.start_ns, s.duration_ns});
    if (s.parent == 0) roots.push_back(s.id);
  }
  // Durations of the spans directly under the engine's root "query" span
  // (shard sub-queries have their own compile spans deeper down).
  auto add_top_level = [&](const TraceSpan& s, const char* name, double* ms) {
    if (s.name != name ||
        std::find(roots.begin(), roots.end(), s.parent) == roots.end()) {
      return;
    }
    *ms = std::max(*ms, 0.0) + NsToMs(s.duration_ns);
  };
  for (const TraceSpan& s : trace.spans()) {
    add_top_level(s, "compile", &rec->compile_ms);
    add_top_level(s, "scatter", &rec->scatter_ms);
    add_top_level(s, "gather", &rec->gather_ms);
  }
  rec->stage_tasks = trace.stage_tasks();
}

void Classify(const Status& s, Outcomes* o) {
  switch (s.code()) {
    case StatusCode::kOk:
      ++o->ok;
      break;
    case StatusCode::kResourceExhausted:
      ++o->rejected;
      break;
    case StatusCode::kDeadlineExceeded:
      ++o->deadline_exceeded;
      break;
    case StatusCode::kCancelled:
      ++o->cancelled;
      break;
    default:
      ++o->failed;
      break;
  }
}

/// Closed loop: each client keeps one query outstanding until `seconds`
/// have passed (and, for rotations, its rotation is complete).
/// `trace_run` selects the traced run's traffic; `traced` records spans
/// (the service must then trace every query).
Window RunWindow(Workload* w, service::QueryService* svc, double seconds,
                 bool trace_run, bool traced) {
  Window win;
  const size_t n = w->num_clients();
  std::vector<Window> per_client(n);
  std::atomic<bool> stop{false};

  // Writer hand-off: clients count reads; the writer INSERTs once per
  // reads_per_write() of them.
  std::mutex write_mu;
  std::condition_variable write_cv;
  int64_t reads_done = 0;
  bool writer_stop = false;
  int64_t retired_loads = 0;
  int64_t retired_rows = 0;

  auto client = [&](size_t c) {
    Window& out = per_client[c];
    std::unique_ptr<PlanSource> source = w->MakeSource(c, trace_run);
    int64_t seq = 0;
    while (!(stop.load(std::memory_order_relaxed) && source->AtBoundary())) {
      int cls = 0;
      PlanPtr plan = source->Next(&cls);
      const bool sample = w->SampleInRun(c, seq++);

      const int64_t t0 = TraceNowNs();
      Result<service::QueryService::Handle> handle = svc->Submit(plan);
      const int64_t t_submit = TraceNowNs();
      if (!handle.ok()) {
        Classify(handle.status(), &out.read_outcomes);
        continue;
      }
      std::optional<Result<QueryResult>> result(handle.value().Await());
      const int64_t t_await = TraceNowNs();

      Classify(result->status(), &out.read_outcomes);
      if (!result->ok()) continue;
      ReadRecord rec;
      rec.cls = cls;
      const QueryResult& r = result->value();
      rec.wall_ms = r.wall_ms;
      rec.rows = static_cast<int64_t>(r.rows.size());
      rec.shard_retries = r.shard_retries;
      rec.stats = r.stats;
      if (sample) out.samples.push_back({plan, Fingerprint(plan, r)});
      const int64_t t_free = TraceNowNs();
      result.reset();
      const int64_t t_end = TraceNowNs();
      rec.end_ns = t_end;
      rec.latency_ms = NsToMs((t_await - t0) + (t_end - t_free));
      rec.free_ms = NsToMs(t_end - t_free);
      rec.queue_ms = handle.value().queue_ms();

      if (traced) {
        std::vector<Span> tree = {
            {1, 0, "client.query", t0, t_end - t0},
            {2, 1, "client.submit", t0, t_submit - t0},
            {3, 1, "client.await", t_submit, t_await - t_submit},
            {4, 1, "bench.check", t_await, t_free - t_await},
            {5, 1, "client.free", t_free, t_end - t_free}};
        if (const Trace* trace = handle.value().trace()) {
          AddEngineSpans(*trace, &tree, &rec);
        }
        out.trees.push_back(std::move(tree));
      }
      out.reads.push_back(rec);

      if (w->has_writer()) {
        std::lock_guard<std::mutex> lock(write_mu);
        if (++reads_done % w->reads_per_write() == 0) write_cv.notify_one();
      }
    }
  };

  auto writer = [&] {
    int64_t next = w->reads_per_write();
    while (true) {
      {
        std::unique_lock<std::mutex> lock(write_mu);
        write_cv.wait(lock,
                      [&] { return writer_stop || reads_done >= next; });
        if (writer_stop) return;
        next += w->reads_per_write();
      }
      const int64_t t0 = TraceNowNs();
      WriteSample s = w->WriteOnce(&retired_loads, &retired_rows);
      ++(s.ok ? win.write_outcomes.ok : win.write_outcomes.failed);
      if (traced) {
        const int64_t build_ns = static_cast<int64_t>(s.build_ms * 1e6);
        const int64_t replace_ns = static_cast<int64_t>(s.replace_ms * 1e6);
        win.trees.push_back({{1, 0, "write", t0, build_ns + replace_ns},
                             {2, 1, "write.build", t0, build_ns},
                             {3, 1, "write.replace", t0 + build_ns,
                              replace_ns}});
      }
      win.writes.push_back(s);
    }
  };

  w->catalog()->ResetMeters();
  const Counters before = Counters::Take(*w);
  const double cpu0 = CpuMs();
  const int64_t start_ns = TraceNowNs();
  win.slice_ns.push_back(start_ns);
  win.slice_cpu_ms.push_back(cpu0);
  std::thread writer_thread;
  if (w->has_writer()) writer_thread = std::thread(writer);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < n; ++c) clients.emplace_back(client, c);
  // The main thread marks the slices and samples resident memory.
  constexpr int kSlices = 10;
  for (int i = 1; i <= kSlices; ++i) {
    const int64_t until =
        start_ns + static_cast<int64_t>(seconds * 1e9 * i / kSlices);
    for (int64_t now = TraceNowNs(); now < until; now = TraceNowNs()) {
      win.rss_mb.push_back(RssMb());
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::min<int64_t>(10'000'000, until - now)));
    }
    win.slice_ns.push_back(TraceNowNs());
    win.slice_cpu_ms.push_back(CpuMs());
  }
  stop.store(true);
  for (std::thread& t : clients) t.join();
  win.wall_s = static_cast<double>(TraceNowNs() - start_ns) / 1e9;
  if (writer_thread.joinable()) {
    {
      std::lock_guard<std::mutex> lock(write_mu);
      writer_stop = true;
    }
    write_cv.notify_one();
    writer_thread.join();
  }
  win.cpu_ms = CpuMs() - cpu0;
  win.counters = Counters::Take(*w);
  win.counters.Add(before, -1);
  win.counters.loads = w->catalog()->TotalLoads() + retired_loads;
  win.counters.loaded_rows = w->catalog()->TotalLoadedRows() + retired_rows;
  for (Window& c : per_client) win.Merge(std::move(c));
  return win;
}

// ---------------------------------------------------------------------------
// Set-up and the answer check
// ---------------------------------------------------------------------------

/// Table generation, catalog registration, plan-pool build, service
/// start-up and warm-up. Returns seconds taken; `*build_mb` is the growth
/// of resident memory over table generation and registration.
double SetUp(Workload* w, uint64_t seed,
             std::unique_ptr<service::QueryService>* svc, double* build_mb) {
  svc->reset();  // the service points into the catalog being replaced
  const auto t0 = std::chrono::steady_clock::now();
  const double rss0 = RssMb();
  w->Build(seed);
  *build_mb = RssMb() - rss0;
  *svc = std::make_unique<service::QueryService>(w->catalog(),
                                                 w->ServiceConfig());
  w->WarmUp(svc->get());
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct CheckResult {
  std::vector<PlanPtr> plans;  ///< Every plan compared.
  int tie_reordered = 0;       ///< Matches up to rows tied on the key.
  int tie_substituted = 0;     ///< Of those, other rows on the last key.
  std::string error;           ///< The first mismatch; empty if none.
  bool ok() const { return error.empty() && !plans.empty(); }
};

/// Re-runs the in-run samples and the workload's post-run check plans on a
/// serial (num_threads=1), unsharded, cache-less Engine against the same
/// table versions, stopping at the first mismatch.
CheckResult CheckAnswers(Workload* w, service::QueryService* svc,
                         const std::vector<Sampled>& in_run) {
  EngineConfig cfg;
  cfg.exec.num_threads = 1;
  Engine serial(w->catalog(), cfg);
  CheckResult check;
  auto compare = [&](const PlanPtr& plan, const Answer& got) {
    Result<QueryResult> want = serial.Execute(plan);
    check.plans.push_back(plan);
    if (!want.ok()) {
      check.error = "serial re-run failed: " + want.status().ToString();
      return false;
    }
    // Only consulted for a cache-hit top-k whose rows tied on the last key
    // are not the ones serial chose: the top-k's input, run serially.
    const RowsWithKey rows_with_key = [&](uint64_t key_hash) {
      std::vector<uint64_t> rows;
      Result<QueryResult> input = serial.Execute(plan->child);
      if (!input.ok()) return rows;
      const std::optional<size_t> col =
          input.value().schema.FindColumn(plan->order_column);
      if (!col.has_value()) return rows;
      for (const Row& row : input.value().rows) {
        if (HashValueInto(kHashSeed, row[*col]) == key_hash) {
          rows.push_back(HashRow(row));
        }
      }
      return rows;
    };
    bool tie_reordered = false;
    bool tie_substituted = false;
    const std::string diff = Diff(got, Fingerprint(plan, want.value()),
                                  rows_with_key, &tie_reordered,
                                  &tie_substituted);
    if (!diff.empty()) {
      check.error = diff + " (plan " + plan->Fingerprint() + ")";
    }
    check.tie_reordered += tie_reordered ? 1 : 0;
    check.tie_substituted += tie_substituted ? 1 : 0;
    return diff.empty();
  };
  for (const Sampled& s : in_run) {
    if (!compare(s.plan, s.answer)) return check;
  }
  const std::vector<PlanPtr> served = w->CheckPlans();
  const std::vector<PlanPtr> replayed = w->CheckPlans();
  for (size_t i = 0; i < served.size(); ++i) {
    Result<QueryResult> got = svc->Execute(served[i]);
    if (!got.ok()) {
      check.error = "check query failed: " + got.status().ToString();
      return check;
    }
    if (!compare(replayed[i], Fingerprint(served[i], got.value()))) {
      return check;
    }
  }
  return check;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

std::vector<double> Collect(const std::vector<ReadRecord>& reads,
                            double ReadRecord::*field, int cls = -1) {
  std::vector<double> out;
  for (const ReadRecord& r : reads) {
    if ((cls < 0 || r.cls == cls) && r.*field >= 0.0) out.push_back(r.*field);
  }
  return out;
}

PruningStats SumStats(const std::vector<ReadRecord>& reads) {
  PruningStats sum;
  for (const ReadRecord& r : reads) sum.Merge(r.stats);
  return sum;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double PrunedRatio(const PruningStats& s) {
  return Ratio(static_cast<double>(s.TotalPruned()),
               static_cast<double>(s.total_partitions));
}

struct EndToEnd {
  double qps = 0.0;
  std::optional<double> p50, p90, p99;
  double cpu_ms_per_query = 0.0;
  size_t samples = 0;
  std::vector<double> slice_qps;
};

/// Medians over the window's slices: throughput, CPU per query, and each
/// latency percentile the slices support (pooled over the window's reads
/// otherwise). Merged windows have no slices and use whole-window figures.
EndToEnd Summarize(const Window& win) {
  EndToEnd e;
  const std::vector<double> lat = Collect(win.reads, &ReadRecord::latency_ms);
  e.samples = lat.size();
  e.p99 = SupportedPercentile(lat, 99.0);
  const double ok = static_cast<double>(win.read_outcomes.ok);
  if (win.slice_ns.size() < 2) {
    e.p50 = SupportedPercentile(lat, 50.0);
    e.p90 = SupportedPercentile(lat, 90.0);
    e.qps = Ratio(ok, win.wall_s);
    e.cpu_ms_per_query = Ratio(win.cpu_ms, ok);
    return e;
  }
  const size_t n = win.slice_ns.size() - 1;
  std::vector<std::vector<double>> slice_lat(n);
  for (const ReadRecord& r : win.reads) {
    for (size_t i = 0; i < n; ++i) {
      if (r.end_ns >= win.slice_ns[i] && r.end_ns < win.slice_ns[i + 1]) {
        slice_lat[i].push_back(r.latency_ms);
      }
    }
  }
  std::vector<double> cpu;
  for (size_t i = 0; i < n; ++i) {
    const double done = static_cast<double>(slice_lat[i].size());
    e.slice_qps.push_back(
        done * 1e9 /
        static_cast<double>(win.slice_ns[i + 1] - win.slice_ns[i]));
    cpu.push_back(Ratio(win.slice_cpu_ms[i + 1] - win.slice_cpu_ms[i], done));
  }
  e.qps = Median(e.slice_qps);
  e.cpu_ms_per_query = Median(cpu);
  e.p50 = SlicedPercentile(slice_lat, 50.0);
  e.p90 = SlicedPercentile(slice_lat, 90.0);
  return e;
}

void PrintLine(const char* name, double value, const char* unit) {
  std::printf("  %-40s %14.6f %s\n", name, value, unit);
}

void PrintPercentile(const char* name, const std::optional<double>& v,
                     size_t samples) {
  if (v.has_value()) {
    PrintLine(name, *v, "ms");
  } else {
    std::printf("  %-40s %14s ms (fewer than 10 of %zu samples beyond it)\n",
                name, "n/a", samples);
  }
}

/// The end-to-end metrics of an untraced run.
bool EndToEndReport(const Window& win, const std::vector<double>& setup_s,
                    double catalog_mb, Report* report, std::string* error) {
  const EndToEnd e = Summarize(win);
  if (!e.p50.has_value() || !e.p90.has_value()) {
    *error = "too few samples for p90 (" + std::to_string(e.samples) +
             "); run longer";
    return false;
  }
  const PruningStats stats = SumStats(win.reads);
  Outcomes all = win.read_outcomes;
  all.Merge(win.write_outcomes);
  std::vector<double> write_ms;
  for (const WriteSample& s : win.writes) {
    write_ms.push_back(s.build_ms + s.replace_ms);
  }

  std::printf("end-to-end (%zu latency samples, %.3f s timed, %zu set-ups):\n",
              e.samples, win.wall_s, setup_s.size());
  PrintLine("qps", e.qps, "1/s");
  std::printf("  %-40s", "  (per slice)");
  for (double v : e.slice_qps) std::printf(" %.1f", v);
  std::printf("\n");
  PrintPercentile("latency_p50_ms", e.p50, e.samples);
  PrintPercentile("latency_p90_ms", e.p90, e.samples);
  PrintPercentile("latency_p99_ms", e.p99, e.samples);
  PrintLine("cpu_ms_per_query", e.cpu_ms_per_query, "ms");
  PrintLine("pruned_ratio", PrunedRatio(stats), "ratio");
  PrintLine("processed_ratio", 1.0 - PrunedRatio(stats), "ratio");
  PrintLine("fail_ratio", all.FailRatio(), "ratio");
  PrintLine("catalog_mb", catalog_mb, "MB");
  PrintLine("rss_mb", Median(win.rss_mb), "MB");
  PrintLine("peak_rss_mb", PeakRssMb(), "MB");
  PrintLine("setup_s", Median(setup_s), "s");
  std::printf("  %-40s", "  (per set-up)");
  for (double v : setup_s) std::printf(" %.3f", v);
  std::printf("\n");
  if (!write_ms.empty()) {
    std::printf("  %-40s %14.6f ms (%zu writes)\n", "write_p50_ms",
                Median(write_ms), write_ms.size());
  }

  report->Add("qps", e.qps, "1/s");
  report->Add("latency_p50_ms", *e.p50, "ms");
  report->Add("latency_p90_ms", *e.p90, "ms");
  report->Add("cpu_ms_per_query", e.cpu_ms_per_query, "ms");
  report->Add("processed_ratio", 1.0 - PrunedRatio(stats), "ratio");
  report->Add("catalog_mb", catalog_mb, "MB");
  report->Add("setup_s", Median(setup_s), "s");
  return true;
}

/// Spans every workload records: their self times go into the result
/// line. Any other span (scatter, gather, join.build, agg.drain,
/// sort.drain, compile.specialize, ...) is printed where it occurs.
/// bench.check (the benchmark fingerprinting a sampled answer) and the
/// writer's spans are kept out.
const char* const kSelfTimeSpans[] = {
    "client.submit", "client.await", "client.free", "query",
    "compile",       "execute",      "scan.morsel", "topk.drain"};

/// Microseconds per FilterPruner::Prune over the full table, median over
/// the scan predicates of `plans` (5 timings each). The plans already ran,
/// so their predicates are bound to the tables' schemas.
double FilterPruneUs(const Workload& w, const std::vector<PlanPtr>& plans) {
  std::vector<double> us;
  std::vector<const PlanNode*> stack;
  for (const PlanPtr& p : plans) stack.push_back(p.get());
  while (!stack.empty()) {
    const PlanNode* node = stack.back();
    stack.pop_back();
    for (const PlanPtr& c : {node->child, node->left, node->right}) {
      if (c) stack.push_back(c.get());
    }
    if (node->kind != PlanNode::Kind::kScan || !node->predicate) continue;
    std::shared_ptr<Table> table = w.catalog()->GetTable(node->table);
    if (!table) continue;
    const ScanSet full = table->FullScanSet();
    for (int rep = 0; rep < 5; ++rep) {
      const int64_t t0 = TraceNowNs();
      FilterPruner pruner(node->predicate);
      FilterPruneResult r = pruner.Prune(*table, full);
      const int64_t t1 = TraceNowNs();
      if (r.input_partitions < 0) std::abort();  // keeps the call observable
      us.push_back(static_cast<double>(t1 - t0) / 1e3);
    }
  }
  return Median(us);
}

/// Engine nanoseconds per scanned row of each read of class `cls` (every
/// read when `cls` < 0) that scanned rows.
std::vector<double> NsPerScannedRow(const std::vector<ReadRecord>& reads,
                                    int cls = -1) {
  std::vector<double> ns;
  for (const ReadRecord& r : reads) {
    if ((cls < 0 || r.cls == cls) && r.stats.scanned_rows > 0) {
      ns.push_back(r.wall_ms * 1e6 /
                   static_cast<double>(r.stats.scanned_rows));
    }
  }
  return ns;
}

/// The per-layer metrics of a traced run: `plain` holds the untraced
/// windows, `traced` the traced ones (run on a service whose stats are
/// `ss`); `check` is the answer check's outcome. Metrics defined on every
/// workload go into the result line. Those that exist only where a
/// workload has the class, span or writer behind them are printed, and
/// only there, so no timing in the result line is a constant 0.
void PerLayerReport(const Workload& w, const Window& plain,
                    const Window& traced, const service::ServiceStats& ss,
                    const CheckResult& check, Report* report) {
  const std::vector<ReadRecord>& reads = traced.reads;
  const double q = static_cast<double>(std::max<size_t>(1, reads.size()));
  auto add = [&](const std::string& name, double value, const char* unit) {
    report->Add(name, value, unit);
    PrintLine(name.c_str(), value, unit);
  };
  std::vector<std::string> notes;
  auto note = [&](const std::string& name, double value, const char* unit) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-40s %14.6f %s", name.c_str(),
                  value, unit);
    notes.push_back(line);
  };
  auto pct = [](const std::vector<double>& v, double p) {
    return SupportedPercentile(v, p).value_or(0.0);
  };
  std::printf("per-layer (traced windows: %zu reads, %zu span trees):\n",
              reads.size(), traced.trees.size());

  // service
  const std::vector<double> queue = Collect(reads, &ReadRecord::queue_ms);
  add("service.queue_p50_ms", pct(queue, 50.0), "ms");
  add("service.queue_p90_ms", pct(queue, 90.0), "ms");
  if (std::optional<double> p99 = SupportedPercentile(queue, 99.0)) {
    note("service.queue_p99_ms", *p99, "ms");
  }
  add("service.exec_p50_ms",
      ss.exec_ms.empty() ? 0.0 : Median(ss.exec_ms.samples()), "ms");
  add("service.peak_in_flight", static_cast<double>(ss.peak_in_flight),
      "count");
  add("service.peak_pool_queue_depth",
      static_cast<double>(ss.peak_pool_queue_depth), "count");

  // exec
  add("exec.engine_wall_p50_ms", Median(Collect(reads, &ReadRecord::wall_ms)),
      "ms");
  add("exec.compile_p50_ms", Median(Collect(reads, &ReadRecord::compile_ms)),
      "ms");
  add("exec.result_free_p50_ms", Median(Collect(reads, &ReadRecord::free_ms)),
      "ms");
  double rows = 0.0;
  double stage_tasks = 0.0;
  for (const ReadRecord& r : reads) {
    rows += static_cast<double>(r.rows);
    stage_tasks += static_cast<double>(r.stage_tasks);
  }
  add("exec.rows_returned_per_query", rows / q, "rows");
  add("exec.ns_per_scanned_row", Median(NsPerScannedRow(reads)), "ns");
  const Counters& d = traced.counters;
  add("exec.pool_task_queue_p99_us",
      HistogramPercentile(Counters::PoolQueueHistogram()->bounds(),
                          d.pool_queue_us, 99.0),
      "us");
  add("exec.stage_tasks_per_query", stage_tasks / q, "count");

  // exec, per named class (scan_heavy): the ROADMAP Baseline rows.
  const std::vector<std::string> classes = w.class_names();
  std::map<std::string, int> class_index;
  for (size_t i = 0; i < classes.size(); ++i) {
    class_index[classes[i]] = static_cast<int>(i);
  }
  for (const auto& [name, cls] : class_index) {
    const std::vector<double> ns = NsPerScannedRow(reads, cls);
    if (!ns.empty()) note("exec.ns_per_scanned_row." + name, Median(ns), "ns");
  }
  if (class_index.count("scan_filter") != 0 &&
      class_index.count("scan_filter_count") != 0) {
    const std::vector<double> filter =
        Collect(reads, &ReadRecord::wall_ms, class_index["scan_filter"]);
    const std::vector<double> count =
        Collect(reads, &ReadRecord::wall_ms, class_index["scan_filter_count"]);
    if (!filter.empty() && !count.empty()) {
      note("exec.boundary_share.scan_filter",
           1.0 - Median(count) / Median(filter), "ratio");
      note("exec.result_free_ms.scan_filter",
           Median(Collect(reads, &ReadRecord::free_ms,
                          class_index["scan_filter"])),
           "ms");
    }
  }

  // core: pruners and the predicate cache
  const PruningStats stats = SumStats(reads);
  const double total = static_cast<double>(stats.total_partitions);
  add("core.pruned_ratio", PrunedRatio(stats), "ratio");
  add("core.pruned_ratio.filter",
      Ratio(static_cast<double>(stats.pruned_by_filter), total), "ratio");
  add("core.pruned_ratio.limit",
      Ratio(static_cast<double>(stats.pruned_by_limit), total), "ratio");
  add("core.pruned_ratio.topk",
      Ratio(static_cast<double>(stats.pruned_by_topk), total), "ratio");
  add("core.pruned_ratio.join",
      Ratio(static_cast<double>(stats.pruned_by_join), total), "ratio");
  add("core.speculative_loads_per_query",
      static_cast<double>(stats.speculative_loads) / q, "count");
  add("core.filter_prune_us", FilterPruneUs(w, check.plans), "us");
  add("core.predcache_hit_ratio",
      Ratio(static_cast<double>(d.cache_hits),
            static_cast<double>(d.cache_hits + d.cache_misses)),
      "ratio");
  add("core.predcache_coalesced_waits",
      static_cast<double>(d.cache_coalesced_waits), "count");
  add("core.predcache_tie_reorders", static_cast<double>(check.tie_reordered),
      "count");

  // expr
  add("expr.jit_compiles_per_query", static_cast<double>(d.jit_compiles) / q,
      "count");
  add("expr.jit_hits_per_query", static_cast<double>(d.jit_hits) / q,
      "count");
  add("expr.jit_fallbacks_per_query",
      static_cast<double>(d.jit_fallbacks) / q, "count");
  add("expr.jit_invalidations", static_cast<double>(d.jit_invalidations),
      "count");

  // shard
  double retries = 0.0;
  for (const ReadRecord& r : reads) {
    retries += static_cast<double>(r.shard_retries);
  }
  add("shard.contacted_per_query",
      static_cast<double>(stats.shards_total - stats.shards_pruned) / q,
      "count");
  add("shard.pruned_ratio",
      Ratio(static_cast<double>(stats.shards_pruned),
            static_cast<double>(stats.shards_total)),
      "ratio");
  add("shard.retries_per_query", retries / q, "count");
  const std::vector<double> scatter = Collect(reads, &ReadRecord::scatter_ms);
  const std::vector<double> gather = Collect(reads, &ReadRecord::gather_ms);
  if (!scatter.empty()) note("shard.scatter_p50_ms", Median(scatter), "ms");
  if (!gather.empty()) note("shard.gather_p50_ms", Median(gather), "ms");

  // storage
  add("storage.partitions_loaded_per_query",
      static_cast<double>(d.loads) / q, "count");
  add("storage.rows_loaded_per_query",
      static_cast<double>(d.loaded_rows) / q, "rows");
  if (!traced.writes.empty()) {
    std::vector<double> build_ms, replace_ms, write_ms;
    for (const WriteSample& s : traced.writes) {
      build_ms.push_back(s.build_ms);
      replace_ms.push_back(s.replace_ms);
      write_ms.push_back(s.build_ms + s.replace_ms);
    }
    note("storage.write_p50_ms", Median(write_ms), "ms");
    note("storage.write_build_p50_ms", Median(build_ms), "ms");
    note("storage.replace_p50_ms", Median(replace_ms), "ms");
  }

  // trace: self time per span name, mean per traced read.
  std::map<std::string, int64_t> self;
  size_t read_trees = 0;
  for (const std::vector<Span>& tree : traced.trees) {
    if (tree.empty() || tree[0].name != "client.query") continue;
    ++read_trees;
    for (const auto& [name, ns] : SelfTimeNs(tree)) self[name] += ns;
  }
  const double per = static_cast<double>(std::max<size_t>(1, read_trees));
  for (const char* name : kSelfTimeSpans) {
    add(std::string("trace.self_ms.") + name, NsToMs(self[name]) / per, "ms");
  }
  for (const auto& [name, ns] : self) {
    const bool reported =
        std::find_if(std::begin(kSelfTimeSpans), std::end(kSelfTimeSpans),
                     [&](const char* n) { return name == n; }) !=
        std::end(kSelfTimeSpans);
    if (reported || name == "bench.check") continue;
    note("trace.self_ms." +
             (name == "client.query" ? std::string("unattributed") : name),
         NsToMs(ns) / per, "ms");
  }

  // Tracing overhead: traced windows against the untraced ones.
  const EndToEnd e_plain = Summarize(plain);
  const EndToEnd e_traced = Summarize(traced);
  const double p50_plain = e_plain.p50.value_or(0.0);
  add("trace.overhead.latency_p50",
      p50_plain > 0.0 ? e_traced.p50.value_or(0.0) / p50_plain - 1.0 : 0.0,
      "ratio");
  add("trace.overhead.cpu_per_query",
      e_plain.cpu_ms_per_query > 0.0
          ? e_traced.cpu_ms_per_query / e_plain.cpu_ms_per_query - 1.0
          : 0.0,
      "ratio");

  std::printf("per-layer, where this workload has them (report only):\n");
  for (const std::string& line : notes) std::printf("%s\n", line.c_str());
}

/// Spans stay in memory during the run and are written here at its end:
/// one JSON object per line, {"tree": i, "spans": [[id, parent, name,
/// start_ns, duration_ns], ...]} with starts relative to the first span.
void WriteSpans(const std::string& path,
                const std::vector<std::vector<Span>>& trees) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return;
  }
  int64_t epoch = 0;
  for (const auto& tree : trees) {
    for (const Span& s : tree) {
      if (epoch == 0 || s.start_ns < epoch) epoch = s.start_ns;
    }
  }
  for (size_t i = 0; i < trees.size(); ++i) {
    std::fprintf(f, "{\"tree\": %zu, \"spans\": [", i);
    for (size_t j = 0; j < trees[i].size(); ++j) {
      const Span& s = trees[i][j];
      std::fprintf(f, "%s[%u, %u, \"%s\", %lld, %lld]", j == 0 ? "" : ", ",
                   s.id, s.parent, s.name.c_str(),
                   static_cast<long long>(s.start_ns - epoch),
                   static_cast<long long>(s.duration_ns));
    }
    std::fprintf(f, "]}\n");
  }
  std::fclose(f);
}

int Run(const Args& args) {
  std::unique_ptr<Workload> w = MakeWorkload(args.workload);
  if (!w) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::printf("workload %s, seed %llu, %.1f s, trace %d\n", w->name(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);

  std::unique_ptr<service::QueryService> svc;
  std::vector<double> setup_s;
  const int setups = args.trace ? 1 : 5;
  // The first set-up runs in a fresh process, so only its table build
  // shows as resident-memory growth: that is the catalog's footprint.
  double catalog_mb = 0.0;
  for (int i = 0; i < setups; ++i) {
    double build_mb = 0.0;
    setup_s.push_back(SetUp(w.get(), args.seed, &svc, &build_mb));
    if (i == 0) catalog_mb = build_mb;
  }

  Report report;
  std::string error;
  Window plain;
  Window traced;
  service::ServiceStats traced_stats;
  if (!args.trace) {
    plain = RunWindow(w.get(), svc.get(), args.seconds, false, false);
  } else {
    // Untraced and traced quarters alternate, so drift over the run (warm
    // caches, a growing table) falls on both sides of the overhead figure.
    service::QueryServiceConfig cfg = w->ServiceConfig();
    cfg.trace_every = 1;
    service::QueryService traced_svc(w->catalog(), cfg);
    for (int i = 0; i < 4; ++i) {
      const bool t = i % 2 == 1;
      Window quarter = RunWindow(w.get(), t ? &traced_svc : svc.get(),
                                 args.seconds / 4, true, t);
      (t ? traced : plain).Merge(std::move(quarter));
    }
    traced_stats = traced_svc.stats();
  }

  std::vector<Sampled> samples = plain.samples;
  samples.insert(samples.end(), traced.samples.begin(), traced.samples.end());
  const CheckResult check = CheckAnswers(w.get(), svc.get(), samples);

  bool reported = true;
  if (!args.trace) {
    reported = EndToEndReport(plain, setup_s, catalog_mb, &report, &error);
  } else {
    PerLayerReport(*w, plain, traced, traced_stats, check, &report);
    WriteSpans(args.spans_out, traced.trees);
  }
  std::printf("answer check: %zu answers compared with a serial engine "
              "(%d matched up to rows tied on the ORDER BY key, %d of them "
              "with other rows on the last key): %s\n",
              check.plans.size(), check.tie_reordered, check.tie_substituted,
              check.ok() ? "match" : check.error.c_str());
  if (!check.ok()) {
    std::fprintf(stderr, "answer check failed: %s\n", check.error.c_str());
  }
  if (!reported || !report.ok()) {
    std::fprintf(stderr, "%s\n",
                 reported ? report.error().c_str() : error.c_str());
    return 2;
  }
  Outcomes outcomes = plain.read_outcomes;
  for (const Outcomes& o :
       {plain.write_outcomes, traced.read_outcomes, traced.write_outcomes}) {
    outcomes.Merge(o);
  }
  std::printf("%s\n", report.ResultLine(check.ok(), outcomes.attempted(),
                                        outcomes.not_ok())
                          .c_str());
  return check.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload prod_mix|scan_heavy|"
                 "dashboard_dml --seed N --seconds S --trace 0|1 "
                 "[--spans-out PATH]\n");
    return 2;
  }
  return perfbench::Run(args);
}

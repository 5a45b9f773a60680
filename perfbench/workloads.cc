#include "workloads.h"

#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <utility>

#include "common/rng.h"
#include "common/trace.h"
#include "expr/builder.h"
#include "storage/column.h"
#include "storage/partition.h"
#include "workload/production_model.h"
#include "workload/query_gen.h"
#include "workload/table_gen.h"

namespace perfbench {

using namespace snowprune;  // NOLINT

namespace {

/// Derives independent sub-seeds (tables, streams, pools) from the run seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void AddTable(Catalog* catalog, const char* name, workload::Layout layout,
              size_t partitions, size_t rows, double null_fraction,
              uint64_t seed) {
  workload::TableGenConfig cfg;
  cfg.name = name;
  cfg.layout = layout;
  cfg.num_partitions = partitions;
  cfg.rows_per_partition = rows;
  cfg.null_fraction = null_fraction;
  cfg.seed = seed;
  Status s = catalog->RegisterTable(workload::SyntheticTable(cfg));
  if (!s.ok()) {
    std::fprintf(stderr, "register %s: %s\n", name, s.ToString().c_str());
    std::exit(2);
  }
}

// ---------------------------------------------------------------------------
// prod_mix: the default ProductionModel over the standard mixed-layout
// catalog (sorted, clustered and random probe tables, two build tables).
// ---------------------------------------------------------------------------

const std::vector<std::string> kProbeTables = {"probe_sorted",
                                               "probe_clustered",
                                               "probe_random"};
const std::vector<std::string> kBuildTables = {"build_small", "build_tiny"};

class GeneratorSource : public PlanSource {
 public:
  GeneratorSource(const Catalog* catalog, uint64_t seed)
      : gen_(catalog, kProbeTables, kBuildTables, workload::ProductionModel(),
             Config(seed)) {}

  PlanPtr Next(int* cls) override {
    workload::GeneratedQuery q = gen_.Generate();
    *cls = static_cast<int>(q.query_class);
    return q.plan;
  }

 private:
  static workload::QueryGenerator::Config Config(uint64_t seed) {
    workload::QueryGenerator::Config c;
    c.seed = seed;
    return c;
  }

  workload::QueryGenerator gen_;
};

class ProdMix : public Workload {
 public:
  const char* name() const override { return "prod_mix"; }

  void Build(uint64_t seed) override {
    seed_ = seed;
    catalog_ = std::make_unique<Catalog>();
    Catalog* c = catalog_.get();
    AddTable(c, "probe_sorted", workload::Layout::kSorted, 200, 500, 0.0,
             SubSeed(seed, 1));
    AddTable(c, "probe_clustered", workload::Layout::kClustered, 200, 500,
             0.02, SubSeed(seed, 2));
    AddTable(c, "probe_random", workload::Layout::kRandom, 80, 500, 0.0,
             SubSeed(seed, 3));
    AddTable(c, "build_small", workload::Layout::kRandom, 2, 1500, 0.0,
             SubSeed(seed, 4));
    AddTable(c, "build_tiny", workload::Layout::kClustered, 1, 800, 0.0,
             SubSeed(seed, 5));
  }

  service::QueryServiceConfig ServiceConfig() const override {
    service::QueryServiceConfig cfg;
    cfg.num_threads = 2;
    cfg.max_in_flight = 2;
    cfg.num_shards = 2;
    cfg.shard_policy = shard::ShardPolicy::kRange;
    return cfg;
  }

  size_t num_clients() const override { return 2; }

  std::unique_ptr<PlanSource> MakeSource(size_t client,
                                         bool /*traced*/) const override {
    return std::make_unique<GeneratorSource>(catalog_.get(),
                                             SubSeed(seed_, 100 + client));
  }

  void WarmUp(service::QueryService* service) override {
    GeneratorSource warm(catalog_.get(), SubSeed(seed_, 99));
    for (int i = 0; i < 50; ++i) {
      int cls = 0;
      (void)service->Execute(warm.Next(&cls));
    }
  }

  /// Every 25th query of each stream, at most 24 per stream.
  bool SampleInRun(size_t /*client*/, int64_t seq) const override {
    return seq % 25 == 0 && seq < 25 * 24;
  }

 private:
  uint64_t seed_ = 0;
};

// ---------------------------------------------------------------------------
// scan_heavy: a fixed rotation of operator-bound classes over one
// random-layout table, where no zone map excludes anything.
// ---------------------------------------------------------------------------

enum ScanClass {
  kScanFilter,
  kScanAgg,
  kArithFilter,
  kJoin,
  kTopK,
  kSort,
  kScanFilterCount,  ///< COUNT(*) twin of scan_filter (no rows boxed).
  kScanSum,          ///< Ungrouped SUM twin of scan_agg.
};

/// scan_filter runs twice per rotation: with seven equally frequent slots
/// the median and the 90th percentile fall inside one class's latencies
/// instead of on the boundary between two classes.
const std::vector<int> kRotation = {kScanFilter, kScanAgg,  kArithFilter,
                                    kScanFilter, kJoin,     kTopK,
                                    kSort};
const std::vector<int> kTracedExtras = {kScanFilterCount, kScanSum};

const char kScanTable[] = "scan_random";

ExprPtr ScanFilter() {
  return Between(Col("key"), Value(int64_t{100000}), Value(int64_t{900000}));
}

PlanPtr ScanHeavyPlan(int cls) {
  switch (cls) {
    case kScanFilter:
      return ScanPlan(kScanTable, ScanFilter());
    case kScanAgg:
      return AggregatePlan(ScanPlan(kScanTable), {"cat"},
                           {AggPlanSpec{AggFunc::kCount, "", "n"},
                            AggPlanSpec{AggFunc::kSum, "key", "key_sum"},
                            AggPlanSpec{AggFunc::kMin, "ts", "ts_min"},
                            AggPlanSpec{AggFunc::kMax, "key", "key_max"}});
    case kArithFilter:
      return ScanPlan(kScanTable, Gt(Add(Mul(Col("key"), Lit(int64_t{3})),
                                         Col("ts")),
                                     Lit(int64_t{2000000})));
    case kJoin:
      return JoinPlan(ScanPlan(kScanTable), ScanPlan("build_small"), "key",
                      "key");
    case kTopK:
      return TopKPlan(ScanPlan(kScanTable, ScanFilter()), "key",
                      /*descending=*/true, 100);
    case kSort:
      return SortPlan(ScanPlan(kScanTable, ScanFilter()), "key",
                      /*descending=*/false);
    case kScanFilterCount:
      return AggregatePlan(ScanPlan(kScanTable, ScanFilter()), {},
                           {AggPlanSpec{AggFunc::kCount, "", "n"}});
    case kScanSum:
      return AggregatePlan(ScanPlan(kScanTable), {},
                           {AggPlanSpec{AggFunc::kSum, "key", "key_sum"}});
    default:
      std::abort();
  }
}

class RotationSource : public PlanSource {
 public:
  explicit RotationSource(std::vector<int> rotation)
      : rotation_(std::move(rotation)) {}

  PlanPtr Next(int* cls) override {
    *cls = rotation_[pos_];
    pos_ = (pos_ + 1) % rotation_.size();
    return ScanHeavyPlan(*cls);
  }
  bool AtBoundary() const override { return pos_ == 0; }

 private:
  std::vector<int> rotation_;
  size_t pos_ = 0;
};

class ScanHeavy : public Workload {
 public:
  const char* name() const override { return "scan_heavy"; }

  void Build(uint64_t seed) override {
    catalog_ = std::make_unique<Catalog>();
    AddTable(catalog_.get(), kScanTable, workload::Layout::kRandom, 400, 500,
             0.0, SubSeed(seed, 1));
    AddTable(catalog_.get(), "build_small", workload::Layout::kRandom, 2,
             1500, 0.0, SubSeed(seed, 2));
  }

  service::QueryServiceConfig ServiceConfig() const override {
    service::QueryServiceConfig cfg;
    cfg.num_threads = 2;
    cfg.max_in_flight = 2;
    return cfg;
  }

  size_t num_clients() const override { return 1; }

  std::unique_ptr<PlanSource> MakeSource(size_t /*client*/,
                                         bool traced) const override {
    std::vector<int> rotation = kRotation;
    if (traced) {
      rotation.insert(rotation.end(), kTracedExtras.begin(),
                      kTracedExtras.end());
    }
    return std::make_unique<RotationSource>(std::move(rotation));
  }

  std::vector<std::string> class_names() const override {
    return {"scan_filter", "scan_agg",          "arith_filter", "join",
            "topk",        "sort",              "scan_filter_count",
            "scan_sum"};
  }

  void WarmUp(service::QueryService* service) override {
    RotationSource warm(kRotation);
    do {
      int cls = 0;
      (void)service->Execute(warm.Next(&cls));
    } while (!warm.AtBoundary());
  }

  /// The first rotation (twins included on the traced run).
  bool SampleInRun(size_t /*client*/, int64_t seq) const override {
    return seq < static_cast<int64_t>(kRotation.size() + kTracedExtras.size());
  }
};

// ---------------------------------------------------------------------------
// dashboard_dml: a fixed pool of dashboard plans replayed by Zipf through a
// shared predicate cache, with one INSERT per 100 reads.
// ---------------------------------------------------------------------------

enum DashKind { kDashTopK, kDashLimit, kDashSelect };

/// One dashboard tile. Literals are fixed per spec, so a replay of the spec
/// has the same fingerprint (and the same predicate-cache entry).
struct DashSpec {
  DashKind kind = kDashTopK;
  std::string table;
  std::string order_column;
  bool descending = true;
  int64_t k = 10;
  enum { kNone, kKeyRange, kCategory } predicate = kNone;
  int64_t lo = 0;
  int64_t hi = 0;
  std::string category;
};

PlanPtr DashPlan(const DashSpec& s) {
  ExprPtr predicate;
  if (s.predicate == DashSpec::kKeyRange) {
    predicate = Between(Col("key"), Value(s.lo), Value(s.hi));
  } else if (s.predicate == DashSpec::kCategory) {
    predicate = Eq(Col("cat"), Lit(s.category));
  }
  switch (s.kind) {
    case kDashTopK:
      return TopKPlan(ScanPlan(s.table, predicate), s.order_column,
                      s.descending, s.k);
    case kDashLimit:
      return LimitPlan(ScanPlan(s.table, predicate), s.k);
    case kDashSelect:
      return ScanPlan(s.table, predicate);
  }
  std::abort();
}

constexpr size_t kDashPoolSize = 200;
constexpr int64_t kDomain = 1'000'000;
const char kDmlTable[] = "probe_clustered";

/// The pool's shape: pool rank r (0 = hottest) uses template r % 20, so
/// the traffic mix and each tile's selectivity are the same for every
/// seed; the seed places the key ranges. 14 top-k, 3 LIMIT probes and 3
/// small filtered selects.
struct DashTemplate {
  DashKind kind;
  bool sorted_table;  ///< probe_sorted, else probe_clustered.
  const char* order_column;
  bool descending;
  int64_t k;
  /// Key-range width as a share of the domain; 0 = no key range.
  double width;
  bool category;  ///< Filter on one category instead.
};

const DashTemplate kDashTemplates[] = {
    {kDashTopK, true, "key", true, 10, 0.0, false},
    {kDashTopK, false, "ts", true, 20, 0.0, false},
    {kDashTopK, true, "key", true, 50, 0.05, false},
    {kDashTopK, false, "key", true, 10, 0.02, false},
    {kDashTopK, true, "val", true, 10, 0.0, true},
    {kDashTopK, false, "val", false, 100, 0.10, false},
    {kDashTopK, true, "ts", false, 20, 0.0, false},
    {kDashTopK, false, "key", false, 50, 0.0, true},
    {kDashTopK, true, "key", true, 100, 0.20, false},
    {kDashTopK, false, "ts", true, 10, 0.01, false},
    {kDashTopK, true, "val", true, 50, 0.0, false},
    {kDashTopK, false, "key", true, 20, 0.0, false},
    {kDashTopK, true, "ts", true, 10, 0.05, false},
    {kDashTopK, false, "val", true, 20, 0.0, true},
    {kDashLimit, true, "", true, 1, 0.02, false},
    {kDashLimit, false, "", true, 100, 0.0, false},
    {kDashLimit, false, "", true, 10, 0.0, true},
    {kDashSelect, true, "", true, 0, 0.001, false},
    {kDashSelect, false, "", true, 0, 0.002, false},
    {kDashSelect, true, "", true, 0, 0.0005, false},
};

std::vector<DashSpec> MakeDashPool(uint64_t seed) {
  Rng rng(seed);
  std::vector<DashSpec> pool;
  constexpr size_t kTemplates = std::size(kDashTemplates);
  for (size_t r = 0; r < kDashPoolSize; ++r) {
    const DashTemplate& t = kDashTemplates[r % kTemplates];
    DashSpec s;
    s.kind = t.kind;
    s.table = t.sorted_table ? "probe_sorted" : kDmlTable;
    s.order_column = t.order_column;
    s.descending = t.descending;
    s.k = t.k;
    if (t.width > 0.0) {
      const int64_t width = static_cast<int64_t>(t.width * kDomain);
      s.predicate = DashSpec::kKeyRange;
      s.lo = rng.UniformInt(0, kDomain - width);
      s.hi = s.lo + width;
    } else if (t.category) {
      // Categories are Zipf-distributed; spreading the tiles over the
      // ranks 1-10 keeps each tile's selectivity fixed across seeds.
      char buf[16];
      std::snprintf(buf, sizeof(buf), "c%04zu", 1 + r % 10);
      s.predicate = DashSpec::kCategory;
      s.category = buf;
    }
    pool.push_back(std::move(s));
  }
  return pool;
}

class ZipfSource : public PlanSource {
 public:
  ZipfSource(const std::vector<DashSpec>* pool, uint64_t seed)
      : pool_(pool), rng_(seed), zipf_(pool->size(), 1.0) {}

  PlanPtr Next(int* cls) override {
    const DashSpec& s = (*pool_)[zipf_.Sample(&rng_) - 1];
    *cls = s.kind;
    return DashPlan(s);
  }

 private:
  const std::vector<DashSpec>* pool_;
  Rng rng_;
  ZipfSampler zipf_;
};

class DashboardDml : public Workload {
 public:
  const char* name() const override { return "dashboard_dml"; }

  void Build(uint64_t seed) override {
    seed_ = seed;
    catalog_ = std::make_unique<Catalog>();
    AddTable(catalog_.get(), "probe_sorted", workload::Layout::kSorted, 200,
             500, 0.0, SubSeed(seed, 1));
    AddTable(catalog_.get(), kDmlTable, workload::Layout::kClustered, 200,
             500, 0.02, SubSeed(seed, 2));
    cache_ = std::make_unique<PredicateCache>(4096);
    pool_ = MakeDashPool(SubSeed(seed, 3));
    writer_rng_ = Rng(SubSeed(seed, 5));
    inserted_ = 0;
  }

  service::QueryServiceConfig ServiceConfig() const override {
    service::QueryServiceConfig cfg;
    cfg.num_threads = 2;
    cfg.max_in_flight = 2;
    cfg.engine.predicate_cache = cache_.get();
    return cfg;
  }

  size_t num_clients() const override { return 2; }

  std::unique_ptr<PlanSource> MakeSource(size_t client,
                                         bool /*traced*/) const override {
    return std::make_unique<ZipfSource>(&pool_, SubSeed(seed_, 100 + client));
  }

  /// Every tile once: the cache starts warm.
  void WarmUp(service::QueryService* service) override {
    for (const DashSpec& s : pool_) (void)service->Execute(DashPlan(s));
  }

  bool SampleInRun(size_t, int64_t) const override { return false; }

  /// The 40 most-requested tiles.
  std::vector<PlanPtr> CheckPlans() const override {
    std::vector<PlanPtr> plans;
    for (size_t r = 0; r < 40; ++r) plans.push_back(DashPlan(pool_[r]));
    return plans;
  }

  bool has_writer() const override { return true; }
  int64_t reads_per_write() const override { return 100; }

  /// INSERT of one 500-row partition into probe_clustered: a new table
  /// version is built through the public Table API (every existing
  /// partition copied, the new one appended) and swapped in with
  /// Catalog::ReplaceTable. New rows continue the ingestion order: ids and
  /// ts ascend, keys climb past the previous maximum.
  WriteSample WriteOnce(int64_t* retired_loads,
                        int64_t* retired_rows) override {
    WriteSample sample;
    const int64_t t0 = TraceNowNs();
    std::shared_ptr<Table> old = catalog_->GetTable(kDmlTable);
    auto next = std::make_shared<Table>(old->name(), old->schema());
    for (size_t pid = 0; pid < old->num_partitions(); ++pid) {
      next->AppendPartition(
          old->partition_metadata(static_cast<PartitionId>(pid)));
    }
    constexpr int64_t kRows = 500;
    const int64_t first_row = old->num_rows();
    std::vector<ColumnVector> columns;
    for (const Field& f : old->schema().fields()) columns.emplace_back(f.type);
    char cat[16];
    for (int64_t i = 0; i < kRows; ++i) {
      columns[0].AppendInt64(first_row + i);
      columns[1].AppendInt64(kDomain + inserted_ * kRows + i);
      if (writer_rng_.Bernoulli(0.02)) {
        columns[2].AppendNull();
      } else {
        columns[2].AppendFloat64(writer_rng_.Uniform() * 1000.0);
      }
      std::snprintf(cat, sizeof(cat), "c%04lld",
                    static_cast<long long>(writer_rng_.UniformInt(0, 999)));
      columns[3].AppendString(cat);
      columns[4].AppendInt64(first_row + i);
    }
    next->AppendPartition(MicroPartition(
        static_cast<PartitionId>(old->num_partitions()), std::move(columns)));
    const int64_t t1 = TraceNowNs();
    const Status s = catalog_->ReplaceTable(next);
    const int64_t t2 = TraceNowNs();
    *retired_loads += old->load_count();
    *retired_rows += old->loaded_rows();
    ++inserted_;
    sample.build_ms = static_cast<double>(t1 - t0) / 1e6;
    sample.replace_ms = static_cast<double>(t2 - t1) / 1e6;
    sample.ok = s.ok();
    return sample;
  }

 private:
  uint64_t seed_ = 0;
  /// Indexed by Zipf rank (0 = hottest).
  std::vector<DashSpec> pool_;
  Rng writer_rng_{0};
  int64_t inserted_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "prod_mix") return std::make_unique<ProdMix>();
  if (name == "scan_heavy") return std::make_unique<ScanHeavy>();
  if (name == "dashboard_dml") return std::make_unique<DashboardDml>();
  return nullptr;
}

}  // namespace perfbench

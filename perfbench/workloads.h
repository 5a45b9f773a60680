#ifndef SNOWPRUNE_PERFBENCH_WORKLOADS_H_
#define SNOWPRUNE_PERFBENCH_WORKLOADS_H_

/// The benchmark's three workloads. Each builds its inputs from the seed,
/// configures the QueryService it runs against, and hands each client
/// stream a plan source. The program only ever sees the generated plans.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/predicate_cache.h"
#include "exec/plan.h"
#include "service/query_service.h"
#include "storage/catalog.h"

namespace perfbench {

/// One client stream's sequence of plans. Next() builds a fresh plan each
/// call (a PlanPtr must not be in flight twice), before the caller starts
/// its timer.
class PlanSource {
 public:
  virtual ~PlanSource() = default;
  /// The next plan and its class label (an index into class_names(), when
  /// the workload names its classes).
  virtual snowprune::PlanPtr Next(int* cls) = 0;
  /// Whether the stream may stop before the next plan (fixed rotations stop
  /// only after a whole rotation).
  virtual bool AtBoundary() const { return true; }
};

/// A background writer competing with the reads (dashboard_dml's INSERTs).
struct WriteSample {
  double build_ms = 0.0;
  double replace_ms = 0.0;
  bool ok = false;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  /// Builds the catalog and plan pools from the seed. Called again for
  /// each set-up repetition; every call replaces the previous state.
  virtual void Build(uint64_t seed) = 0;
  virtual snowprune::service::QueryServiceConfig ServiceConfig() const = 0;
  virtual size_t num_clients() const = 0;
  /// `traced` selects the traced run's traffic (scan_heavy adds its
  /// COUNT(*) and ungrouped SUM twins to the rotation).
  virtual std::unique_ptr<PlanSource> MakeSource(size_t client,
                                                 bool traced) const = 0;
  /// Names of the class labels PlanSource::Next reports, for workloads
  /// whose classes get their own exec metrics (ns per scanned row,
  /// boundary share); empty otherwise.
  virtual std::vector<std::string> class_names() const { return {}; }
  /// Queries run through the service during set-up, before any timing.
  virtual void WarmUp(snowprune::service::QueryService* service) = 0;

  /// In-run answer sampling: whether query `seq` of `client` has its
  /// answer recorded for the serial re-run. Post-run workloads return false
  /// and provide CheckPlans() instead.
  virtual bool SampleInRun(size_t client, int64_t seq) const = 0;
  /// Plans replayed through the service after the run (when writes make
  /// in-run answers depend on which table version a read saw).
  virtual std::vector<snowprune::PlanPtr> CheckPlans() const { return {}; }

  /// Whether a background writer runs; WriteOnce performs one INSERT.
  virtual bool has_writer() const { return false; }
  virtual int64_t reads_per_write() const { return 0; }
  /// One INSERT; adds the retired version's partition loads to
  /// `*retired_loads`/`*retired_rows` (its meters leave the catalog).
  virtual WriteSample WriteOnce(int64_t* /*retired_loads*/,
                                int64_t* /*retired_rows*/) {
    return {};
  }

  snowprune::Catalog* catalog() const { return catalog_.get(); }
  snowprune::PredicateCache* cache() const { return cache_.get(); }

 protected:
  std::unique_ptr<snowprune::Catalog> catalog_;
  std::unique_ptr<snowprune::PredicateCache> cache_;
};

/// "prod_mix", "scan_heavy" or "dashboard_dml"; null for another name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

}  // namespace perfbench

#endif  // SNOWPRUNE_PERFBENCH_WORKLOADS_H_

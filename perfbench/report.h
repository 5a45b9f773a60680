#ifndef SNOWPRUNE_PERFBENCH_REPORT_H_
#define SNOWPRUNE_PERFBENCH_REPORT_H_

/// Pure helpers of the repository benchmark: percentiles with a
/// sample-support rule, span self-time arithmetic, failure accounting, the
/// answer check's rule for rows tied on a top-k's key, and the metric
/// report. No engine types here, so perfbench_test exercises
/// every rule without building a catalog.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Samples needed beyond a percentile before it is reported: a p99 needs
/// at least 1000 samples, a p90 at least 100.
constexpr double kMinSamplesBeyond = 10.0;

/// Linear interpolation between order statistics; `p` in [0, 100].
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = p / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

/// The p-th percentile, or nullopt when fewer than kMinSamplesBeyond
/// samples lie beyond it.
inline std::optional<double> SupportedPercentile(
    const std::vector<double>& samples, double p) {
  const double beyond = static_cast<double>(samples.size()) * (1.0 - p / 100.0);
  if (beyond + 1e-9 < kMinSamplesBeyond) return std::nullopt;
  return Percentile(samples, p);
}

inline double Median(const std::vector<double>& samples) {
  return Percentile(samples, 50.0);
}

/// The median over time slices of each slice's p-th percentile, when every
/// slice supports it; otherwise the percentile of all samples pooled (or
/// nullopt when even the pool does not support it). A slow phase covering
/// fewer than half the slices then leaves the figure alone.
inline std::optional<double> SlicedPercentile(
    const std::vector<std::vector<double>>& slices, double p) {
  std::vector<double> per_slice;
  std::vector<double> pooled;
  for (const std::vector<double>& s : slices) {
    pooled.insert(pooled.end(), s.begin(), s.end());
    if (std::optional<double> v = SupportedPercentile(s, p)) {
      per_slice.push_back(*v);
    }
  }
  if (!slices.empty() && per_slice.size() == slices.size()) {
    return Median(per_slice);
  }
  return SupportedPercentile(pooled, p);
}

/// Percentile of a bucketed histogram: `counts[i]` samples fell in
/// (bounds[i-1], bounds[i]]; the last count is the +Inf bucket. The rank is
/// interpolated linearly inside its bucket (lower edge 0 for the first);
/// a rank in the +Inf bucket reports the last finite edge.
inline double HistogramPercentile(const std::vector<double>& bounds,
                                  const std::vector<int64_t>& counts,
                                  double p) {
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  if (total == 0 || bounds.empty()) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(total);
  double seen = 0.0;
  for (size_t i = 0; i < counts.size(); ++i) {
    const double c = static_cast<double>(counts[i]);
    if (c > 0.0 && seen + c >= rank) {
      if (i >= bounds.size()) return bounds.back();
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      return lo + (bounds[i] - lo) * ((rank - seen) / c);
    }
    seen += c;
  }
  return bounds.back();
}

/// One span of a request's tree. Times are absolute steady-clock ns.
struct Span {
  uint32_t id = 0;
  uint32_t parent = 0;  ///< 0 = root.
  std::string name;
  int64_t start_ns = 0;
  int64_t duration_ns = 0;
};

/// Length of the union of [start, end) intervals clipped to [lo, hi).
inline int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                         int64_t lo, int64_t hi) {
  for (auto& iv : intervals) {
    iv.first = std::max(iv.first, lo);
    iv.second = std::min(iv.second, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cur_lo = 0;
  int64_t cur_hi = 0;
  bool open = false;
  for (const auto& [a, b] : intervals) {
    if (b <= a) continue;
    if (open && a <= cur_hi) {
      cur_hi = std::max(cur_hi, b);
      continue;
    }
    if (open) covered += cur_hi - cur_lo;
    cur_lo = a;
    cur_hi = b;
    open = true;
  }
  if (open) covered += cur_hi - cur_lo;
  return covered;
}

/// Self time per span name: each span's duration minus the part of its
/// interval its children cover (children overlapping each other, as
/// parallel morsels do, count once). Self times of one tree sum to the
/// roots' durations when children stay inside their parents.
inline std::map<std::string, int64_t> SelfTimeNs(
    const std::vector<Span>& spans) {
  std::map<uint32_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) {
      children[s.parent].emplace_back(s.start_ns, s.start_ns + s.duration_ns);
    }
  }
  std::map<std::string, int64_t> self;
  for (const Span& s : spans) {
    const int64_t end = s.start_ns + s.duration_ns;
    auto it = children.find(s.id);
    const int64_t covered =
        it == children.end() ? 0 : CoveredNs(it->second, s.start_ns, end);
    self[s.name] += s.duration_ns - covered;
  }
  return self;
}

/// How each attempted operation ended. Every attempt lands in exactly one
/// bucket; anything but `ok` counts as failed.
struct Outcomes {
  int64_t ok = 0;
  int64_t failed = 0;             ///< Non-OK status other than below.
  int64_t rejected = 0;           ///< Submit refused (admission).
  int64_t deadline_exceeded = 0;
  int64_t cancelled = 0;

  int64_t attempted() const {
    return ok + failed + rejected + deadline_exceeded + cancelled;
  }
  int64_t not_ok() const { return attempted() - ok; }
  double FailRatio() const {
    const int64_t n = attempted();
    if (n == 0) return 0.0;
    return static_cast<double>(not_ok()) / static_cast<double>(n);
  }
  void Merge(const Outcomes& o) {
    ok += o.ok;
    failed += o.failed;
    rejected += o.rejected;
    deadline_exceeded += o.deadline_exceeded;
    cancelled += o.cancelled;
  }
};

/// A top-k answer as {hash of the row's ORDER BY key, hash of the row} per
/// row, in answer order.
using KeyedRows = std::vector<std::pair<uint64_t, uint64_t>>;

/// The row hashes of every row a top-k's input yields whose ORDER BY key
/// hashes to the argument.
using RowsWithKey = std::function<std::vector<uint64_t>(uint64_t)>;

/// The sorted row hashes of `rows` whose key is (`with_key`) or is not
/// `key`.
inline std::vector<uint64_t> SortedRowHashes(const KeyedRows& rows,
                                             uint64_t key, bool with_key) {
  std::vector<uint64_t> out;
  for (const auto& [k, row] : rows) {
    if ((k == key) == with_key) out.push_back(row);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// True when top-k answer `got` differs from `want` only where SQL leaves
/// the choice open: the ORDER BY key sequence is the same, every row whose
/// key is not the last (k-th) key is the same row (in any order among equal
/// keys), and the rows with the last key are rows of the top-k's input with
/// that key — not necessarily the ones `want` holds, when more rows share
/// it than fit in k. `*substituted` is set when that last case decided.
inline bool SameUpToTies(const KeyedRows& got, const KeyedRows& want,
                         const RowsWithKey& rows_with_key, bool* substituted) {
  *substituted = false;
  if (got.empty() || got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].first != want[i].first) return false;
  }
  const uint64_t last = want.back().first;
  if (SortedRowHashes(got, last, false) != SortedRowHashes(want, last, false)) {
    return false;
  }
  const std::vector<uint64_t> got_tied = SortedRowHashes(got, last, true);
  if (got_tied == SortedRowHashes(want, last, true)) return true;
  std::vector<uint64_t> input_tied = rows_with_key(last);
  std::sort(input_tied.begin(), input_tied.end());
  *substituted = true;
  return std::includes(input_tied.begin(), input_tied.end(), got_tied.begin(),
                       got_tied.end());
}

/// Metric names: a letter or digit first, then at most 63 more of
/// [A-Za-z0-9_.-].
inline bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  for (char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

/// Units: [A-Za-z0-9_/%.-], at most 16 characters.
inline bool ValidUnit(const std::string& unit) {
  if (unit.empty() || unit.size() > 16) return false;
  for (char c : unit) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '/' ||
                    c == '%' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

/// Ordered metric set for the final result line. Add() rejects invalid or
/// duplicate names and non-finite values; error() says which.
class Report {
 public:
  bool Add(const std::string& name, double value, const std::string& unit) {
    if (!ValidMetricName(name)) return Fail("bad metric name: " + name);
    if (!ValidUnit(unit)) return Fail("bad unit for " + name + ": " + unit);
    if (!std::isfinite(value)) return Fail("non-finite value for " + name);
    for (const auto& m : metrics_) {
      if (m.name == name) return Fail("duplicate metric: " + name);
    }
    metrics_.push_back({name, value, unit});
    return true;
  }

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  /// {"correct": .., "attempted": .., "failed": .., "metrics": {name:
  /// {"value": v, "unit": u}, ...}} on one line; values keep 17
  /// significant digits.
  std::string ResultLine(bool correct, int64_t attempted,
                         int64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[40];
      std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
      if (i > 0) out += ", ";
      out += "\"" + metrics_[i].name + "\": {\"value\": " + value +
             ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    out += "}}";
    return out;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };

  bool Fail(std::string message) {
    if (error_.empty()) error_ = std::move(message);
    return false;
  }

  std::vector<Metric> metrics_;
  std::string error_;
};

}  // namespace perfbench

#endif  // SNOWPRUNE_PERFBENCH_REPORT_H_

/// Tests of the benchmark's own arithmetic: the percentile sample-support
/// rule, span self time, failure accounting, the top-k tie rule of the
/// answer check and metric-name validation.
/// Plain checks that stay on in every build; exit code 1 on a failure.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "report.h"

namespace {

int g_failures = 0;

void Check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++g_failures;
  }
}

#define CHECK(cond) Check((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(i + 1));
  return v;
}

void TestPercentileSupport() {
  using perfbench::SupportedPercentile;
  // p99 needs ten samples beyond it, i.e. at least 1000 samples.
  CHECK(!SupportedPercentile(Ramp(999), 99.0).has_value());
  CHECK(SupportedPercentile(Ramp(1000), 99.0).has_value());
  // p90 needs 100; p50 needs 20.
  CHECK(!SupportedPercentile(Ramp(99), 90.0).has_value());
  CHECK(SupportedPercentile(Ramp(100), 90.0).has_value());
  CHECK(!SupportedPercentile(Ramp(19), 50.0).has_value());
  CHECK(SupportedPercentile(Ramp(20), 50.0).has_value());
  CHECK(!SupportedPercentile({}, 50.0).has_value());
  // Interpolation between order statistics, independent of input order.
  CHECK(Near(perfbench::Percentile({4.0, 1.0, 3.0, 2.0}, 50.0), 2.5));
  CHECK(Near(perfbench::Percentile(Ramp(101), 90.0), 91.0));
  CHECK(Near(perfbench::Median({7.0}), 7.0));
}

void TestSlicedPercentile() {
  using perfbench::SlicedPercentile;
  // Three slices of 20 samples each support a median: the figure is the
  // median of the slice medians, so one slow slice does not move it.
  std::vector<double> fast = Ramp(20);  // median 10.5
  std::vector<double> slow;
  for (double v : fast) slow.push_back(v * 10.0);
  CHECK(Near(*SlicedPercentile({fast, slow, fast}, 50.0), 10.5));
  // A slice too small for p90 falls back to the pooled samples.
  const auto pooled = SlicedPercentile({Ramp(100), Ramp(50)}, 90.0);
  CHECK(pooled.has_value());
  std::vector<double> all = Ramp(100);
  for (double v : Ramp(50)) all.push_back(v);
  CHECK(Near(*pooled, perfbench::Percentile(all, 90.0)));
  // Neither the slices nor the pool support p99.
  CHECK(!SlicedPercentile({Ramp(100), Ramp(100)}, 99.0).has_value());
  CHECK(!SlicedPercentile({}, 50.0).has_value());
}

void TestHistogramPercentile() {
  const std::vector<double> bounds = {10.0, 100.0};
  // 50 samples in (0,10], 50 in (10,100], none above.
  CHECK(Near(perfbench::HistogramPercentile(bounds, {50, 50, 0}, 50.0), 10.0));
  CHECK(Near(perfbench::HistogramPercentile(bounds, {50, 50, 0}, 75.0), 55.0));
  CHECK(Near(perfbench::HistogramPercentile(bounds, {50, 50, 0}, 25.0), 5.0));
  // A rank in the +Inf bucket reports the last finite edge.
  CHECK(Near(perfbench::HistogramPercentile(bounds, {0, 0, 5}, 99.0), 100.0));
  CHECK(Near(perfbench::HistogramPercentile(bounds, {0, 0, 0}, 99.0), 0.0));
}

void TestSelfTime() {
  using perfbench::Span;
  // Root 0..100 with overlapping children 10..30 and 20..50 (union 40) and
  // a child 90..120 sticking out of its parent (only 10 counts).
  const std::vector<Span> tree = {{1, 0, "root", 0, 100},
                                  {2, 1, "a", 10, 20},
                                  {3, 1, "a", 20, 30},
                                  {4, 1, "b", 90, 30},
                                  {5, 2, "leaf", 12, 5}};
  auto self = perfbench::SelfTimeNs(tree);
  CHECK(self["root"] == 50);
  CHECK(self["a"] == 20 - 5 + 30);  // same-name spans add up
  CHECK(self["b"] == 30);
  CHECK(self["leaf"] == 5);
  // Children that tile their parent leave it no self time, and the self
  // times of a tree sum to the root's duration.
  const std::vector<Span> tiled = {{1, 0, "q", 0, 30},
                                   {2, 1, "x", 0, 10},
                                   {3, 1, "y", 10, 20}};
  auto t = perfbench::SelfTimeNs(tiled);
  CHECK(t["q"] == 0);
  CHECK(t["x"] + t["y"] + t["q"] == 30);
  CHECK(perfbench::CoveredNs({{5, 8}, {0, 2}, {1, 3}}, 0, 10) == 6);
  CHECK(perfbench::CoveredNs({{5, 8}}, 6, 7) == 1);
  CHECK(perfbench::CoveredNs({}, 0, 10) == 0);
}

void TestFailureAccounting() {
  perfbench::Outcomes o;
  CHECK(o.attempted() == 0);
  CHECK(Near(o.FailRatio(), 0.0));
  o.ok = 90;
  o.failed = 4;
  o.rejected = 3;
  o.deadline_exceeded = 2;
  o.cancelled = 1;
  CHECK(o.attempted() == 100);
  CHECK(o.not_ok() == 10);
  CHECK(Near(o.FailRatio(), 0.1));
  perfbench::Outcomes writes;
  writes.ok = 9;
  writes.failed = 1;
  o.Merge(writes);
  CHECK(o.attempted() == 110);
  CHECK(o.not_ok() == 11);
}

void TestMetricNames() {
  using perfbench::ValidMetricName;
  CHECK(ValidMetricName("qps"));
  CHECK(ValidMetricName("exec.ns_per_scanned_row.scan_filter"));
  CHECK(ValidMetricName("trace.self_ms.compile.specialize"));
  CHECK(ValidMetricName("9lives-ok"));
  CHECK(!ValidMetricName(""));
  CHECK(!ValidMetricName(".leading_dot"));
  CHECK(!ValidMetricName("_leading_underscore"));
  CHECK(!ValidMetricName("has space"));
  CHECK(!ValidMetricName("slash/name"));
  CHECK(!ValidMetricName("quote\"name"));
  CHECK(ValidMetricName(std::string(64, 'a')));
  CHECK(!ValidMetricName(std::string(65, 'a')));
  CHECK(perfbench::ValidUnit("1/s"));
  CHECK(perfbench::ValidUnit("%"));
  CHECK(!perfbench::ValidUnit("m s"));

  perfbench::Report r;
  CHECK(r.Add("qps", 12.5, "1/s"));
  CHECK(!r.Add("qps", 1.0, "1/s"));  // duplicate
  CHECK(r.error() == "duplicate metric: qps");
  perfbench::Report bad;
  CHECK(!bad.Add("bad name", 1.0, "ms"));
  CHECK(!bad.ok());
  perfbench::Report nan;
  CHECK(!nan.Add("x", std::nan(""), "ms"));
  perfbench::Report line;
  line.Add("latency_ms", 1.25, "ms");
  CHECK(line.ResultLine(true, 10, 0) ==
        "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": "
        "{\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}");
}

}  // namespace

void TestTopKTies() {
  using perfbench::KeyedRows;
  using perfbench::SameUpToTies;
  // {key hash, row hash}; the last key is 7, and the top-k's input holds
  // three rows with it (one of them twice).
  const KeyedRows want = {{9, 100}, {8, 101}, {8, 102}, {7, 103}};
  int input_calls = 0;
  const perfbench::RowsWithKey input = [&](uint64_t key) {
    ++input_calls;
    return key == 7 ? std::vector<uint64_t>{104, 103, 104}
                    : std::vector<uint64_t>{};
  };
  bool sub = true;
  CHECK(SameUpToTies(want, want, input, &sub) && !sub);
  // Rows tied on an inner key in another order.
  CHECK(SameUpToTies({{9, 100}, {8, 102}, {8, 101}, {7, 103}}, want, input,
                     &sub) &&
        !sub);
  CHECK(input_calls == 0);
  // Another input row with the last key.
  CHECK(SameUpToTies({{9, 100}, {8, 101}, {8, 102}, {7, 104}}, want, input,
                     &sub) &&
        sub);
  CHECK(input_calls == 1);
  // A last-key row the input does not hold, or holds fewer times.
  CHECK(!SameUpToTies({{9, 100}, {8, 101}, {8, 102}, {7, 105}}, want, input,
                      &sub));
  const KeyedRows want2 = {{9, 100}, {7, 103}, {7, 106}};
  CHECK(!SameUpToTies({{9, 100}, {7, 103}, {7, 103}}, want2, input, &sub));
  CHECK(SameUpToTies({{9, 100}, {7, 104}, {7, 104}}, want2, input, &sub));
  // A row above the last key differs.
  CHECK(!SameUpToTies({{9, 100}, {8, 101}, {8, 106}, {7, 103}}, want, input,
                      &sub));
  // Another key sequence, or another length.
  CHECK(!SameUpToTies({{9, 100}, {8, 101}, {7, 104}, {7, 103}}, want, input,
                      &sub));
  CHECK(!SameUpToTies({{9, 100}, {8, 101}, {8, 102}}, want, input, &sub));
  CHECK(!SameUpToTies({}, {}, input, &sub));
}

int main() {
  TestPercentileSupport();
  TestSlicedPercentile();
  TestHistogramPercentile();
  TestSelfTime();
  TestFailureAccounting();
  TestTopKTies();
  TestMetricNames();
  if (g_failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench_test: all checks passed\n");
  return 0;
}

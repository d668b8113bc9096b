// Self-tests of the benchmark's own helpers on known inputs: median and
// quartiles (against values Python's statistics module gives), the
// percentile-support rule, failure counting, and span self times.
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "bench.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

/// |a - b| within `rel` of b.
bool within(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::fabs(b);
}

}  // namespace

int run_selftest() {
  failures = 0;

  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  {
    const Quartiles q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
    expect(near(q.q1, 2.75) && near(q.q2, 5.5) && near(q.q3, 8.25),
           "quartiles of 1..10");
  }
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  {
    const Quartiles q = quartiles({2.0, 1.0});
    expect(near(q.q1, 0.75) && near(q.q2, 1.5) && near(q.q3, 2.25),
           "quartiles of two values");
  }
  // statistics.quantiles([1, 3, 5, 7, 100], n=4) == [2.0, 5.0, 53.5]
  {
    const Quartiles q = quartiles({1, 3, 5, 7, 100});
    expect(near(q.q1, 2.0) && near(q.q2, 5.0) && near(q.q3, 53.5),
           "quartiles with an outlier");
  }

  // Percentile support: p99 needs ten samples above its rank, i.e. at
  // least 1000 samples; p50 of 20 samples has ten above it. Values come
  // back from 0.1%-wide buckets.
  {
    LatencyLog v;
    for (int i = 1; i <= 1000; ++i) v.ok(static_cast<double>(i));
    const auto p99 = v.percentile(0.99);
    expect(p99.has_value() && within(*p99, 990.0, 1e-3), "p99 of 1000 samples");
    LatencyLog v999;
    for (int i = 1; i <= 999; ++i) v999.ok(static_cast<double>(i));
    expect(!v999.percentile(0.99).has_value(),
           "p99 of 999 samples is unsupported");
    LatencyLog w;
    for (int i = 1; i <= 20; ++i) w.ok(static_cast<double>(i));
    const auto p50 = w.percentile(0.5);
    expect(p50.has_value() && within(*p50, 10.0, 1e-3), "p50 of 20 samples");
    expect(within(w.median(), 10.0, 1e-3), "median of 20 samples");
    expect(within(w.mean_us(), 10.5, 1e-12), "mean of 20 samples");
    LatencyLog w19;
    for (int i = 1; i <= 19; ++i) w19.ok(static_cast<double>(i));
    expect(!w19.percentile(0.5).has_value(),
           "p50 of 19 samples has only nine beyond it");
  }

  // Failure counting: a failure ranks above every completed request, so
  // it counts against every percentile and the failed fraction.
  {
    LatencyLog a;
    for (int i = 0; i < 990; ++i) a.ok(1.0);
    LatencyLog b;
    for (int i = 0; i < 10; ++i) b.failed();
    a.append(b);
    expect(a.attempted() == 1000 && a.failures() == 10, "failure counts");
    expect(within(a.failed_frac(), 0.01, 1e-12), "failed fraction");
    const auto p99 = a.percentile(0.99);
    expect(p99.has_value() && within(*p99, 1.0, 1e-3), "p99 below the failures");
    LatencyLog c;
    for (int i = 0; i < 989; ++i) c.ok(1.0);
    for (int i = 0; i < 11; ++i) c.failed();
    const auto p99c = c.percentile(0.99);
    expect(p99c.has_value() && std::isinf(*p99c),
           "eleven failures in 1000 push p99 past every limit");
    expect(within(c.mean_us(), 1.0, 1e-12), "mean over completed requests");
    expect(LatencyLog{}.failed_frac() == 0.0, "empty log");
  }

  // Span self time: a parent's self time excludes its children.
  {
    Tracer tr(now_ns());
    const auto parent = tr.id("parent");
    const auto child = tr.id("child");
    tr.begin(parent, 1);
    tr.begin(child, 1);
    tr.end();
    tr.end();
    const SpanTotals& p = tr.totals()[parent];
    const SpanTotals& c = tr.totals()[child];
    expect(p.count == 1 && c.count == 1, "span counts");
    expect(p.self_ns + c.total_ns == p.total_ns, "parent self time");
  }

  return failures;
}

}  // namespace perfbench

// Summary statistics used by every workload: median and quartiles (the
// same definition as Python's statistics.quantiles(n=4)), percentiles that
// are only reported when enough samples lie beyond them, and request
// accounting in which a failed request counts as missing every latency
// limit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};

/// statistics.quantiles(v, n=4) with the default 'exclusive' method; q2
/// is the median. Throws std::invalid_argument with fewer than two values.
Quartiles quartiles(std::vector<double> v);

/// Per-request latency record of one client. Latencies go into fixed
/// log-spaced buckets 0.1% wide, so memory does not grow with the request
/// count (it would otherwise show in peak_rss_mb). A failed or refused
/// request counts as an infinite latency: it ranks above every completed
/// one, so it counts against every percentile instead of silently
/// vanishing from the sample.
class LatencyLog {
 public:
  LatencyLog();

  void ok(double latency_us);
  void failed() { ++failures_; }
  void append(const LatencyLog& other);

  std::uint64_t attempted() const { return completed_ + failures_; }
  std::uint64_t failures() const { return failures_; }
  /// failures / attempted; 0 when nothing was attempted.
  double failed_frac() const;
  /// Mean latency of the completed requests; 0 when there are none.
  double mean_us() const;

  /// Nearest-rank q-quantile (q in (0, 1)), reported only when at least
  /// `min_beyond` samples rank strictly above it; nullopt otherwise.
  /// Infinite when the rank falls among the failures.
  std::optional<double> percentile(double q, std::size_t min_beyond = 10) const;

  /// percentile(0.5) without the support rule; throws when empty.
  double median() const;

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t completed_ = 0;
  std::uint64_t failures_ = 0;
  double sum_us_ = 0.0;
};

}  // namespace perfbench

#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace perfbench {

Quartiles quartiles(std::vector<double> v) {
  if (v.size() < 2) throw std::invalid_argument("quartiles: need two values");
  std::sort(v.begin(), v.end());
  // CPython's 'exclusive' method: m = len + 1, cut points i*m/4 clamped to
  // [1, len-1], linear interpolation in exact integer steps of 1/4.
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  double q[3];
  for (long i = 1; i < 4; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q[i - 1] = (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
               4.0;
  }
  return {q[0], q[1], q[2]};
}

namespace {

// Bucket i holds latencies in [kLowUs * kRatio^i, kLowUs * kRatio^(i+1)).
constexpr double kLowUs = 0.01;
constexpr double kRatio = 1.001;
constexpr std::size_t kBuckets = 27650;  // up to ~1e10 us

std::size_t bucket_of(double us) {
  if (!(us > kLowUs)) return 0;
  const double i = std::log(us / kLowUs) / std::log(kRatio);
  return std::min(static_cast<std::size_t>(i), kBuckets - 1);
}

double bucket_value(std::size_t i) {
  return kLowUs * std::pow(kRatio, static_cast<double>(i) + 0.5);
}

}  // namespace

LatencyLog::LatencyLog() : counts_(kBuckets, 0) {}

void LatencyLog::ok(double latency_us) {
  ++counts_[bucket_of(latency_us)];
  ++completed_;
  sum_us_ += latency_us;
}

void LatencyLog::append(const LatencyLog& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  completed_ += other.completed_;
  failures_ += other.failures_;
  sum_us_ += other.sum_us_;
}

double LatencyLog::failed_frac() const {
  const std::uint64_t n = attempted();
  return n == 0 ? 0.0
                : static_cast<double>(failures_) / static_cast<double>(n);
}

double LatencyLog::mean_us() const {
  return completed_ == 0 ? 0.0 : sum_us_ / static_cast<double>(completed_);
}

std::optional<double> LatencyLog::percentile(double q,
                                             std::size_t min_beyond) const {
  const std::uint64_t n = attempted();
  if (n == 0 || !(q > 0.0) || !(q < 1.0)) return std::nullopt;
  // Nearest rank (1-based) r = ceil(q * n); n - r samples rank above it.
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(n) - 1e-9)));
  if (n - rank < min_beyond) return std::nullopt;
  if (rank > completed_) return std::numeric_limits<double>::infinity();
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += counts_[i];
    if (seen >= rank) return bucket_value(i);
  }
  return std::numeric_limits<double>::infinity();
}

double LatencyLog::median() const {
  if (attempted() == 0) throw std::invalid_argument("median: no samples");
  return *percentile(0.5, 0);
}

}  // namespace perfbench

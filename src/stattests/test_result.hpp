// Result record shared by all statistical tests.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace trng::stat {

/// How a test splits its own work: parallel_for(n, body) runs body(i) once
/// for every i < n, possibly concurrently, and returns when all have run.
/// A test that takes one must give the same result for any schedule.
using ParallelFor = std::function<void(
    std::size_t n, const std::function<void(std::size_t)>& body)>;

/// The ParallelFor that runs body(0), body(1), ... in order on the calling
/// thread.
inline void serial_for(std::size_t n,
                       const std::function<void(std::size_t)>& body) {
  for (std::size_t i = 0; i < n; ++i) body(i);
}

/// Outcome of one statistical test on one sequence. Tests that internally
/// evaluate several sub-statistics (serial, cusum, templates, excursions)
/// report one p-value each in `p_values`.
struct [[nodiscard]] TestResult {
  std::string name;
  std::vector<double> p_values;

  /// False when the input did not meet the test's applicability
  /// prerequisites (too short, too few excursion cycles, ...). An
  /// inapplicable test neither passes nor fails a battery.
  bool applicable = true;

  /// Optional human-readable note (why inapplicable, key statistics).
  std::string note;

  /// Single-p convenience.
  double p() const { return p_values.empty() ? 0.0 : p_values.front(); }

  /// Pass criterion at significance `alpha`. For multi-p tests the expected
  /// number of alpha-level exceedances is allowed (binomial mean + 3 sigma),
  /// matching NIST's proportion-of-passes assessment for template-style
  /// test families.
  bool passed(double alpha = 0.01) const;
};

}  // namespace trng::stat

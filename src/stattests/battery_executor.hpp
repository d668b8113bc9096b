// Thread-pool scheduler for independent statistical tests.
//
// Level 2 of the parallel battery: each SP 800-22 test is an independent
// pure function of the (shared, read-only) bit sequence, so the battery can
// run them concurrently. The executor follows the src/service/ threading
// idioms: workers are plain std::threads that are always joined before
// run() returns (no detach), results are stored by job index so the output
// order is deterministic regardless of scheduling, and the only shared
// mutable state is one atomic work counter, per-job slots, and the open
// parallel_for groups under one mutex.
//
// A job may split its own work with the ParallelFor it is handed. A worker
// that finds no job left helps the open groups until every job has
// finished, so a long test spreads over the workers the short ones free
// up, and no thread is started beyond the pool.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "stattests/test_result.hpp"

namespace trng::stat {

class BatteryExecutor {
 public:
  using Job = std::function<TestResult(const ParallelFor&)>;

  /// `threads` = pool size; 0 selects std::thread::hardware_concurrency()
  /// (at least 1).
  explicit BatteryExecutor(unsigned threads = 0);

  /// Runs all jobs and returns their results indexed exactly like `jobs`.
  /// Workers claim jobs via an atomic counter; every worker is joined
  /// before this returns, including on failure. If any job threw, the
  /// exception of the lowest-indexed failing job is rethrown after the
  /// join. With one job or a one-thread pool the jobs run inline on the
  /// calling thread, and so does every index of their parallel_for.
  ///
  /// On the pool, a job's parallel_for publishes its group, claims indices
  /// itself, and returns once every index has run — whether or not a
  /// worker was free to help. If a body threw, the exception of the
  /// lowest failing index is rethrown after the group drains.
  std::vector<TestResult> run(const std::vector<Job>& jobs) const;

  unsigned threads() const { return threads_; }

 private:
  unsigned threads_;
};

}  // namespace trng::stat

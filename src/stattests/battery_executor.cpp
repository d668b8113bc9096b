#include "stattests/battery_executor.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

namespace trng::stat {

namespace {

using Body = std::function<void(std::size_t)>;

/// One parallel_for call, on its caller's stack: the body, how many of its
/// indices have been claimed and have finished, and the lowest failing
/// index's exception. Read and written only under the run's mutex.
struct Group {
  const Body* body;
  std::size_t size;
  std::size_t claimed = 0;
  std::size_t finished = 0;
  std::size_t error_index = 0;
  std::exception_ptr error = nullptr;
};

}  // namespace

BatteryExecutor::BatteryExecutor(unsigned threads) : threads_(threads) {
  if (threads_ == 0) {
    // trng-lint: allow(TL007) -- pool sizing only; the workers themselves are created in run() below and always joined
    threads_ = std::thread::hardware_concurrency();
    if (threads_ == 0) threads_ = 1;
  }
}

std::vector<TestResult> BatteryExecutor::run(
    const std::vector<Job>& jobs) const {
  std::vector<TestResult> results(jobs.size());
  if (jobs.empty()) return results;
  const unsigned nthreads = static_cast<unsigned>(
      std::min<std::size_t>(threads_, jobs.size()));
  if (nthreads <= 1) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      results[i] = jobs[i](serial_for);
    }
    return results;
  }

  std::vector<std::exception_ptr> errors(jobs.size());
  // Work-claim ticket: relaxed is enough because each index is claimed
  // exactly once and the result slots are disjoint per index.
  // trng-analyzer: atomic(counter)
  std::atomic<std::size_t> next{0};
  // The open groups (those with unclaimed indices) and the count of
  // unfinished jobs, under `mu`. `cv` announces a new group, a drained
  // group and the last finished job.
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Group*> open;
  std::size_t jobs_left = jobs.size();

  // Claims and runs one index of `g`; entered and left with `lock` held.
  auto run_index = [&open, &cv](Group& g,
                                std::unique_lock<std::mutex>& lock) {
    const std::size_t i = g.claimed++;
    if (g.claimed == g.size) {
      open.erase(std::find(open.begin(), open.end(), &g));
    }
    lock.unlock();
    std::exception_ptr error;
    try {
      (*g.body)(i);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    if (error && (!g.error || i < g.error_index)) {
      g.error = error;
      g.error_index = i;
    }
    if (++g.finished == g.size) cv.notify_all();
  };
  const ParallelFor parallel_for = [&mu, &cv, &open, &run_index](
                                       std::size_t n, const Body& body) {
    if (n == 0) return;
    Group g{&body, n};
    std::unique_lock<std::mutex> lock(mu);
    open.push_back(&g);
    cv.notify_all();
    while (g.claimed < g.size) run_index(g, lock);
    cv.wait(lock, [&g] { return g.finished == g.size; });
    if (g.error) std::rethrow_exception(g.error);
  };
  auto worker = [&]() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs.size()) break;
      try {
        results[i] = jobs[i](parallel_for);
      } catch (...) {
        errors[i] = std::current_exception();
      }
      const std::lock_guard<std::mutex> lock(mu);
      if (--jobs_left == 0) cv.notify_all();
    }
    // No job left to claim: help the open groups until every job is done.
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      cv.wait(lock, [&] { return jobs_left == 0 || !open.empty(); });
      if (jobs_left == 0) return;
      run_index(*open.front(), lock);
    }
  };
  {
    // trng-lint: allow(TL007) -- battery workers mirror the service-layer discipline: stack-owned handles, no detach, joined unconditionally below
    std::vector<std::thread> pool;
    pool.reserve(nthreads);
    for (unsigned t = 0; t < nthreads; ++t) pool.emplace_back(worker);
    for (auto& th : pool) th.join();
  }
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return results;
}

}  // namespace trng::stat

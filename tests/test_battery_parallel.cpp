// BatteryExecutor scheduling tests: deterministic result ordering,
// exception propagation, the inline single-thread path, and the
// help-while-waiting parallel_for a job is handed. These suites
// (BatteryExecutor*) are the ones the tsan-battery CI preset runs under
// ThreadSanitizer with halt_on_error=1.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "stattests/battery_executor.hpp"

namespace trng::stat {
namespace {

TestResult result_named(const std::string& name) {
  TestResult r;
  r.name = name;
  r.p_values = {0.5};
  return r;
}

TEST(BatteryExecutor, EmptyJobListReturnsEmpty) {
  const BatteryExecutor executor(4);
  EXPECT_TRUE(executor.run({}).empty());
}

TEST(BatteryExecutor, DefaultSizeUsesHardwareConcurrency) {
  const BatteryExecutor executor(0);
  EXPECT_GE(executor.threads(), 1u);
  const BatteryExecutor fixed(3);
  EXPECT_EQ(fixed.threads(), 3u);
}

TEST(BatteryExecutor, ResultsKeepJobOrder) {
  // Jobs deliberately finish out of submission order (later jobs are
  // cheaper); the result vector must still be indexed by job, not by
  // completion time.
  std::vector<BatteryExecutor::Job> jobs;
  for (int i = 0; i < 32; ++i) {
    jobs.push_back([i](const ParallelFor&) {
      volatile double sink = 0.0;
      for (int k = 0; k < (32 - i) * 10000; ++k) sink = sink + k;
      return result_named("job" + std::to_string(i));
    });
  }
  const BatteryExecutor executor(4);
  const auto results = executor.run(jobs);
  ASSERT_EQ(results.size(), 32u);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)].name,
              "job" + std::to_string(i));
  }
}

TEST(BatteryExecutor, SingleThreadRunsInline) {
  std::vector<BatteryExecutor::Job> jobs;
  for (int i = 0; i < 5; ++i) {
    jobs.push_back(
        [i](const ParallelFor&) { return result_named(std::to_string(i)); });
  }
  const BatteryExecutor executor(1);
  const auto results = executor.run(jobs);
  ASSERT_EQ(results.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)].name, std::to_string(i));
  }
}

TEST(BatteryExecutor, EveryJobRunsExactlyOnce) {
  std::atomic<int> calls{0};
  std::vector<BatteryExecutor::Job> jobs(
      100, [&calls](const ParallelFor&) {
        calls.fetch_add(1, std::memory_order_relaxed);
        return TestResult{};
      });
  const BatteryExecutor executor(7);
  EXPECT_EQ(executor.run(jobs).size(), 100u);
  EXPECT_EQ(calls.load(), 100);
}

TEST(BatteryExecutor, RethrowsLowestIndexError) {
  std::vector<BatteryExecutor::Job> jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.push_back([i](const ParallelFor&) -> TestResult {
      if (i == 3) throw std::runtime_error("job3 failed");
      if (i == 6) throw std::runtime_error("job6 failed");
      return result_named(std::to_string(i));
    });
  }
  const BatteryExecutor executor(4);
  try {
    executor.run(jobs);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "job3 failed");
  }
}

TEST(BatteryExecutor, ParallelForRunsEveryIndexOnce) {
  // Every job splits 1000 indices; all of them run exactly once, whichever
  // thread claims them, at every pool size.
  for (const unsigned threads : {1u, 2u, 3u, 5u}) {
    SCOPED_TRACE(threads);
    constexpr std::size_t kJobs = 6;
    constexpr std::size_t kIndices = 1000;
    std::vector<std::atomic<int>> hits(kJobs * kIndices);
    std::vector<BatteryExecutor::Job> jobs;
    for (std::size_t j = 0; j < kJobs; ++j) {
      jobs.push_back([j, &hits](const ParallelFor& parallel_for) {
        parallel_for(kIndices, [j, &hits](std::size_t i) {
          hits[j * kIndices + i].fetch_add(1, std::memory_order_relaxed);
        });
        parallel_for(0, [](std::size_t) { FAIL() << "empty range ran"; });
        return result_named(std::to_string(j));
      });
    }
    const auto results = BatteryExecutor(threads).run(jobs);
    ASSERT_EQ(results.size(), kJobs);
    for (std::size_t j = 0; j < kJobs; ++j) {
      EXPECT_EQ(results[j].name, std::to_string(j));
    }
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(BatteryExecutor, ParallelForCompletesWithNoIdleWorker) {
  // Job 1 keeps its worker busy until job 0's parallel_for has returned,
  // so on a two-thread pool no worker is ever free to help: the caller
  // must run every index itself rather than wait for help.
  std::atomic<bool> split_done{false};
  std::thread::id caller;
  std::vector<std::thread::id> ran_on(64);
  std::vector<BatteryExecutor::Job> jobs;
  jobs.push_back([&](const ParallelFor& parallel_for) {
    caller = std::this_thread::get_id();
    parallel_for(ran_on.size(), [&ran_on](std::size_t i) {
      ran_on[i] = std::this_thread::get_id();
    });
    split_done.store(true, std::memory_order_release);
    return result_named("split");
  });
  jobs.push_back([&split_done](const ParallelFor&) {
    while (!split_done.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    return result_named("busy");
  });
  const auto results = BatteryExecutor(2).run(jobs);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].name, "split");
  EXPECT_EQ(results[1].name, "busy");
  for (const auto& id : ran_on) EXPECT_EQ(id, caller);
}

TEST(BatteryExecutor, ParallelForRethrowsLowestIndexError) {
  // Indices 7 and 40 throw; parallel_for rethrows index 7's error after
  // the whole group has run, inline and on the pool.
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    std::atomic<int> ran{0};
    std::string caught;
    std::vector<BatteryExecutor::Job> jobs(
        4, [](const ParallelFor&) { return TestResult{}; });
    jobs[0] = [&](const ParallelFor& parallel_for) {
      try {
        parallel_for(64, [&ran](std::size_t i) {
          ran.fetch_add(1, std::memory_order_relaxed);
          if (i == 7) throw std::runtime_error("index7 failed");
          if (i == 40) throw std::runtime_error("index40 failed");
        });
      } catch (const std::runtime_error& e) {
        caught = e.what();
      }
      return TestResult{};
    };
    (void)BatteryExecutor(threads).run(jobs);
    EXPECT_EQ(caught, "index7 failed");
    // Inline, the loop stops at the first throw; on the pool every index
    // runs before the group reports.
    EXPECT_EQ(ran.load(), threads == 1 ? 8 : 64);
  }
}

TEST(BatteryExecutor, ParallelForRunsInlineOnOneThread) {
  // A one-thread pool hands its jobs a parallel_for that runs the indices
  // in order on the calling thread.
  const std::thread::id self = std::this_thread::get_id();
  std::vector<std::size_t> order;
  bool same_thread = true;
  std::vector<BatteryExecutor::Job> jobs;
  jobs.push_back([&](const ParallelFor& parallel_for) {
    parallel_for(10, [&](std::size_t i) {
      order.push_back(i);
      same_thread = same_thread && std::this_thread::get_id() == self;
    });
    return TestResult{};
  });
  jobs.push_back([](const ParallelFor&) { return TestResult{}; });
  (void)BatteryExecutor(1).run(jobs);
  EXPECT_TRUE(same_thread);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

}  // namespace
}  // namespace trng::stat

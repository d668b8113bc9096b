// Unit tests for the battery runner and the n_NIST search.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/bit_source.hpp"
#include "stattests/battery.hpp"

namespace trng::stat {
namespace {

common::BitStream random_bits(std::size_t n, std::uint64_t seed = 1) {
  common::Xoshiro256StarStar rng(seed);
  common::BitStream b;
  b.reserve(n + 64);
  for (std::size_t w = 0; w < n / 64 + 1; ++w) b.append_bits(rng.next(), 64);
  return b.slice(0, n);
}

// Test-local core::BitSource over a function from a bit count to a
// BitStream. Bits the function does not supply read as zero, like the
// zeroed tail words of the generate_into contract.
template <class Fn>
class FnSource final : public core::BitSource {
 public:
  explicit FnSource(Fn fn) : fn_(std::move(fn)) {}

  void generate_into(std::uint64_t* words, common::Bits nbits) override {
    const common::BitStream bits = fn_(nbits);
    const std::size_t n = common::bits_to_words(nbits).count();
    std::fill_n(words, n, 0);
    std::copy_n(bits.words().begin(), std::min(n, bits.words().size()),
                words);
  }

  core::SourceInfo info() const override { return {}; }

 private:
  Fn fn_;
};

TEST(TestResult, SinglePValuePassCriterion) {
  TestResult r;
  r.p_values = {0.02};
  EXPECT_TRUE(r.passed(0.01));
  r.p_values = {0.005};
  EXPECT_FALSE(r.passed(0.01));
  r.p_values.clear();
  EXPECT_FALSE(r.passed(0.01));
  r.applicable = false;
  EXPECT_TRUE(r.passed(0.01));  // inapplicable = no evidence against
}

TEST(TestResult, MultiPValueToleratesExpectedFailures) {
  // 148 p-values at alpha = 0.01: expected 1.48 failures, allowed up to
  // 1.48 + 3 * sqrt(1.47) ~ 5.1.
  TestResult r;
  r.p_values.assign(148, 0.5);
  r.p_values[0] = 0.001;
  r.p_values[1] = 0.002;
  r.p_values[2] = 0.003;
  EXPECT_TRUE(r.passed(0.01));
  for (int i = 0; i < 10; ++i) r.p_values[static_cast<std::size_t>(i)] = 0.001;
  EXPECT_FALSE(r.passed(0.01));
}

TEST(TestBattery, RejectsBadAlpha) {
  TestBattery::Options opt;
  opt.alpha = 0.0;
  EXPECT_THROW(TestBattery{opt}, std::invalid_argument);
  opt.alpha = 1.0;
  EXPECT_THROW(TestBattery{opt}, std::invalid_argument);
}

TEST(TestBattery, FullRunOnRandomDataPasses) {
  TestBattery battery;
  const auto report = battery.run(random_bits(1100000, 20260707));
  EXPECT_TRUE(report.all_passed()) << [&] {
    std::string failed;
    for (const auto& r : report.results) {
      if (r.applicable && !r.passed()) failed += r.name + " ";
    }
    return failed;
  }();
  EXPECT_EQ(report.results.size(), 15u);
  EXPECT_GE(report.applicable_count(), 13u);
  EXPECT_EQ(report.failed_count(), 0u);
}

TEST(TestBattery, FastModeSkipsSlowTests) {
  TestBattery::Options opt;
  opt.include_slow = false;
  TestBattery battery(opt);
  const auto report = battery.run(random_bits(200000, 3));
  EXPECT_EQ(report.results.size(), 9u);
}

TEST(TestBattery, ConcurrentBatteriesShareTheDftPlan) {
  // Two threaded batteries run at once on sequences of one length, so
  // their dft transforms take turns on the same plan; each report equals
  // that sequence's report from a lone run.
  TestBattery::Options opt;
  opt.threads = 3;
  const TestBattery battery(opt);
  const common::BitStream seqs[2] = {random_bits(1 << 17, 31),
                                     random_bits(1 << 17, 32)};
  const BatteryReport lone[2] = {battery.run(seqs[0]), battery.run(seqs[1])};
  BatteryReport shared[2][2];
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&, t] {
        for (int r = 0; r < 2; ++r) shared[t][r] = battery.run(seqs[t]);
      });
    }
    for (auto& th : threads) th.join();
  }
  for (int t = 0; t < 2; ++t) {
    for (int r = 0; r < 2; ++r) {
      ASSERT_EQ(shared[t][r].results.size(), lone[t].results.size());
      for (std::size_t i = 0; i < lone[t].results.size(); ++i) {
        const TestResult& want = lone[t].results[i];
        const TestResult& got = shared[t][r].results[i];
        EXPECT_EQ(got.name, want.name);
        EXPECT_EQ(got.applicable, want.applicable);
        EXPECT_EQ(got.p_values, want.p_values) << want.name;
        EXPECT_EQ(got.note, want.note);
      }
    }
  }
}

TEST(TestBattery, BiasedDataFailsMultipleTests) {
  common::Xoshiro256StarStar rng(4);
  common::BitStream biased;
  for (int i = 0; i < 300000; ++i) biased.push_back(rng.next_double() < 0.53);
  TestBattery battery;
  const auto report = battery.run(biased);
  EXPECT_FALSE(report.all_passed());
  EXPECT_GE(report.failed_count(), 2u);
}

TEST(TestBattery, VacuousReportDoesNotPass) {
  // Headline regression: a report where every test is inapplicable (the
  // stream is too short for any of them) used to satisfy all_passed()
  // vacuously. It must not count as a pass.
  TestBattery battery;
  const auto report = battery.run(random_bits(50, 2));
  EXPECT_EQ(report.applicable_count(), 0u);
  EXPECT_EQ(report.failed_count(), 0u);
  EXPECT_FALSE(report.all_passed());

  BatteryReport empty;
  EXPECT_FALSE(empty.all_passed());
}

TEST(TestBattery, MinPassingNpRejectsVacuousCandidates) {
  // A broken source that ignores the requested count and only ever
  // supplies ~50 bits: the rest of every candidate reads as zeros, so the
  // n_NIST search must return nullopt instead of accepting np = 1. (The
  // report where nothing ran is VacuousReportDoesNotPass above.)
  TestBattery::Options opt;
  opt.include_slow = false;
  TestBattery battery(opt);
  FnSource source([](common::Bits) { return random_bits(50, 3); });
  EXPECT_EQ(battery.min_passing_np(source, common::Bits{30000}, 4),
            std::nullopt);
}

TEST(TestBattery, MinPassingNpFindsCompressionRate) {
  // A source with bias 0.25: b_pp(np) = 2^(np-1) * 0.25^np; np = 3 gives
  // bias 0.0156 — still detectable on 60k bits; np = 4 gives 0.0039.
  common::Xoshiro256StarStar rng(5);
  TestBattery::Options opt;
  opt.include_slow = false;
  TestBattery battery(opt);
  FnSource source([&rng](common::Bits count) {
    common::BitStream b;
    for (std::size_t i = 0; i < count.count(); ++i) {
      b.push_back(rng.next_double() < 0.75);
    }
    return b;
  });
  const auto np = battery.min_passing_np(source, common::Bits{60000}, 8);
  ASSERT_TRUE(np.has_value());
  EXPECT_GE(*np, 3u);
  EXPECT_LE(*np, 6u);
}

TEST(TestBattery, MinPassingNpIsOneForGoodSource) {
  common::Xoshiro256StarStar rng(6);
  TestBattery::Options opt;
  opt.include_slow = false;
  TestBattery battery(opt);
  FnSource source([&rng](common::Bits count) {
    const std::size_t n = count.count();
    common::BitStream b;
    b.reserve(n + 64);
    for (std::size_t w = 0; w < n / 64 + 1; ++w) {
      b.append_bits(rng.next(), 64);
    }
    return b.slice(0, n);
  });
  EXPECT_EQ(battery.min_passing_np(source, common::Bits{60000}, 8), 1u);
}

TEST(TestBattery, MinPassingNpReturnsNulloptWhenHopeless) {
  // Constant source never passes however hard it is compressed.
  TestBattery::Options opt;
  opt.include_slow = false;
  TestBattery battery(opt);
  FnSource source([](common::Bits count) {
    common::BitStream b;
    for (std::size_t i = 0; i < count.count(); ++i) b.push_back(true);
    return b;
  });
  EXPECT_EQ(battery.min_passing_np(source, common::Bits{30000}, 4),
            std::nullopt);
}

TEST(TestBattery, MinPassingNpValidatesArguments) {
  TestBattery battery;
  FnSource source([](common::Bits) { return common::BitStream{}; });
  EXPECT_THROW(battery.min_passing_np(source, common::Bits{100}, 4),
               std::invalid_argument);
  EXPECT_THROW(battery.min_passing_np(source, common::Bits{100000}, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace trng::stat

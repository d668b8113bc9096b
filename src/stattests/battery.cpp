#include "stattests/battery.hpp"

#include <iterator>
#include <stdexcept>

#include "stattests/battery_executor.hpp"
#include "stattests/sp800_22.hpp"
#include "stattests/sp800_22_wordpar.hpp"

namespace trng::stat {

namespace {

using Kernel = TestResult (*)(const common::BitStream&, const ParallelFor&);

// The fifteen tests in report order: the scalar reference kernel, its
// word-parallel twin, and whether it is one of the heavyweight tests that
// Options::include_slow gates. The wrappers bind each kernel's default
// parameters so the table holds plain function pointers. Every kernel is
// handed the executor's ParallelFor; the word-parallel column's dft splits
// its transform over it, and the scalar column, the oracle, runs inline.
struct BatteryTest {
  const char* name;
  Kernel scalar;
  Kernel wordpar;
  bool slow;
};

using Stream = common::BitStream;
using Split = const ParallelFor&;  // what a kernel may split its work over
constexpr BatteryTest kTests[] = {
    {"frequency", [](const Stream& b, Split) { return frequency_test(b); },
     [](const Stream& b, Split) { return wordpar::frequency_test(b); }, false},
    {"block_frequency",
     [](const Stream& b, Split) { return block_frequency_test(b); },
     [](const Stream& b, Split) { return wordpar::block_frequency_test(b); },
     false},
    {"runs", [](const Stream& b, Split) { return runs_test(b); },
     [](const Stream& b, Split) { return wordpar::runs_test(b); }, false},
    {"longest_run", [](const Stream& b, Split) { return longest_run_test(b); },
     [](const Stream& b, Split) { return wordpar::longest_run_test(b); },
     false},
    {"cumulative_sums",
     [](const Stream& b, Split) { return cumulative_sums_test(b); },
     [](const Stream& b, Split) { return wordpar::cumulative_sums_test(b); },
     false},
    {"serial", [](const Stream& b, Split) { return serial_test(b); },
     [](const Stream& b, Split) { return wordpar::serial_test(b); }, false},
    {"approximate_entropy",
     [](const Stream& b, Split) { return approximate_entropy_test(b); },
     [](const Stream& b, Split) {
       return wordpar::approximate_entropy_test(b);
     },
     false},
    {"random_excursions",
     [](const Stream& b, Split) { return random_excursions_test(b); },
     [](const Stream& b, Split) { return wordpar::random_excursions_test(b); },
     false},
    {"random_excursions_variant",
     [](const Stream& b, Split) { return random_excursions_variant_test(b); },
     [](const Stream& b, Split) {
       return wordpar::random_excursions_variant_test(b);
     },
     false},
    {"rank", [](const Stream& b, Split) { return rank_test(b); },
     [](const Stream& b, Split) { return wordpar::rank_test(b); }, true},
    {"dft", [](const Stream& b, Split) { return dft_test(b); },
     [](const Stream& b, Split split) { return dft_test(b, split); }, true},
    {"non_overlapping_template",
     [](const Stream& b, Split) { return non_overlapping_template_test(b); },
     [](const Stream& b, Split) {
       return wordpar::non_overlapping_template_test(b);
     },
     true},
    {"overlapping_template",
     [](const Stream& b, Split) { return overlapping_template_test(b); },
     [](const Stream& b, Split) {
       return wordpar::overlapping_template_test(b);
     },
     true},
    {"universal", [](const Stream& b, Split) { return universal_test(b); },
     [](const Stream& b, Split) { return wordpar::universal_test(b); }, true},
    {"linear_complexity",
     [](const Stream& b, Split) { return linear_complexity_test(b); },
     [](const Stream& b, Split) { return wordpar::linear_complexity_test(b); },
     true},
};

}  // namespace

bool BatteryReport::all_passed(double alpha) const {
  // A report with zero applicable tests must not count as passing: the
  // loop below is vacuously true on it, which historically let callers
  // accept sequences too short to be tested.
  bool any_applicable = false;
  for (const auto& r : results) {
    if (!r.applicable) continue;
    any_applicable = true;
    if (!r.passed(alpha)) return false;
  }
  return any_applicable;
}

std::size_t BatteryReport::failed_count(double alpha) const {
  std::size_t fails = 0;
  for (const auto& r : results) {
    if (r.applicable && !r.passed(alpha)) ++fails;
  }
  return fails;
}

std::size_t BatteryReport::applicable_count() const {
  std::size_t n = 0;
  for (const auto& r : results) {
    if (r.applicable) ++n;
  }
  return n;
}

TestBattery::TestBattery(Options options) : options_(options) {
  if (!(options_.alpha > 0.0) || options_.alpha >= 1.0) {
    throw std::invalid_argument("TestBattery: alpha must be in (0, 1)");
  }
}

BatteryReport TestBattery::run(const common::BitStream& bits) const {
  // Fixed test order; the executor stores results by job index, so the
  // report layout is identical across engines and thread schedules.
  std::vector<BatteryExecutor::Job> jobs;
  jobs.reserve(std::size(kTests));
  for (const BatteryTest& t : kTests) {
    if (t.slow && !options_.include_slow) continue;
    const Kernel kernel =
        options_.engine == Engine::kScalar ? t.scalar : t.wordpar;
    jobs.push_back([kernel, &bits](const ParallelFor& parallel_for) {
      return kernel(bits, parallel_for);
    });
  }
  return BatteryReport{BatteryExecutor(options_.threads).run(jobs)};
}

BatteryReport TestBattery::run(core::BitSource& source,
                               common::Bits nbits) const {
  return run(source.generate(nbits));
}

std::optional<unsigned> TestBattery::min_passing_np(core::BitSource& source,
                                                    common::Bits test_bits,
                                                    unsigned max_np) const {
  if (test_bits < common::Bits{20000} || max_np == 0) {
    throw std::invalid_argument("min_passing_np: bad arguments");
  }
  for (unsigned np = 1; np <= max_np; ++np) {
    const common::BitStream raw = source.generate(test_bits * np);
    const BatteryReport report = run(raw.xor_fold(np));
    // Vacuous reports (zero applicable tests) never qualify: all_passed()
    // rejects them, and the explicit check documents the intent here.
    if (report.applicable_count() == 0) continue;
    if (report.all_passed(options_.alpha)) return np;
  }
  return std::nullopt;
}

}  // namespace trng::stat

// battery: Table 1's certification step. stat::TestBattery with its
// default options (threaded word-parallel engine, one thread per hardware
// thread) over 2^20-bit sequences generated from the run seed. No
// simulator and no server run here.
#include "battery.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/bitstream.hpp"
#include "common/rng.hpp"
#include "stats.hpp"
#include "stattests/battery.hpp"
#include "stattests/sp800_22_wordpar.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace trng;

namespace {

constexpr std::size_t kSequenceBits = std::size_t{1} << 20;
constexpr std::size_t kSequences = 4;
/// Set-up here takes about a millisecond, so more repeats steady its median.
constexpr int kBatterySetupRepeats = 21;

std::vector<common::BitStream> make_sequences(std::uint64_t seed) {
  common::Xoshiro256StarStar rng(seed ^ 0xBA77E2ULL);
  std::vector<common::BitStream> seqs(kSequences);
  for (auto& s : seqs) {
    s.reserve(kSequenceBits);
    for (std::size_t w = 0; w < kSequenceBits / 64; ++w) {
      s.append_bits(rng.next(), 64);
    }
  }
  return seqs;
}

struct StatTest {
  const char* name;
  stat::TestResult (*fn)(const common::BitStream&);
};

// Default-argument wrappers so the table holds plain function pointers.
const StatTest kStatTests[] = {
    {"frequency", [](const common::BitStream& b) { return stat::wordpar::frequency_test(b); }},
    {"block_frequency", [](const common::BitStream& b) { return stat::wordpar::block_frequency_test(b); }},
    {"runs", [](const common::BitStream& b) { return stat::wordpar::runs_test(b); }},
    {"longest_run", [](const common::BitStream& b) { return stat::wordpar::longest_run_test(b); }},
    {"cumulative_sums", [](const common::BitStream& b) { return stat::wordpar::cumulative_sums_test(b); }},
    {"serial", [](const common::BitStream& b) { return stat::wordpar::serial_test(b); }},
    {"approximate_entropy", [](const common::BitStream& b) { return stat::wordpar::approximate_entropy_test(b); }},
    {"random_excursions", [](const common::BitStream& b) { return stat::wordpar::random_excursions_test(b); }},
    {"random_excursions_variant", [](const common::BitStream& b) { return stat::wordpar::random_excursions_variant_test(b); }},
    {"rank", [](const common::BitStream& b) { return stat::wordpar::rank_test(b); }},
    {"dft", [](const common::BitStream& b) { return stat::wordpar::dft_test(b); }},
    {"non_overlapping_template", [](const common::BitStream& b) { return stat::wordpar::non_overlapping_template_test(b); }},
    {"overlapping_template", [](const common::BitStream& b) { return stat::wordpar::overlapping_template_test(b); }},
    {"universal", [](const common::BitStream& b) { return stat::wordpar::universal_test(b); }},
    {"linear_complexity", [](const common::BitStream& b) { return stat::wordpar::linear_complexity_test(b); }},
};

bool same_report(const stat::BatteryReport& a, const stat::BatteryReport& b) {
  if (a.results.size() != b.results.size()) return false;
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    const auto& x = a.results[i];
    const auto& y = b.results[i];
    if (x.name != y.name || x.applicable != y.applicable ||
        x.p_values != y.p_values || x.note != y.note) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result run_battery(const Options& opt) {
  Result res;
  std::vector<double> setup_s;
  std::vector<common::BitStream> seqs;
  std::unique_ptr<stat::TestBattery> battery;
  for (int r = 0; r < kBatterySetupRepeats; ++r) {
    seqs.clear();
    battery.reset();
    const std::uint64_t t0 = now_ns();
    seqs = make_sequences(opt.seed);
    battery = std::make_unique<stat::TestBattery>();
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  // Timed: battery runs back to back. A traced run follows each untraced
  // run with a traced one and with each test alone, so the runs it
  // compares see the same host conditions.
  std::unique_ptr<Tracer> tracer;
  std::uint32_t battery_span = 0;
  if (opt.trace) {
    tracer = std::make_unique<Tracer>(now_ns());
    battery_span = tracer->id("stattests.battery");
  }
  LatencyLog runs;
  stat::BatteryReport first;
  std::size_t i = 0;
  const std::uint64_t t0 = now_ns();
  const auto deadline = t0 + static_cast<std::uint64_t>(opt.seconds * 1e9);
  bool deterministic = true;
  do {
    const common::BitStream& seq = seqs[i % kSequences];
    const std::uint64_t ts = now_ns();
    const stat::BatteryReport report = battery->run(seq);
    runs.ok(static_cast<double>(now_ns() - ts) * 1e-3);
    if (i == 0) first = report;
    if (i > 0 && i % kSequences == 0) {
      deterministic = deterministic && same_report(first, report);
    }
    if (tracer) {
      {
        Span s(tracer.get(), battery_span, i);
        (void)battery->run(seq);
      }
      trace_stat_tests(seq, *tracer, i);
    }
    ++i;
  } while (now_ns() < deadline);
  // Bits certified per second at the median run time; the mean is detail.
  const double run_p50_us = runs.median();
  const double bps = static_cast<double>(kSequenceBits) / (run_p50_us * 1e-6);

  report_setup(setup_s, res);
  report_ops(runs, res);
  res.metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  res.metrics["throughput_bits_per_s"] = {bps, "bit/s"};
  res.detail["battery_bits_per_s"] = {bps, "bit/s"};
  res.detail["battery.bits_per_s_mean"] = {
      static_cast<double>(kSequenceBits) / (runs.mean_us() * 1e-6), "bit/s"};
  const auto threads = static_cast<double>(std::thread::hardware_concurrency());
  res.detail["battery.threads"] = {threads, "count"};

  if (tracer) {
    auto tot = merge_totals({tracer.get()});
    report_spans(tot, "span.", res);
    const double traced_ns = tot["stattests.battery"].mean_ns();
    const double untraced_ns = runs.mean_us() * 1e3;
    res.layers["trace.overhead_frac"] = {traced_ns / untraced_ns - 1.0,
                                         "fraction"};
    const auto [slowest, sum] = report_stat_tests(*tracer, kSequenceBits, res);
    // The threaded run against its scheduling bound: the slowest test, or
    // all tests' work spread over the pool, whichever is larger.
    // Tolerance 0.25.
    const double bound = std::max(slowest, sum / threads);
    const double unexplained = 1.0 - bound / untraced_ns;
    res.layers["trace.unexplained_frac"] = {unexplained, "fraction"};
    res.detail["stattests.critical_path_frac"] = {slowest / untraced_ns,
                                                  "fraction"};
    res.detail["battery.unexplained_tolerance"] = {0.25, "fraction"};
    res.detail["battery.reconciled"] = {
        unexplained >= -0.25 && unexplained <= 0.25 ? 1.0 : 0.0, "bool"};
    if (!opt.trace_out.empty()) {
      res.check("trace.written",
                write_trace(opt.trace_out, "battery", {tracer.get()}));
    }
  }

  // Checks: every test reported, repeated runs agree, and the threaded
  // engine's report equals the scalar reference engine's.
  res.check("battery.fifteen_tests", first.results.size() == 15);
  res.check("battery.repeat_runs_identical", deterministic);
  stat::TestBattery::Options scalar_opt;
  scalar_opt.engine = stat::TestBattery::Engine::kScalar;
  res.check("battery.threaded_equals_scalar",
            same_report(first, stat::TestBattery(scalar_opt).run(seqs[0])));

  res.fingerprint["sequence0_sha256"] = sha256_hex(seqs[0].words());
  res.fingerprint["sequence0_applicable"] =
      std::to_string(first.applicable_count());
  res.fingerprint["sequence0_failed_at_0.01"] =
      std::to_string(first.failed_count(0.01));
  return res;
}

void trace_stat_tests(const common::BitStream& bits, Tracer& tracer,
                      std::uint64_t request) {
  for (const StatTest& t : kStatTests) {
    Span s(&tracer, tracer.id(std::string("stattests.") + t.name), request);
    (void)t.fn(bits);
  }
}

std::pair<double, double> report_stat_tests(const Tracer& tracer,
                                            std::size_t bits, Result& res) {
  const auto tot = merge_totals({&tracer});
  double slowest = 0.0;
  double sum = 0.0;
  for (const StatTest& t : kStatTests) {
    const std::string name = std::string("stattests.") + t.name;
    const double ns = tot.at(name).mean_ns();
    slowest = std::max(slowest, ns);
    sum += ns;
    res.layers[name + "_ns_per_bit"] = {ns / static_cast<double>(bits),
                                        "ns/bit"};
  }
  return {slowest, sum};
}

}  // namespace perfbench

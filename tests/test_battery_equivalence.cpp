// The word-parallel battery's correctness contract: for any input, every
// wordpar:: kernel returns a TestResult bit-identical to its scalar
// reference — same p-value doubles, same applicable flag, same note — and
// the word-parallel battery returns the scalar battery's report inline
// (one thread) and on a four-thread pool.
// This suite checks the contract over every source in core/source_registry
// plus degenerate and non-default-parameter inputs; lint rule TL008 keeps
// it in sync with the kernel list.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <iterator>
#include <cstdint>
#include <string>
#include <vector>

#include "battery_workload.hpp"
#include "common/rng.hpp"
#include "core/source_registry.hpp"
#include "fpga/fabric.hpp"
#include "server/sha256.hpp"
#include "stattests/battery.hpp"
#include "stattests/battery_executor.hpp"
#include "stattests/sp800_22.hpp"
#include "stattests/sp800_22_detail.hpp"
#include "stattests/sp800_22_wordpar.hpp"

namespace trng::stat {
namespace {

common::BitStream random_bits(std::size_t n, std::uint64_t seed) {
  common::Xoshiro256StarStar rng(seed);
  common::BitStream b;
  b.reserve(n + 64);
  for (std::size_t w = 0; w < n / 64 + 1; ++w) b.append_bits(rng.next(), 64);
  return b.slice(0, n);
}

// Exact equality across the board: doubles compared with ==, not a
// tolerance. The wordpar kernels only change how integer counts are
// produced, so any FP difference is a bug.
void expect_identical(const TestResult& ref, const TestResult& got) {
  EXPECT_EQ(ref.name, got.name);
  EXPECT_EQ(ref.applicable, got.applicable);
  EXPECT_EQ(ref.note, got.note);
  ASSERT_EQ(ref.p_values.size(), got.p_values.size());
  for (std::size_t j = 0; j < ref.p_values.size(); ++j) {
    EXPECT_EQ(ref.p_values[j], got.p_values[j]) << "p_values[" << j << "]";
  }
}

void expect_identical(const BatteryReport& ref, const BatteryReport& got) {
  ASSERT_EQ(ref.results.size(), got.results.size());
  for (std::size_t i = 0; i < ref.results.size(); ++i) {
    SCOPED_TRACE(ref.results[i].name);
    expect_identical(ref.results[i], got.results[i]);
  }
}

BatteryReport run_engine(const common::BitStream& bits,
                         TestBattery::Engine engine, unsigned threads = 0) {
  TestBattery::Options opt;
  opt.engine = engine;
  opt.threads = threads;
  return TestBattery(opt).run(bits);
}

void expect_word_parallel_agrees(const common::BitStream& bits,
                                 const BatteryReport& scalar) {
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    expect_identical(
        scalar, run_engine(bits, TestBattery::Engine::kWordParallel, threads));
  }
}

void expect_engines_agree(const common::BitStream& bits) {
  expect_word_parallel_agrees(bits,
                              run_engine(bits, TestBattery::Engine::kScalar));
}

TEST(BatteryEquivalence, EveryRegistrySource) {
  // 128 Kibit per source: every test applicable except universal (needs
  // 387840 bits — covered by LongStreamCoversUniversal below).
  const fpga::Fabric fabric(fpga::DeviceGeometry{}, 42);
  for (const auto& factory : core::canonical_sources(fabric)) {
    SCOPED_TRACE(factory.id);
    auto source = factory.make(7);
    expect_engines_agree(source->generate(trng::common::Bits{131072}));
  }
}

TEST(BatteryEquivalence, LongStreamCoversUniversal) {
  const auto bits = random_bits(450000, 20260806);
  const auto scalar = run_engine(bits, TestBattery::Engine::kScalar);
  bool universal_applicable = false;
  for (const auto& r : scalar.results) {
    if (r.name == "universal") universal_applicable = r.applicable;
  }
  EXPECT_TRUE(universal_applicable);
  expect_identical(universal_test(bits), wordpar::universal_test(bits));
  expect_word_parallel_agrees(bits, scalar);
}

TEST(BatteryEquivalence, DegenerateStreams) {
  // Empty, sub-word, word-boundary and all-ones inputs: the kernels'
  // head/tail masking and the gates' inapplicable notes must match the
  // scalar reference exactly.
  expect_engines_agree(common::BitStream{});
  for (const std::size_t n : {1u, 63u, 64u, 65u, 100u, 1000u, 4096u}) {
    SCOPED_TRACE(n);
    expect_engines_agree(random_bits(n, n));
  }
  common::BitStream ones;
  for (int i = 0; i < 4096; ++i) ones.push_back(true);
  expect_engines_agree(ones);
}

TEST(BatteryEquivalence, NonDefaultParameters) {
  // The battery always runs the defaults; exercise each parameterized
  // kernel's off-default paths directly.
  const auto bits = random_bits(131072, 99);
  expect_identical(block_frequency_test(bits, 4096),
                   wordpar::block_frequency_test(bits, 4096));
  expect_identical(serial_test(bits, 5), wordpar::serial_test(bits, 5));
  expect_identical(serial_test(bits, 2), wordpar::serial_test(bits, 2));
  expect_identical(approximate_entropy_test(bits, 7),
                   wordpar::approximate_entropy_test(bits, 7));
  expect_identical(linear_complexity_test(bits, 1000),
                   wordpar::linear_complexity_test(bits, 1000));
  expect_identical(non_overlapping_template_test(bits, 8),
                   wordpar::non_overlapping_template_test(bits, 8));
  expect_identical(overlapping_template_test(bits, 9),
                   wordpar::overlapping_template_test(bits, 9));
}

TEST(BatteryEquivalence, SpecExampleGating) {
  const auto bits = random_bits(100, 5);
  expect_identical(frequency_test(bits, Gating::kSpecExample),
                   wordpar::frequency_test(bits, Gating::kSpecExample));
  expect_identical(block_frequency_test(bits, 10, Gating::kSpecExample),
                   wordpar::block_frequency_test(bits, 10,
                                                 Gating::kSpecExample));
  expect_identical(runs_test(bits, Gating::kSpecExample),
                   wordpar::runs_test(bits, Gating::kSpecExample));
  expect_identical(cumulative_sums_test(bits, Gating::kSpecExample),
                   wordpar::cumulative_sums_test(bits, Gating::kSpecExample));
  expect_identical(serial_test(bits, 3, Gating::kSpecExample),
                   wordpar::serial_test(bits, 3, Gating::kSpecExample));
  expect_identical(
      approximate_entropy_test(bits, 3, Gating::kSpecExample),
      wordpar::approximate_entropy_test(bits, 3, Gating::kSpecExample));
}

/// Content of the blocks bm_blocks lays out.
enum class BlockKind { kRandom, kZero, kTrailingOne, kLfsr, kSparse };

/// Primitive trinomials x^L + x^a + 1: an LFSR with one of these and a
/// nonzero state has linear complexity exactly L once 2L <= block length.
struct Trinomial {
  unsigned l;
  unsigned a;
};
constexpr Trinomial kTrinomials[] = {{2, 1}, {3, 1}, {5, 2},  {7, 1},
                                     {15, 1}, {17, 3}, {31, 3}};

/// `count` blocks of `len` bits laid end to end, all of one content kind;
/// LFSR block k uses trinomial k mod 7.
common::BitStream bm_blocks(BlockKind kind, std::size_t len,
                            std::size_t count, std::uint64_t seed) {
  common::Xoshiro256StarStar rng(seed);
  common::BitStream b;
  b.reserve(len * count);
  for (std::size_t k = 0; k < count; ++k) {
    const Trinomial poly = kTrinomials[k % std::size(kTrinomials)];
    std::vector<bool> state;
    for (std::size_t i = 0; i < len; ++i) {
      bool bit = false;
      switch (kind) {
        case BlockKind::kRandom: bit = (rng.next() & 1) != 0; break;
        case BlockKind::kZero: break;
        case BlockKind::kTrailingOne: bit = i + 1 == len; break;
        case BlockKind::kLfsr:
          // s_0 = 1 keeps the state nonzero; s_{t+L} = s_{t+a} + s_t.
          bit = i < poly.l ? (i == 0 || (rng.next() & 1) != 0)
                           : state[i - poly.l + poly.a] != state[i - poly.l];
          break;
        case BlockKind::kSparse: bit = (rng.next() >> 58) == 0; break;
      }
      state.push_back(bit);
      b.push_back(bit);
    }
  }
  return b;
}

TEST(BatteryEquivalence, BerlekampMasseyWords) {
  // berlekamp_massey_lanes against the scalar berlekamp_massey, block by
  // block: word-boundary and spec lengths, partial and full lane groups
  // (1, 5, 63, 64) and a 70-block run split into groups the way
  // linear_complexity_test splits it, over random, all-zero, single
  // trailing one, LFSR (known L) and sparse content. Long blocks use fewer
  // lanes to keep the O(len^2) scalar oracle affordable.
  const BlockKind kinds[] = {BlockKind::kRandom, BlockKind::kZero,
                             BlockKind::kTrailingOne, BlockKind::kLfsr,
                             BlockKind::kSparse};
  for (const std::size_t len :
       {1u, 2u, 63u, 64u, 65u, 129u, 500u, 777u, 1000u, 5000u}) {
    const std::size_t count = len <= 1000 ? 70 : 6;
    for (const BlockKind kind : kinds) {
      SCOPED_TRACE("len " + std::to_string(len) + ", kind " +
                   std::to_string(static_cast<int>(kind)));
      const auto bits = bm_blocks(kind, len, count, len * 131 + count);
      std::vector<std::size_t> want(count);
      std::vector<bool> block(len);
      for (std::size_t k = 0; k < count; ++k) {
        for (std::size_t i = 0; i < len; ++i) block[i] = bits[k * len + i];
        want[k] = berlekamp_massey(block);
        if (kind == BlockKind::kLfsr) {
          const unsigned l = kTrinomials[k % std::size(kTrinomials)].l;
          if (2 * l <= len) {
            EXPECT_EQ(want[k], l) << "block " << k;
          }
        }
      }
      // Groups of 1, 5, 63 and 64 blocks, each starting at a nonzero
      // block where the stream allows it.
      for (const std::size_t group : {1u, 5u, 63u, 64u}) {
        if (group > count) continue;
        const std::size_t first = count - group;
        std::vector<std::size_t> got(group, 99);
        wordpar::berlekamp_massey_lanes(bits, first, group, len, got.data());
        for (std::size_t k = 0; k < group; ++k) {
          EXPECT_EQ(got[k], want[first + k])
              << "group " << group << ", block " << first + k;
        }
      }
      std::vector<std::size_t> got(count, 99);
      for (std::size_t g = 0; g < count; g += 64) {
        wordpar::berlekamp_massey_lanes(
            bits, g, std::min<std::size_t>(64, count - g), len,
            got.data() + g);
      }
      EXPECT_EQ(got, want);
    }
  }
}

TEST(BatteryEquivalence, NonOverlappingTemplateEveryLength) {
  // The per-block window histogram against the scalar greedy scan for every
  // template length the battery could use up to 12, at the gate's minimum
  // length: random bits, bits stuffed with back-to-back and straddling
  // copies of one template, and a period-3 stream.
  for (unsigned m = 2; m <= 12; ++m) {
    SCOPED_TRACE("tpl_len " + std::to_string(m));
    const std::size_t n = 8 * ((std::size_t{20} << m) + m);
    const auto templates = aperiodic_templates(m);
    const std::uint32_t tpl = templates[templates.size() / 2];
    common::Xoshiro256StarStar rng(m);
    common::BitStream stuffed;
    while (stuffed.size() < n) {
      if (rng.next() & 1) {
        for (unsigned j = m; j-- > 0;) stuffed.push_back((tpl >> j) & 1u);
      } else {
        for (std::uint64_t r = rng.next() % m + 1; r-- > 0;) {
          stuffed.push_back((rng.next() & 1) != 0);
        }
      }
    }
    common::BitStream period3;
    for (std::size_t i = 0; i < n; ++i) period3.push_back(i % 3 != 2);
    for (const common::BitStream& bits :
         {random_bits(n, 1000 + m), stuffed.slice(0, n), period3}) {
      const TestResult ref = non_overlapping_template_test(bits, m);
      EXPECT_TRUE(ref.applicable);
      expect_identical(ref, wordpar::non_overlapping_template_test(bits, m));
    }
  }
}

/// SHA-256 over the p-values' IEEE-754 bit patterns (little-endian), as hex:
/// a bit-exact digest for tests with too many p-values to list.
std::string p_value_digest(const std::vector<double>& p_values) {
  server::Sha256 sha;
  for (const double p : p_values) {
    const auto w = std::bit_cast<std::uint64_t>(p);
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(w >> (8 * i));
    sha.update(b, sizeof(b));
  }
  std::uint8_t d[server::Sha256::kDigestBytes];
  sha.final(d);
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t v : d) {
    out += kHex[v >> 4];
    out += kHex[v & 0xF];
  }
  return out;
}

TEST(BatteryEquivalence, PinnedPatternPValuesAt2To20Bits) {
  // Exact p-values of the pattern kernels on the battery workload's
  // sequences, minted with the per-block Berlekamp–Massey, the per-template
  // match-mask scan and separate pattern-count passes per window length:
  // any rewrite of these kernels must reproduce them bit for bit. The
  // template test's 148 p-values are pinned by digest.
  struct Pin {
    std::uint64_t seed;
    std::size_t index;
    double linear_complexity;
    double serial[2];
    double approximate_entropy;
    const char* non_overlapping_template_sha256;
  };
  const Pin pins[] = {
      {1, 0, 0.89804840110870265, {0.93051960356474162, 0.79871806404910506},
       0.94038015558023447,
       "29bd7eca62ea732bfea30c6463f87b25b0ab8010e1fee87823c5e976c6725ec9"},
      {1, 1, 0.61804269907688769, {0.80257440300766014, 0.621525235786483},
       0.802361248765594,
       "029145d2c91673cd446585efc81418ffff4fc48f15029e3cc109811b0480aa51"},
      {1, 2, 0.5278781333823237, {0.19756816100861185, 0.078855281673057553},
       0.97582555026397932,
       "db399a36220f7d466d2eb9f73c1e226f213e835b10b0f4d997e782e74d9b0d27"},
      {1, 3, 0.29116204814711111, {0.85014892251879315, 0.81504602635168966},
       0.1352979085685703,
       "00d768d6d2361a845b1e3b3115a7f14cd3e6c18c520bd31f8189accf6d1bd501"},
      {2, 0, 0.80551646589392734, {0.71558685652621323, 0.66057782368253282},
       0.1759340952644699,
       "3a84b90e87a35eef9574480dc9c35267f6b5afaa71f79c36819c1ed1f45a657b"},
      {3, 0, 0.91261356972900853, {0.15290501096939912, 0.040694755495787799},
       0.5959676220510508,
       "3d6f016d28748006c225f38d0884dbc256311fc4811980ad90dc4051c6d206cd"},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE("seed " + std::to_string(pin.seed) + ", sequence " +
                 std::to_string(pin.index));
    const auto bits = battery_workload_sequence(pin.seed, pin.index);
    EXPECT_EQ(wordpar::linear_complexity_test(bits).p_values,
              std::vector<double>{pin.linear_complexity});
    EXPECT_EQ(wordpar::serial_test(bits).p_values,
              (std::vector<double>{pin.serial[0], pin.serial[1]}));
    EXPECT_EQ(wordpar::approximate_entropy_test(bits).p_values,
              std::vector<double>{pin.approximate_entropy});
    const TestResult tpl = wordpar::non_overlapping_template_test(bits);
    EXPECT_EQ(tpl.p_values.size(), 148u);
    EXPECT_EQ(p_value_digest(tpl.p_values),
              pin.non_overlapping_template_sha256);
  }
}

TEST(BatteryEquivalence, FrequencyAndRunsAtWordBoundaries) {
  // Transition counting straddles word boundaries; sweep lengths around
  // multiples of 64 with patterned data to pin the boundary-pair logic.
  for (std::size_t n = 120; n <= 200; ++n) {
    common::BitStream alt;
    for (std::size_t i = 0; i < n; ++i) alt.push_back((i / 3) % 2 == 0);
    expect_identical(runs_test(alt, Gating::kSpecExample),
                     wordpar::runs_test(alt, Gating::kSpecExample));
    expect_identical(frequency_test(alt, Gating::kSpecExample),
                     wordpar::frequency_test(alt, Gating::kSpecExample));
    expect_identical(cumulative_sums_test(alt, Gating::kSpecExample),
                     wordpar::cumulative_sums_test(alt, Gating::kSpecExample));
  }
}

TEST(BatteryEquivalence, LongestRunAndRankKernels) {
  const auto bits = random_bits(40000, 17);
  expect_identical(longest_run_test(bits), wordpar::longest_run_test(bits));
  const auto big = random_bits(40000, 18);
  expect_identical(rank_test(big), wordpar::rank_test(big));
  expect_identical(dft_test(big), wordpar::dft_test(big));
}

TEST(BatteryEquivalence, DftChunkedCountEqualsUnchunkedAtEveryThreadCount) {
  // The spectral count split into 1-16 chunks on pools of 1-5 threads
  // equals the unchunked serial count. On a pool the five chunk counts run
  // as five concurrent jobs, so they also take turns on the length's plan
  // while idle workers help whichever transform holds it.
  constexpr std::size_t kN = std::size_t{1} << 16;
  const std::size_t chunk_counts[] = {1, 2, 4, 8, 16};
  std::vector<common::BitStream> inputs;
  for (const std::uint64_t seed : {41u, 42u}) {
    inputs.push_back(random_bits(kN, seed));
  }
  common::Xoshiro256StarStar rng(43);
  common::BitStream biased;
  for (std::size_t w = 0; w < kN / 64; ++w) {
    biased.append_bits(rng.next() | rng.next(), 64);  // P(1) = 3/4
  }
  inputs.push_back(biased);
  for (const common::BitStream& bits : inputs) {
    const std::size_t want = detail::dft_count_below(bits, kN, 1, serial_for);
    for (unsigned threads = 1; threads <= 5; ++threads) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      std::vector<std::size_t> got(std::size(chunk_counts));
      std::vector<BatteryExecutor::Job> jobs;
      for (std::size_t j = 0; j < std::size(chunk_counts); ++j) {
        jobs.push_back([&, j](const ParallelFor& parallel_for) {
          got[j] =
              detail::dft_count_below(bits, kN, chunk_counts[j], parallel_for);
          return TestResult{};
        });
      }
      (void)BatteryExecutor(threads).run(jobs);
      for (std::size_t j = 0; j < std::size(chunk_counts); ++j) {
        EXPECT_EQ(got[j], want) << "chunks " << chunk_counts[j];
      }
    }
  }

  // The threaded battery's dft on the benchmark's sequences reproduces the
  // p-values pinned by Dft.PinnedPValuesAt2To20Bits.
  struct Pin {
    std::uint64_t seed;
    std::size_t index;
    double p;
  };
  const Pin pins[] = {
      {1, 0, 0.77017453942179159},  {1, 1, 0.36825872102391044},
      {1, 2, 0.093075113527028547}, {1, 3, 0.23826271418605666},
      {2, 0, 0.71731712894377031},  {3, 0, 0.83390157635556883},
  };
  TestBattery::Options opt;
  opt.threads = 4;
  const TestBattery battery(opt);
  for (const Pin& pin : pins) {
    SCOPED_TRACE("seed " + std::to_string(pin.seed) + ", sequence " +
                 std::to_string(pin.index));
    const BatteryReport report =
        battery.run(battery_workload_sequence(pin.seed, pin.index));
    const auto dft = std::find_if(
        report.results.begin(), report.results.end(),
        [](const TestResult& r) { return r.name == "dft"; });
    ASSERT_NE(dft, report.results.end());
    EXPECT_EQ(dft->p_values, std::vector<double>{pin.p});
  }
}

TEST(BatteryEquivalence, ExcursionsKernels) {
  const auto bits = random_bits(200000, 23);
  expect_identical(random_excursions_test(bits),
                   wordpar::random_excursions_test(bits));
  expect_identical(random_excursions_variant_test(bits),
                   wordpar::random_excursions_variant_test(bits));
}

}  // namespace
}  // namespace trng::stat

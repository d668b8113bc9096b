// NIST SP 800-22 statistical test suite, implemented from the specification
// (Rukhin et al., "A Statistical Test Suite for Random and Pseudorandom
// Number Generators for Cryptographic Applications", rev. 1a).
//
// All fifteen tests are provided. Every function takes the bit sequence and
// returns a TestResult whose p_values follow the reference definitions;
// tests whose applicability prerequisites are not met (sequence too short,
// too few excursion cycles) return applicable = false rather than a
// fabricated p-value.
#pragma once

#include "common/bitstream.hpp"
#include "stattests/test_result.hpp"

namespace trng::stat {

/// Applicability-gating policy. kStrict (the production default) enforces
/// the specification's recommended minimum lengths and parameter ranges;
/// out-of-range inputs are reported applicable = false. kSpecExample
/// bypasses the *recommended* minimums only — the statistic itself is
/// computed identically — so the short worked examples of SP 800-22
/// Sections 2.x.4/2.x.8 (n = 10..100 bits) can be replayed as known-answer
/// tests against the published p-values.
enum class Gating { kStrict, kSpecExample };

/// 2.1 Frequency (monobit) test. Requires n >= 100 under kStrict.
TestResult frequency_test(const common::BitStream& bits,
                          Gating gating = Gating::kStrict);

/// 2.2 Frequency test within a block; `block_len` = M. block_len == 0
/// auto-selects M per the Section 2.2.7 recommendations (M >= 20,
/// M > 0.01 n, N < 100). Under kStrict an explicit out-of-range M is
/// reported inapplicable with a note; kSpecExample accepts any M >= 1
/// with at least one complete block (the Section 2.2.8 worked example
/// uses M = 10 on n = 100, which violates the recommendations).
TestResult block_frequency_test(const common::BitStream& bits,
                                std::size_t block_len = 0,
                                Gating gating = Gating::kStrict);

/// 2.3 Runs test. Requires n >= 100 under kStrict.
TestResult runs_test(const common::BitStream& bits,
                     Gating gating = Gating::kStrict);

/// 2.4 Longest run of ones in a block. Chooses M in {8, 128, 10^4} from n;
/// requires n >= 128.
TestResult longest_run_test(const common::BitStream& bits);

/// 2.5 Binary matrix rank test (32x32). Requires n >= 38 * 1024.
TestResult rank_test(const common::BitStream& bits);

/// 2.6 Discrete Fourier transform (spectral) test. Requires n >= 1000.
/// The one-argument form runs on the calling thread; the other spreads the
/// transform over `parallel_for`. Both return the same result.
TestResult dft_test(const common::BitStream& bits);
TestResult dft_test(const common::BitStream& bits,
                    const ParallelFor& parallel_for);

/// 2.7 Non-overlapping template matching, all aperiodic templates of length
/// `tpl_len` (default 9, the NIST default), 8 blocks. One p-value per
/// template. Requires n >= 8 * tpl_len * 8.
TestResult non_overlapping_template_test(const common::BitStream& bits,
                                         unsigned tpl_len = 9);

/// 2.8 Overlapping template matching (all-ones template of length
/// `tpl_len`, default 9). Requires n >= 10^6 for the reference pi values.
TestResult overlapping_template_test(const common::BitStream& bits,
                                     unsigned tpl_len = 9);

/// 2.9 Maurer's universal statistical test. L and Q are chosen from n per
/// the specification table; requires n >= 387840 (L = 6).
TestResult universal_test(const common::BitStream& bits);

/// Core of test 2.9 with explicit parameters: blocks of `big_l` bits,
/// `q` initialization blocks, expected value / variance for random input
/// supplied by the caller (the Section 2.9.4 worked example uses L = 2,
/// Q = 4 — far below the production table, hence this ungated entry point
/// for known-answer tests). Returns fn, K and the p-value.
struct [[nodiscard]] UniversalStatistic {
  double fn = 0.0;
  std::size_t k = 0;  ///< number of test blocks
  double p_value = 0.0;
};
UniversalStatistic universal_statistic(const common::BitStream& bits,
                                       unsigned big_l, std::size_t q,
                                       double expected, double variance);

/// 2.10 Linear complexity test (Berlekamp–Massey over GF(2)),
/// block length M = 500. Requires n >= 10^6 per the spec (we accept
/// n >= 200 * 500 and mark shorter inputs inapplicable).
TestResult linear_complexity_test(const common::BitStream& bits,
                                  std::size_t block_len = 500);

/// 2.11 Serial test, pattern length m (default 16 per the spec example for
/// n = 10^6; m must satisfy m < log2(n) - 2 under kStrict). Two p-values.
TestResult serial_test(const common::BitStream& bits, unsigned m = 16,
                       Gating gating = Gating::kStrict);

/// 2.12 Approximate entropy test, pattern length m (default 10;
/// m < log2(n) - 5 required under kStrict).
TestResult approximate_entropy_test(const common::BitStream& bits,
                                    unsigned m = 10,
                                    Gating gating = Gating::kStrict);

/// 2.13 Cumulative sums test, forward and backward. Two p-values.
/// Requires n >= 100 under kStrict.
TestResult cumulative_sums_test(const common::BitStream& bits,
                                Gating gating = Gating::kStrict);

/// 2.14 Random excursions test (states -4..-1, 1..4, 8 p-values).
/// Inapplicable when the number of zero-crossing cycles J < 500.
TestResult random_excursions_test(const common::BitStream& bits);

/// 2.15 Random excursions variant test (states -9..-1, 1..9, 18 p-values).
/// Inapplicable when J < 500.
TestResult random_excursions_variant_test(const common::BitStream& bits);

/// Berlekamp–Massey: linear complexity of a bit block (helper, exposed for
/// unit testing).
std::size_t berlekamp_massey(const std::vector<bool>& block);

/// Rank of a square GF(2) matrix given as row bitmasks (helper, exposed for
/// unit testing). Each row uses the low `dim` bits.
int gf2_rank(std::vector<std::uint64_t> rows, int dim);

/// All aperiodic templates of length m (helper; a template is aperiodic if
/// no proper shift of it matches itself — the template set of test 2.7).
std::vector<std::uint32_t> aperiodic_templates(unsigned m);

}  // namespace trng::stat

// Word-parallel SP 800-22 kernels.
//
// Every function here mirrors the signature and semantics of its scalar
// counterpart in sp800_22.hpp but counts over BitStream::words() instead of
// reading one bit at a time: popcount for frequency/block-frequency,
// `w ^ (w >> 1)` transition masks for runs, byte lookup tables and chunk
// combining for longest-run/cumulative-sums, skip-ahead walks for the
// excursions tests, packed window reads for universal and the overlapping
// template, one sliding-window histogram per block for the non-overlapping
// templates (exact because every template is aperiodic), one pattern-count
// pass plus its marginals for serial/approximate-entropy, and a bitsliced
// Berlekamp–Massey over 64 blocks at once for linear complexity.
//
// Contract: for any input the returned TestResult is bit-identical to the
// scalar version — same p-value doubles, same applicable flag, same note.
// The kernels only produce integer counts; the floating-point statistic is
// computed by the shared functions in sp800_22_detail.cpp, so equality of
// counts implies equality of p-values. The equivalence suite
// (tests/test_battery_equivalence.cpp) checks this for every registered
// source; lint rule TL008 requires the same for any kernel added later.
#pragma once

#include "common/bitstream.hpp"
#include "stattests/sp800_22.hpp"
#include "stattests/test_result.hpp"

namespace trng::stat::wordpar {

TestResult frequency_test(const common::BitStream& bits,
                          Gating gating = Gating::kStrict);
TestResult block_frequency_test(const common::BitStream& bits,
                                std::size_t block_len = 0,
                                Gating gating = Gating::kStrict);
TestResult runs_test(const common::BitStream& bits,
                     Gating gating = Gating::kStrict);
TestResult longest_run_test(const common::BitStream& bits);
TestResult rank_test(const common::BitStream& bits);
/// The DFT has no word-parallel form (the real-input FFT on doubles
/// dominates, and it already gathers its input from the packed words);
/// this forwards to the scalar test.
TestResult dft_test(const common::BitStream& bits);
TestResult non_overlapping_template_test(const common::BitStream& bits,
                                         unsigned tpl_len = 9);
TestResult overlapping_template_test(const common::BitStream& bits,
                                     unsigned tpl_len = 9);
TestResult universal_test(const common::BitStream& bits);
TestResult linear_complexity_test(const common::BitStream& bits,
                                  std::size_t block_len = 500);
TestResult serial_test(const common::BitStream& bits, unsigned m = 16,
                       Gating gating = Gating::kStrict);
TestResult approximate_entropy_test(const common::BitStream& bits,
                                    unsigned m = 10,
                                    Gating gating = Gating::kStrict);
TestResult cumulative_sums_test(const common::BitStream& bits,
                                Gating gating = Gating::kStrict);
TestResult random_excursions_test(const common::BitStream& bits);
TestResult random_excursions_variant_test(const common::BitStream& bits);

/// Bitsliced Berlekamp–Massey over `blocks` (at most 64) consecutive
/// blocks: block b covers bits [(first_block + b) * block_len, +block_len),
/// runs in bit lane b of every word, and its linear complexity is written
/// to out[b] — identical to stat::berlekamp_massey on the same bits (helper,
/// exposed for the equivalence suite).
void berlekamp_massey_lanes(const common::BitStream& bits,
                            std::size_t first_block, std::size_t blocks,
                            std::size_t block_len, std::size_t* out);

/// Bitsliced GF(2) rank of `nrows` packed matrix rows (row r's column j at
/// rows[r] bit j, as the rank test packs them): pivot-insertion row echelon
/// — each row is reduced against the pivots found so far, one whole-row XOR
/// per leading bit, with no column-major search loops. Returns the same
/// rank as stat::gf2_rank on the same rows (helper, exposed for the
/// equivalence suite).
int gf2_rank_rowechelon(const std::uint64_t* rows, int nrows);

}  // namespace trng::stat::wordpar

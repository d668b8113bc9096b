// Word-parallel kernels for the pattern-style SP 800-22 tests: serial,
// approximate entropy, universal, template matching, linear complexity.
// Serial, approximate entropy and the template histogram slide their
// windows over one lo/hi word pair per 64 positions; universal and the
// overlapping-template test read packed windows with BitStream::word_at;
// linear complexity runs Berlekamp–Massey bitsliced across 64 blocks. See
// sp800_22_wordpar.hpp for the bit-identity contract.
#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <vector>

#include "stattests/sp800_22_detail.hpp"
#include "stattests/sp800_22_wordpar.hpp"

namespace trng::stat::wordpar {

namespace {

const std::array<std::uint8_t, 256>& bit_reverse_byte_lut() {
  static const std::array<std::uint8_t, 256> lut = [] {
    std::array<std::uint8_t, 256> t{};
    for (unsigned b = 0; b < 256; ++b) {
      unsigned r = 0;
      for (unsigned j = 0; j < 8; ++j) {
        if (b & (1u << j)) r |= 1u << (7 - j);
      }
      t[b] = static_cast<std::uint8_t>(r);
    }
    return t;
  }();
  return lut;
}

/// Reverses the low `m` bits of v (m <= 32).
std::uint32_t bit_reverse(std::uint32_t v, unsigned m) {
  const auto& lut = bit_reverse_byte_lut();
  const std::uint32_t r = (static_cast<std::uint32_t>(lut[v & 0xFF]) << 24) |
                          (static_cast<std::uint32_t>(lut[(v >> 8) & 0xFF]) << 16) |
                          (static_cast<std::uint32_t>(lut[(v >> 16) & 0xFF]) << 8) |
                          static_cast<std::uint32_t>(lut[(v >> 24) & 0xFF]);
  return r >> (32 - m);
}

/// Calls f(v) for each position p in [begin, end), in order, where v is the
/// m-bit window starting at p read LSB-first (bit j of v = stream bit p+j,
/// 1 <= m <= 64). Each stream word is loaded once, as the low half of the
/// lo/hi pair that serves its 64 positions. The caller keeps every window
/// inside the stream: end + m - 1 <= bits.size().
template <typename F>
void for_each_window(const common::BitStream& bits, std::size_t begin,
                     std::size_t end, unsigned m, F&& f) {
  const std::vector<std::uint64_t>& words = bits.words();
  const std::uint64_t mask = ~0ULL >> (64 - m);
  for (std::size_t p = begin; p < end;) {
    const std::size_t k = p >> 6;
    const std::uint64_t lo = words[k];
    const std::uint64_t hi = k + 1 < words.size() ? words[k + 1] : 0;
    const unsigned first = static_cast<unsigned>(p & 63);
    const unsigned last = static_cast<unsigned>(
        std::min<std::size_t>(64, first + (end - p)));
    for (unsigned off = first; off < last; ++off) {
      f(((lo >> off) | ((hi << 1) << (63 - off))) & mask);
    }
    p += last - first;
  }
}

/// Counts of all overlapping m-bit patterns with cyclic extension, indexed
/// MSB-first exactly like the scalar pattern_counts: windows are extracted
/// LSB-first, tallied, then the histogram is permuted by per-value bit
/// reversal. The permutation is a bijection, so the MSB-indexed counts —
/// and therefore the summation order inside psi_squared_from_counts /
/// phi_from_counts — match the scalar kernel exactly.
std::vector<std::size_t> pattern_counts_words(const common::BitStream& bits,
                                              unsigned m) {
  if (m == 0) return {};
  const std::size_t n = bits.size();
  std::vector<std::size_t> counts_lsb(std::size_t{1} << m, 0);
  const std::size_t non_wrapping = n >= m ? n - m + 1 : 0;
  for_each_window(bits, 0, non_wrapping, m,
                  [&counts_lsb](std::uint64_t v) { ++counts_lsb[v]; });
  for (std::size_t i = non_wrapping; i < n; ++i) {  // cyclic extension
    std::uint64_t v = 0;
    for (unsigned j = 0; j < m; ++j) {
      v |= static_cast<std::uint64_t>(bits[(i + j) % n] ? 1 : 0) << j;
    }
    ++counts_lsb[v];
  }
  std::vector<std::size_t> counts(counts_lsb.size());
  for (std::size_t v = 0; v < counts_lsb.size(); ++v) {
    counts[bit_reverse(static_cast<std::uint32_t>(v), m)] = counts_lsb[v];
  }
  return counts;
}

/// Turns MSB-indexed m-bit pattern counts into the (m-1)-bit counts, in
/// place. The cyclic (m-1)-window at each position is the prefix of the
/// cyclic m-window at the same position, so c_{m-1}[u] = c_m[2u] +
/// c_m[2u+1] exactly, for any n. One bit folds to the empty vector, the
/// m = 0 convention of the scalar pattern_counts.
void fold_to_prefix(std::vector<std::size_t>& counts) {
  const std::size_t half = counts.size() / 2;
  if (half == 1) {
    counts.clear();
    return;
  }
  for (std::size_t u = 0; u < half; ++u) {
    counts[u] = counts[2 * u] + counts[2 * u + 1];
  }
  counts.resize(half);
}

/// In-place transpose of a 64x64 bit matrix: afterwards bit k of a[i] is
/// what bit i of a[k] was. Six rounds of block swaps, halving the block
/// size each round.
void transpose64(std::array<std::uint64_t, 64>& a) {
  std::uint64_t mask = 0x00000000FFFFFFFFULL;
  for (unsigned j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (unsigned k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = ((a[k] >> j) ^ a[k | j]) & mask;
      a[k] ^= t << j;
      a[k | j] ^= t;
    }
  }
}

}  // namespace

TestResult serial_test(const common::BitStream& bits, unsigned m,
                       Gating gating) {
  const std::size_t n = bits.size();
  if (auto gated = detail::gate_serial(n, m, gating)) return *gated;
  // One pass at m; the m-1 and m-2 counts are its marginals.
  std::vector<std::size_t> counts = pattern_counts_words(bits, m);
  const double psi_m = detail::psi_squared_from_counts(n, counts);
  fold_to_prefix(counts);
  const double psi_m1 = detail::psi_squared_from_counts(n, counts);
  fold_to_prefix(counts);
  const double psi_m2 = detail::psi_squared_from_counts(n, counts);
  return detail::serial_from_psis(m, psi_m, psi_m1, psi_m2);
}

TestResult approximate_entropy_test(const common::BitStream& bits, unsigned m,
                                    Gating gating) {
  const std::size_t n = bits.size();
  if (auto gated = detail::gate_approximate_entropy(n, m, gating)) {
    return *gated;
  }
  // One pass at m+1; the m counts are its marginal.
  std::vector<std::size_t> counts = pattern_counts_words(bits, m + 1);
  const double phi_m1 = detail::phi_from_counts(n, counts);
  fold_to_prefix(counts);
  const double phi_m = detail::phi_from_counts(n, counts);
  return detail::approximate_entropy_from_phis(n, m, phi_m, phi_m1);
}

TestResult universal_test(const common::BitStream& bits) {
  const std::size_t n = bits.size();
  if (auto gated = detail::gate_universal(n)) return *gated;
  const detail::UniversalRow* row = detail::universal_row(n);
  const unsigned big_l = row->big_l;
  const std::size_t q = std::size_t{10} << big_l;
  const std::size_t blocks = n / big_l;
  const std::size_t k = blocks - q;
  // Block values are read LSB-first here versus MSB-first in the scalar
  // kernel — a bit-reversal relabeling of the table index. The statistic
  // only depends on distances between equal block values, and relabeling
  // is a bijection, so every distance (and the order they are summed in)
  // is identical to the scalar path.
  const std::uint64_t mask = (1ULL << big_l) - 1;
  std::vector<std::size_t> last_seen(std::size_t{1} << big_l, 0);
  for (std::size_t b = 0; b < q; ++b) {
    last_seen[bits.word_at(b * big_l) & mask] = b + 1;
  }
  double sum = 0.0;
  for (std::size_t b = q; b < blocks; ++b) {
    const std::size_t v = bits.word_at(b * big_l) & mask;
    sum += std::log2(static_cast<double>(b + 1 - last_seen[v]));
    last_seen[v] = b + 1;
  }
  return detail::universal_from_sum(*row, sum, k);
}

TestResult non_overlapping_template_test(const common::BitStream& bits,
                                         unsigned tpl_len) {
  const std::size_t n = bits.size();
  if (auto gated = detail::gate_non_overlapping_template(n, tpl_len)) {
    return *gated;
  }
  constexpr std::size_t kBlocks = 8;
  const std::size_t block_len = n / kBlocks;
  const auto templates = aperiodic_templates(tpl_len);
  // The scalar kernel counts matches greedily: a match consumes its window
  // and the next one must start at or after its end. Every template here
  // is aperiodic — no proper prefix equals the suffix of the same length
  // (the filter in aperiodic_templates) — so two occurrences of one
  // template can never overlap: occurrences at p < p' < p + m would make
  // the template's suffix from p' - p equal its prefix of length
  // m - (p' - p). Hence the greedy scan takes every occurrence, and the
  // count is just the number of in-block windows equal to the template:
  // one histogram of all m-bit windows per block answers every template.
  // Windows are read LSB-first, so template value t (MSB-first) sits at
  // bin bit_reverse(t, m).
  std::vector<std::array<std::size_t, kBlocks>> w(templates.size());
  std::vector<std::size_t> hist(std::size_t{1} << tpl_len);
  for (std::size_t b = 0; b < kBlocks; ++b) {
    std::fill(hist.begin(), hist.end(), 0);
    const std::size_t base = b * block_len;
    for_each_window(bits, base, base + block_len - tpl_len + 1, tpl_len,
                    [&hist](std::uint64_t v) { ++hist[v]; });
    for (std::size_t t = 0; t < templates.size(); ++t) {
      w[t][b] = hist[bit_reverse(templates[t], tpl_len)];
    }
  }
  return detail::non_overlapping_template_from_counts(n, tpl_len, w);
}

TestResult overlapping_template_test(const common::BitStream& bits,
                                     unsigned tpl_len) {
  const std::size_t n = bits.size();
  if (auto gated = detail::gate_overlapping_template(n, tpl_len)) {
    return *gated;
  }
  constexpr std::size_t kBlockLen = 1032;
  const std::size_t big_n = n / kBlockLen;
  std::array<std::size_t, 6> v{};
  for (std::size_t b = 0; b < big_n; ++b) {
    const std::size_t base = b * kBlockLen;
    std::size_t count = 0;
    // Window starts 0..1023 within the block: exactly 16 full words of
    // all-ones match mask (an AND across the 9 shifted streams).
    for (std::size_t c = 0; c < 16; ++c) {
      std::uint64_t a = ~0ULL;
      for (unsigned j = 0; j < tpl_len; ++j) {
        a &= bits.word_at(base + c * 64 + j);
      }
      count += static_cast<std::size_t>(std::popcount(a));
    }
    v[std::min<std::size_t>(count, 5)]++;
  }
  return detail::overlapping_template_from_counts(big_n, v);
}

void berlekamp_massey_lanes(const common::BitStream& bits,
                            std::size_t first_block, std::size_t blocks,
                            std::size_t block_len, std::size_t* out) {
  if (block_len == 0) {
    std::fill(out, out + blocks, std::size_t{0});
    return;
  }
  const std::size_t m = block_len;
  // Lane k of every word below is block first_block + k; lanes past
  // `blocks` hold an all-zero block (its discrepancy is always 0, so it
  // never touches the other lanes and its result is dropped).
  //
  // srev[m-1-i] lane k = bit i of block k: the input transposed 64x64 bits
  // at a time and stored in reverse, so the discrepancy's s_{i-j} terms run
  // forward in memory alongside c_j.
  std::vector<std::uint64_t> srev(m, 0);
  std::array<std::uint64_t, 64> tile{};
  for (std::size_t chunk = 0; chunk < m; chunk += 64) {
    for (std::size_t k = 0; k < 64; ++k) {
      tile[k] = k < blocks
                    ? bits.word_at((first_block + k) * block_len + chunk)
                    : 0;
    }
    transpose64(tile);
    const std::size_t rows = std::min<std::size_t>(64, m - chunk);
    for (std::size_t x = 0; x < rows; ++x) srev[m - 1 - chunk - x] = tile[x];
  }

  // c[j] lane k = coefficient j of block k's connection polynomial C(x),
  // truncated to degree < m as the scalar loop truncates it. B(x) is kept
  // pre-shifted: bp[j] = coefficient j of x^(m_shift) B(x), so every lane
  // shifts by x on every step, and that shift is one decrement of the
  // window into buf (2m+2 words: m decrements, degree < m, and a zero
  // word below the window).
  std::vector<std::uint64_t> c(m, 0);
  std::vector<std::uint64_t> buf(2 * m + 2, 0);
  std::uint64_t* bp = buf.data() + m + 1;
  c[0] = ~0ULL;
  bp[1] = ~0ULL;  // x^1 * B(x), B(x) = 1
  std::array<std::size_t, 64> len{};  // per-lane linear complexity L
  for (std::size_t i = 0; i < m; ++i) {
    // deg C <= L and deg(x^m_shift B) <= i+1-L in every lane, so the
    // coefficient loops stop at the largest of those over the live lanes.
    std::size_t l_max = 0;
    std::size_t l_min = i + 1;
    std::uint64_t grows = 0;  // lanes with 2L <= i
    for (std::size_t k = 0; k < blocks; ++k) {
      l_max = std::max(l_max, len[k]);
      l_min = std::min(l_min, len[k]);
      grows |= static_cast<std::uint64_t>(2 * len[k] <= i) << k;
    }
    // Discrepancy d = s_i + sum_{j=1..L} c_j s_{i-j}, all lanes at once
    // (L <= i, so every s index is in range).
    const std::uint64_t* s = srev.data() + (m - 1 - i);
    std::uint64_t d = s[0];
    for (std::size_t j = 1; j <= l_max; ++j) d ^= c[j] & s[j];
    // Where d = 1: C += x^m_shift B. Where also 2L <= i: B takes the old C
    // and L becomes i+1-L. The x shift then applies to every lane.
    const std::uint64_t change = d & grows;
    const std::size_t top = std::min(std::max(l_max, i + 1 - l_min), m - 1);
    for (std::size_t j = 0; j <= top; ++j) {
      const std::uint64_t old = c[j];
      c[j] = old ^ (d & bp[j]);
      bp[j] ^= (bp[j] ^ old) & change;
    }
    for (std::uint64_t lanes = change; lanes != 0; lanes &= lanes - 1) {
      const int k = std::countr_zero(lanes);
      len[k] = i + 1 - len[k];
    }
    --bp;
  }
  std::copy(len.begin(), len.begin() + static_cast<std::ptrdiff_t>(blocks),
            out);
}

TestResult linear_complexity_test(const common::BitStream& bits,
                                  std::size_t block_len) {
  const std::size_t n = bits.size();
  if (auto gated = detail::gate_linear_complexity(n, block_len)) {
    return *gated;
  }
  const std::size_t big_n = n / block_len;
  std::vector<std::size_t> lengths(big_n, 0);
  for (std::size_t g = 0; g < big_n; g += 64) {
    berlekamp_massey_lanes(bits, g, std::min<std::size_t>(64, big_n - g),
                           block_len, lengths.data() + g);
  }
  return detail::linear_complexity_from_lengths(block_len, lengths);
}

}  // namespace trng::stat::wordpar

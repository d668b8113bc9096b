// SP 800-22 test 2.6: discrete Fourier transform (spectral) test — counting
// kernel. The p-value math lives in sp800_22_detail.cpp.
//
// Deviation from the reference implementation: the transform length n is
// the largest power of two <= the sequence length instead of an arbitrary-
// length DFT; trailing bits beyond the power-of-two boundary are ignored.
// The statistic is computed for the truncated length, so the test remains
// exact — it just examines slightly fewer bits.
//
// The transform is the standard real-input FFT. The n values x[i] = +-1 are
// packed pairwise as z[k] = x[2k] + i x[2k+1] (k < N = n/2), z goes through
// an iterative radix-2 decimation-in-time FFT of size N on split re/im
// arrays, and the n-point spectrum follows from the split
//   X[k] = E[k] + W_n^k O[k],   E[k] = (Z[k] + conj Z[N-k]) / 2,
//                               O[k] = (Z[k] - conj Z[N-k]) / 2i,
// with W_n = exp(-2 pi i / n). The split is fused with the count of
// |X[k]| < T over k < n/2, so no spectrum is ever stored.
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "stattests/sp800_22.hpp"
#include "stattests/sp800_22_detail.hpp"

namespace trng::stat {

namespace {

constexpr double kPi = 3.14159265358979323846;
/// The +-1 value of a bit: kSign[bit].
constexpr double kSign[2] = {-1.0, 1.0};

/// Twiddle factors of one transform, built per call. Level L (a group
/// length 8, 16, ..., 2N) stores W_L^j = exp(-2 pi i j / L) for j < L/4 at
/// index L/4 + j; the other half of each group uses W_L^(j + L/4) =
/// -i W_L^j. The top level L = 2N = n is the split's W_n^k, k < n/4. It is
/// the only level computed with cos/sin, and only on its first half (an
/// eighth of a turn); its second half follows from the symmetry
/// W_n^(n/4 - k) = -i conj(W_n^k), and each lower level is every other
/// entry of the level above (W_L^j = W_2L^2j), so every entry is a
/// correctly rounded cos/sin value rather than an accumulated recurrence.
struct Twiddles {
  std::vector<double> re;
  std::vector<double> im;

  explicit Twiddles(std::size_t half) : re(half), im(half) {
    const std::size_t top = half / 2;  // n/4 entries of W_n^k
    const double step = -2.0 * kPi / static_cast<double>(2 * half);
    for (std::size_t k = 0; k <= top / 2; ++k) {
      const double angle = step * static_cast<double>(k);
      re[top + k] = std::cos(angle);
      im[top + k] = std::sin(angle);
    }
    for (std::size_t k = 1; k < top / 2; ++k) {
      re[2 * top - k] = -im[top + k];
      im[2 * top - k] = -re[top + k];
    }
    for (std::size_t q = top / 2; q >= 2; q /= 2) {
      for (std::size_t j = 0; j < q; ++j) {
        re[q + j] = re[2 * q + 2 * j];
        im[q + j] = im[2 * q + 2 * j];
      }
    }
  }
};

/// Writes z in bit-reversed order into re/im[0, half) — sequential writes,
/// reads straight from the packed bits — and runs the first two DIT stages
/// (group lengths 2 and 4, twiddles 1 and -i) on the way. Output slots
/// 4t..4t+3 take z[r], z[r + N/2], z[r + N/4], z[r + 3N/4] where r is t
/// bit-reversed over log2(N/4) bits.
void load_bit_reversed(const std::vector<std::uint64_t>& words,
                       std::size_t half, double* re, double* im) {
  // z[k] is the bit pair (2k, 2k+1): word k / 32, shift 2 (k % 32).
  struct Point {
    double re;
    double im;
  };
  auto load = [&words](std::size_t k) {
    const std::uint64_t pair = words[k >> 5] >> (2 * (k & 31));
    return Point{kSign[pair & 1], kSign[(pair >> 1) & 1]};
  };
  const std::size_t quarter = half / 4;
  std::size_t r = 0;
  for (std::size_t p = 0; p < half; p += 4) {
    const Point a = load(r);
    const Point b = load(r + 2 * quarter);
    const Point c = load(r + quarter);
    const Point d = load(r + 3 * quarter);
    const double s0r = a.re + b.re, s0i = a.im + b.im;
    const double s1r = a.re - b.re, s1i = a.im - b.im;
    const double s2r = c.re + d.re, s2i = c.im + d.im;
    const double s3r = c.re - d.re, s3i = c.im - d.im;
    re[p] = s0r + s2r;
    im[p] = s0i + s2i;
    re[p + 2] = s0r - s2r;
    im[p + 2] = s0i - s2i;
    // (-i) s3 = (s3i, -s3r).
    re[p + 1] = s1r + s3i;
    im[p + 1] = s1i - s3r;
    re[p + 3] = s1r - s3i;
    im[p + 3] = s1i + s3r;
    // Reversed increment of r.
    std::size_t bit = quarter >> 1;
    for (; (r & bit) != 0; bit >>= 1) r ^= bit;
    r |= bit;
  }
}

/// One DIT stage of group length L = 4q over re/im[0, len): butterfly
/// (j, j + 2q) with W_L^j and (j + q, j + 3q) with W_L^(j+q) = -i W_L^j.
void dit_stage(double* re, double* im, std::size_t len, std::size_t q,
               const Twiddles& tw) {
  const double* wr = tw.re.data() + q;
  const double* wi = tw.im.data() + q;
  for (std::size_t g = 0; g < len; g += 4 * q) {
    double* ar = re + g;
    double* ai = im + g;
    double* br = ar + 2 * q;
    double* bi = ai + 2 * q;
    double* cr = ar + q;
    double* ci = ai + q;
    double* dr = ar + 3 * q;
    double* di = ai + 3 * q;
    for (std::size_t j = 0; j < q; ++j) {
      // All loads before any store: the eight slots lie at power-of-two
      // distances, and a load queued behind a store to the same address
      // modulo 4 KiB stalls.
      const double w_re = wr[j], w_im = wi[j];
      const double a_re = ar[j], a_im = ai[j], b_re = br[j], b_im = bi[j];
      const double c_re = cr[j], c_im = ci[j], d_re = dr[j], d_im = di[j];
      const double x_re = b_re * w_re - b_im * w_im;
      const double x_im = b_re * w_im + b_im * w_re;
      // d (-i w) with -i w = (w_im, -w_re).
      const double y_re = d_re * w_im + d_im * w_re;
      const double y_im = d_im * w_im - d_re * w_re;
      ar[j] = a_re + x_re;
      ai[j] = a_im + x_im;
      br[j] = a_re - x_re;
      bi[j] = a_im - x_im;
      cr[j] = c_re + y_re;
      ci[j] = c_im + y_im;
      dr[j] = c_re - y_re;
      di[j] = c_im - y_im;
    }
  }
}

/// Number of k < n/2 with |X[k]| < T, T^2 = ln(1/0.05) n, for the n-point
/// spectrum of bits [0, n); n is a power of two >= 16.
std::size_t count_below_threshold(const common::BitStream& bits,
                                  std::size_t n) {
  const std::size_t half = n / 2;
  std::vector<double> re(half);
  std::vector<double> im(half);
  const Twiddles tw(half);

  load_bit_reversed(bits.words(), half, re.data(), im.data());
  for (std::size_t q = 2; 4 * q <= half; q *= 2) {
    dit_stage(re.data(), im.data(), half, q, tw);
  }

  // The split works on 2E, 2O and so 2X (scaling by 2 is exact), compared
  // against (2T)^2.
  const double limit =
      4.0 * std::log(1.0 / 0.05) * static_cast<double>(n);
  auto below = [limit](double xr, double xi) {
    return xr * xr + xi * xi < limit ? std::size_t{1} : std::size_t{0};
  };
  // X[0] = Z[0].re + Z[0].im and X[N/2] = conj Z[N/2].
  std::size_t count = below(2.0 * (re[0] + im[0]), 0.0) +
                      below(2.0 * re[half / 2], 2.0 * im[half / 2]);
  const double* wr = tw.re.data() + half / 2;
  const double* wi = tw.im.data() + half / 2;
  for (std::size_t k = 1; k < half / 2; ++k) {
    // A = Z[k], B = Z[N-k]. E and O are conjugate-symmetric and
    // W_n^(N-k) = -conj(W_n^k), so X[N-k] = conj(E[k] - W_n^k O[k]).
    const double a_re = re[k], a_im = im[k];
    const double b_re = re[half - k], b_im = im[half - k];
    const double e_re = a_re + b_re, e_im = a_im - b_im;  // 2E[k]
    const double o_re = a_im + b_im, o_im = b_re - a_re;  // 2O[k]
    const double p_re = wr[k] * o_re - wi[k] * o_im;      // W_n^k 2O[k]
    const double p_im = wr[k] * o_im + wi[k] * o_re;
    count += below(e_re + p_re, e_im + p_im) + below(e_re - p_re, e_im - p_im);
  }
  return count;
}

}  // namespace

TestResult dft_test(const common::BitStream& bits) {
  if (auto gated = detail::gate_dft(bits.size())) return *gated;
  // Largest power of two <= size.
  std::size_t n = 1;
  while (n * 2 <= bits.size()) n *= 2;
  return detail::dft_result(count_below_threshold(bits, n), n);
}

}  // namespace trng::stat

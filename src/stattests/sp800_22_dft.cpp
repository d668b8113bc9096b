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
//
// The transform splits into chunks without changing any result. Every stage
// whose groups fit in a slice of N/C points runs slice by slice (the gather
// included); each of the log2 C top stages splits by butterfly index, with
// a barrier between stages; the split-and-count splits by k and sums the
// integer counts. Every butterfly does the same arithmetic in the same
// order for any C, so the count is identical for every chunk count and
// every schedule, and C = 1 is the plain serial transform.
//
// Each transform length has one plan — its twiddle table and re/im work
// arrays — built on first use and kept for the life of the process, so a
// transform allocates nothing and takes no cos/sin after the first call.
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "stattests/sp800_22.hpp"
#include "stattests/sp800_22_detail.hpp"

namespace trng::stat {

namespace {

constexpr double kPi = 3.14159265358979323846;
/// The +-1 value of a bit: kSign[bit].
constexpr double kSign[2] = {-1.0, 1.0};
/// Chunks a transform splits into; halved until a slice holds kMinSlice
/// points.
constexpr std::size_t kChunks = 16;
constexpr std::size_t kMinSlice = 16;

/// [c * total / chunks, (c + 1) * total / chunks): the c-th of `chunks`
/// near-equal ranges covering [0, total).
struct Range {
  std::size_t begin;
  std::size_t end;
};
Range chunk_range(std::size_t c, std::size_t chunks, std::size_t total) {
  return {c * total / chunks, (c + 1) * total / chunks};
}

/// Twiddle factors of one transform length. Level L (a group length 8,
/// 16, ..., 2N) stores W_L^j = exp(-2 pi i j / L) for j < L/4 at index
/// L/4 + j; the other half of each group uses W_L^(j + L/4) = -i W_L^j.
/// The top level L = 2N = n is the split's W_n^k, k < n/4. It is the only
/// level computed with cos/sin, and only on its first half (an eighth of a
/// turn), split over k into `chunks` ranges; its second half follows from
/// the symmetry W_n^(n/4 - k) = -i conj(W_n^k), and each lower level is
/// every other entry of the level above (W_L^j = W_2L^2j), so every entry
/// is a correctly rounded cos/sin value rather than an accumulated
/// recurrence.
struct Twiddles {
  std::vector<double> re;
  std::vector<double> im;

  void build(std::size_t half, std::size_t chunks,
             const ParallelFor& parallel_for) {
    re.assign(half, 0.0);
    im.assign(half, 0.0);
    const std::size_t top = half / 2;  // n/4 entries of W_n^k
    const double step = -2.0 * kPi / static_cast<double>(2 * half);
    parallel_for(chunks, [&](std::size_t c) {
      const Range ks = chunk_range(c, chunks, top / 2 + 1);
      for (std::size_t k = ks.begin; k < ks.end; ++k) {
        const double angle = step * static_cast<double>(k);
        re[top + k] = std::cos(angle);
        im[top + k] = std::sin(angle);
        if (k >= 1 && k < top / 2) {
          re[2 * top - k] = -im[top + k];
          im[2 * top - k] = -re[top + k];
        }
      }
    });
    for (std::size_t q = top / 2; q >= 2; q /= 2) {
      for (std::size_t j = 0; j < q; ++j) {
        re[q + j] = re[2 * q + 2 * j];
        im[q + j] = im[2 * q + 2 * j];
      }
    }
  }
};

/// Everything a transform of one length needs besides its input. One plan
/// per length lives for the process; a transform holds `mu` throughout, so
/// concurrent transforms of one length take turns.
struct Plan {
  std::mutex mu;
  Twiddles tw;  // empty until the first transform
  std::vector<double> re;
  std::vector<double> im;
};

/// The plan for transforms of `half` complex points.
Plan& plan_for(std::size_t half) {
  static std::mutex plans_mu;
  static std::map<std::size_t, std::unique_ptr<Plan>> plans;
  const std::lock_guard<std::mutex> lock(plans_mu);
  std::unique_ptr<Plan>& plan = plans[half];
  if (!plan) plan = std::make_unique<Plan>();
  return *plan;
}

/// Writes z in bit-reversed order into output slots [begin, end) of
/// re/im[0, half) — sequential writes, reads straight from the packed
/// bits — and runs the first two DIT stages (group lengths 2 and 4,
/// twiddles 1 and -i) on the way. Output slots 4t..4t+3 take z[r],
/// z[r + N/2], z[r + N/4], z[r + 3N/4] where r is t bit-reversed over
/// log2(N/4) bits. `begin` and `end` are multiples of 4.
void load_bit_reversed(const std::vector<std::uint64_t>& words,
                       std::size_t half, std::size_t begin, std::size_t end,
                       double* re, double* im) {
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
  for (std::size_t b = 1, rb = quarter >> 1; b < quarter; b <<= 1, rb >>= 1) {
    if ((begin / 4 & b) != 0) r |= rb;
  }
  for (std::size_t p = begin; p < end; p += 4) {
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

/// One DIT stage of group length L = 4q over re/im[0, len), butterfly
/// indices [j_begin, j_end) of every group: butterfly (j, j + 2q) with
/// W_L^j and (j + q, j + 3q) with W_L^(j+q) = -i W_L^j.
void dit_stage(double* re, double* im, std::size_t len, std::size_t q,
               const Twiddles& tw, std::size_t j_begin, std::size_t j_end) {
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
    for (std::size_t j = j_begin; j < j_end; ++j) {
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

}  // namespace

namespace detail {

std::size_t dft_count_below(const common::BitStream& bits, std::size_t n,
                            std::size_t chunks,
                            const ParallelFor& parallel_for) {
  const std::size_t half = n / 2;
  while (chunks > 1 && half / chunks < kMinSlice) chunks /= 2;
  const std::size_t slice = half / chunks;
  Plan& plan = plan_for(half);
  const std::lock_guard<std::mutex> lock(plan.mu);
  if (plan.tw.re.empty()) {
    plan.tw.build(half, chunks, parallel_for);
    plan.re.resize(half);
    plan.im.resize(half);
  }
  const Twiddles& tw = plan.tw;
  double* re = plan.re.data();
  double* im = plan.im.data();

  // Stages q < q_top have groups of at most one slice and run slice by
  // slice, right after the slice's gather.
  std::size_t q_top = 2;
  while (4 * q_top <= slice) q_top *= 2;
  parallel_for(chunks, [&](std::size_t c) {
    const std::size_t begin = c * slice;
    load_bit_reversed(bits.words(), half, begin, begin + slice, re, im);
    for (std::size_t q = 2; q < q_top; q *= 2) {
      dit_stage(re + begin, im + begin, slice, q, tw, 0, q);
    }
  });
  // The top stages span slices and split by butterfly index instead; each
  // parallel_for returns once its stage is done.
  for (std::size_t q = q_top; 4 * q <= half; q *= 2) {
    parallel_for(chunks, [&](std::size_t c) {
      const Range js = chunk_range(c, chunks, q);
      dit_stage(re, im, half, q, tw, js.begin, js.end);
    });
  }

  // The split works on 2E, 2O and so 2X (scaling by 2 is exact), compared
  // against (2T)^2.
  const double limit =
      4.0 * std::log(1.0 / 0.05) * static_cast<double>(n);
  auto below = [limit](double xr, double xi) {
    return xr * xr + xi * xi < limit ? std::size_t{1} : std::size_t{0};
  };
  const double* wr = tw.re.data() + half / 2;
  const double* wi = tw.im.data() + half / 2;
  std::vector<std::size_t> counts(chunks);
  parallel_for(chunks, [&](std::size_t c) {
    const Range ks = chunk_range(c, chunks, half / 2);
    std::size_t count = 0;
    for (std::size_t k = ks.begin == 0 ? 1 : ks.begin; k < ks.end; ++k) {
      // A = Z[k], B = Z[N-k]. E and O are conjugate-symmetric and
      // W_n^(N-k) = -conj(W_n^k), so X[N-k] = conj(E[k] - W_n^k O[k]).
      const double a_re = re[k], a_im = im[k];
      const double b_re = re[half - k], b_im = im[half - k];
      const double e_re = a_re + b_re, e_im = a_im - b_im;  // 2E[k]
      const double o_re = a_im + b_im, o_im = b_re - a_re;  // 2O[k]
      const double p_re = wr[k] * o_re - wi[k] * o_im;      // W_n^k 2O[k]
      const double p_im = wr[k] * o_im + wi[k] * o_re;
      count +=
          below(e_re + p_re, e_im + p_im) + below(e_re - p_re, e_im - p_im);
    }
    counts[c] = count;
  });
  // X[0] = Z[0].re + Z[0].im and X[N/2] = conj Z[N/2].
  std::size_t count = below(2.0 * (re[0] + im[0]), 0.0) +
                      below(2.0 * re[half / 2], 2.0 * im[half / 2]);
  for (const std::size_t c : counts) count += c;
  return count;
}

}  // namespace detail

TestResult dft_test(const common::BitStream& bits,
                    const ParallelFor& parallel_for) {
  if (auto gated = detail::gate_dft(bits.size())) return *gated;
  // Largest power of two <= size.
  std::size_t n = 1;
  while (n * 2 <= bits.size()) n *= 2;
  return detail::dft_result(
      detail::dft_count_below(bits, n, kChunks, parallel_for), n);
}

TestResult dft_test(const common::BitStream& bits) {
  return dft_test(bits, serial_for);
}

}  // namespace trng::stat

#include "sim/ring_oscillator.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>

namespace trng::sim {

RingOscillator::RingOscillator(std::vector<Picoseconds> stage_delays,
                               Picoseconds white_sigma_ps,
                               const NoiseConfig& noise, SupplyNoise* supply,
                               std::uint64_t seed,
                               Picoseconds history_window_ps)
    : stage_delays_(std::move(stage_delays)),
      white_sigma_(white_sigma_ps * noise.white_sigma_scale),
      flicker_coeff_(std::sqrt(1.0 - noise.flicker_corr * noise.flicker_corr) *
                     noise.flicker_sigma_ps),
      noise_(noise),
      supply_(supply),
      rng_(seed),
      history_window_(history_window_ps) {
  if (stage_delays_.empty()) {
    throw std::invalid_argument("RingOscillator: need at least one stage");
  }
  for (Picoseconds d : stage_delays_) {
    if (!(d > 0.0)) {
      throw std::invalid_argument("RingOscillator: stage delays must be > 0");
    }
  }
  toggles_.resize(stage_delays_.size());
  value_.assign(stage_delays_.size(), 1);
}

Picoseconds RingOscillator::mean_stage_delay() const {
  Picoseconds sum = 0.0;
  for (Picoseconds d : stage_delays_) sum += d;
  return sum / static_cast<double>(stage_delays_.size());
}

Picoseconds RingOscillator::nominal_half_period() const {
  Picoseconds sum = 0.0;
  for (Picoseconds d : stage_delays_) sum += d;
  return sum;
}

void RingOscillator::reset(Picoseconds t0) {
  for (auto& q : toggles_) q.clear();
  std::fill(value_.begin(), value_.end(), static_cast<unsigned char>(1));
  running_ = true;
  now_ = t0;
  // ENABLE rises at t0: the NAND (stage 0) sees both inputs high and its
  // output falls one stage delay later.
  pending_stage_ = 0;
  const double mult = supply_ ? supply_->multiplier_at(t0) : 1.0;
  flicker_state_ = noise_.flicker_corr * flicker_state_ +
                   flicker_coeff_ * rng_.next_gaussian();
  pending_time_ = t0 + stage_delays_[0] * mult +
                  white_sigma_ * rng_.next_gaussian() + flicker_state_;
}

void RingOscillator::advance_to(Picoseconds t) {
  if (!running_) {
    throw std::logic_error("RingOscillator::advance_to: call reset() first");
  }
  // Hoist loop-carried state into locals: the toggle push_back below may
  // write through pointers the compiler cannot prove distinct from *this,
  // which would force a reload of every member each iteration. The
  // arithmetic (and hence the random stream) is unchanged.
  const int nstages = stages();
  const double corr = noise_.flicker_corr;
  const double fcoeff = flicker_coeff_;
  const double wsigma = white_sigma_;
  const Picoseconds* sd = stage_delays_.data();
  std::vector<Picoseconds>* tg = toggles_.data();
  unsigned char* val = value_.data();
  double fs = flicker_state_;
  Picoseconds pt = pending_time_;
  int ps = pending_stage_;
  std::uint64_t trans = transitions_;
  common::Xoshiro256StarStar rng = rng_;
  // The supply's tone/walk state is likewise copied in and written back so
  // multiplier_at runs entirely on locals; nobody else queries the shared
  // supply while this loop runs, so the draw order it sees is unchanged.
  SupplyNoise supply_local = supply_ ? *supply_ : SupplyNoise{{}, 0};
  SupplyNoise* const sup = supply_ ? &supply_local : nullptr;

  while (pt <= t) {
    tg[static_cast<std::size_t>(ps)].push_back(pt);
    val[static_cast<std::size_t>(ps)] ^= 1u;
    ++trans;

    // Launch the transition into the next stage (wrap without the integer
    // division a % would cost on this per-event path).
    int next = ps + 1;
    if (next == nstages) next = 0;
    const double mult = sup ? sup->multiplier_at(pt) : 1.0;
    fs = corr * fs + fcoeff * rng.next_gaussian();
    Picoseconds delay = sd[next] * mult + wsigma * rng.next_gaussian() + fs;
    // Physical floor: a gate cannot have non-positive propagation delay.
    delay = std::max(delay, 0.05 * sd[next]);
    ps = next;
    pt += delay;
  }
  rng_ = rng;
  if (supply_) *supply_ = supply_local;
  flicker_state_ = fs;
  pending_time_ = pt;
  pending_stage_ = ps;
  transitions_ = trans;
  now_ = t;
  prune_history();
}

void RingOscillator::prune_history() {
  // Lazy: retaining extra history is observably identical (every query
  // depends only on toggles at or after its time plus the count of later
  // toggles), so trimming is deferred until a queue is long enough for the
  // walk to be worth its cost. Restart-mode operation clears the queues at
  // every reset and typically never prunes.
  constexpr std::size_t kPruneThreshold = 64;
  bool any_long = false;
  for (const auto& q : toggles_) any_long = any_long || q.size() > kPruneThreshold;
  if (!any_long) return;
  const Picoseconds cutoff = now_ - history_window_;
  for (auto& q : toggles_) {
    // Keep one toggle before the window so value_at can resolve the level
    // at the window's left edge. Same retention as the old per-element
    // pop_front loop, as one contiguous erase.
    std::size_t drop = 0;
    while (q.size() - drop > 1 && q[drop + 1] < cutoff) ++drop;
    if (drop > 0) {
      q.erase(q.begin(), q.begin() + static_cast<std::ptrdiff_t>(drop));
    }
  }
}

bool RingOscillator::value_at(int stage, Picoseconds t) const {
  if (stage < 0 || stage >= stages()) {
    throw std::out_of_range("RingOscillator::value_at: bad stage");
  }
  if (t > now_) {
    throw std::logic_error("RingOscillator::value_at: time not simulated yet");
  }
  if (t < now_ - history_window_) {
    throw std::logic_error(
        "RingOscillator::value_at: time before retained history window");
  }
  const auto& q = toggles_[static_cast<std::size_t>(stage)];
  // Current value was flipped by all retained toggles; undo those after t.
  const auto it = std::upper_bound(q.begin(), q.end(), t);
  const auto after_t = static_cast<std::size_t>(q.end() - it);
  bool v = value_[static_cast<std::size_t>(stage)] != 0;
  if (after_t % 2 == 1) v = !v;
  return v;
}

std::vector<Picoseconds> RingOscillator::edges_in(int stage, Picoseconds t0,
                                                  Picoseconds t1) const {
  if (stage < 0 || stage >= stages()) {
    throw std::out_of_range("RingOscillator::edges_in: bad stage");
  }
  if (t1 > now_) {
    throw std::logic_error("RingOscillator::edges_in: time not simulated yet");
  }
  const auto& q = toggles_[static_cast<std::size_t>(stage)];
  std::vector<Picoseconds> out;
  auto lo = std::lower_bound(q.begin(), q.end(), t0);
  auto hi = std::upper_bound(q.begin(), q.end(), t1);
  out.assign(lo, hi);
  return out;
}

}  // namespace trng::sim

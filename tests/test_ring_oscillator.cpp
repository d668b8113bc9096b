// Unit tests for the event-based ring-oscillator simulation, including the
// jitter-accumulation law (Eq. 1) it must reproduce.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/stats.hpp"
#include "server/sha256.hpp"
#include "sim/ring_oscillator.hpp"

namespace trng::sim {
namespace {

RingOscillator make_noiseless(std::vector<Picoseconds> delays) {
  return RingOscillator(std::move(delays), /*white_sigma_ps=*/0.0,
                        NoiseConfig::white_only(), nullptr, /*seed=*/1);
}

TEST(RingOscillator, RejectsBadConstruction) {
  EXPECT_THROW(make_noiseless({}), std::invalid_argument);
  EXPECT_THROW(make_noiseless({480.0, -1.0}), std::invalid_argument);
  EXPECT_THROW(make_noiseless({480.0, 0.0}), std::invalid_argument);
}

TEST(RingOscillator, RequiresResetBeforeAdvance) {
  auto osc = make_noiseless({480.0});
  EXPECT_THROW(osc.advance_to(100.0), std::logic_error);
}

TEST(RingOscillator, NoiselessPeriodIsExact) {
  auto osc = make_noiseless({100.0, 150.0, 200.0});
  osc.reset(0.0);
  osc.advance_to(45000.0);  // 100 half-periods of 450 ps
  // One transition per stage traversal; mean traversal = 150 ps.
  EXPECT_EQ(osc.transition_count(), 45000ull / 150ull);
}

TEST(RingOscillator, NoiselessToggleTimesMatchStageDelays) {
  auto osc = make_noiseless({100.0, 150.0, 200.0});
  osc.reset(0.0);
  osc.advance_to(2000.0);
  // Stage 0 (NAND) falls at t=100; stage 1 at 250; stage 2 at 450;
  // NAND rises again at 550, ...
  const auto e0 = osc.edges_in(0, 0.0, 700.0);
  ASSERT_GE(e0.size(), 2u);
  EXPECT_NEAR(e0[0], 100.0, 1e-9);
  EXPECT_NEAR(e0[1], 550.0, 1e-9);
  const auto e2 = osc.edges_in(2, 0.0, 500.0);
  ASSERT_EQ(e2.size(), 1u);
  EXPECT_NEAR(e2[0], 450.0, 1e-9);
}

TEST(RingOscillator, ValueTracksToggles) {
  auto osc = make_noiseless({100.0, 150.0, 200.0});
  osc.reset(0.0);
  osc.advance_to(2000.0);
  EXPECT_TRUE(osc.value_at(0, 50.0));    // before first fall
  EXPECT_FALSE(osc.value_at(0, 150.0));  // after fall at 100
  EXPECT_TRUE(osc.value_at(0, 600.0));   // after rise at 550
  EXPECT_TRUE(osc.value_at(2, 100.0));
  EXPECT_FALSE(osc.value_at(2, 460.0));
}

TEST(RingOscillator, ValueAtRejectsFutureAndBadStage) {
  auto osc = make_noiseless({480.0});
  osc.reset(0.0);
  osc.advance_to(1000.0);
  EXPECT_THROW(osc.value_at(0, 2000.0), std::logic_error);
  EXPECT_THROW(osc.value_at(1, 500.0), std::out_of_range);
  EXPECT_THROW(osc.edges_in(1, 0.0, 10.0), std::out_of_range);
  EXPECT_THROW(osc.edges_in(0, 0.0, 5000.0), std::logic_error);
}

TEST(RingOscillator, ResetRestoresPhase) {
  RingOscillator osc({480.0}, 0.0, NoiseConfig::white_only(), nullptr, 3);
  osc.reset(0.0);
  osc.advance_to(10000.0);
  const bool v1 = osc.value_at(0, 10000.0);
  osc.reset(20000.0);
  osc.advance_to(30000.0);
  const bool v2 = osc.value_at(0, 30000.0);
  EXPECT_EQ(v1, v2);  // same accumulation time from reset, no noise
}

TEST(RingOscillator, MeanStageDelayAndHalfPeriod) {
  auto osc = make_noiseless({100.0, 200.0, 300.0});
  EXPECT_DOUBLE_EQ(osc.mean_stage_delay(), 200.0);
  EXPECT_DOUBLE_EQ(osc.nominal_half_period(), 600.0);
}

TEST(RingOscillator, HistoryWindowIsPruned) {
  auto osc = make_noiseless({480.0});
  osc.reset(0.0);
  osc.advance_to(1.0e6);
  // Values inside the retained window work; far past throws.
  EXPECT_NO_THROW(osc.value_at(0, 1.0e6 - 1000.0));
  EXPECT_THROW(osc.value_at(0, 100.0), std::logic_error);
}

/// Eq. 1: the std-dev of the edge position after accumulation time t_A is
/// sigma_LUT * sqrt(t_A / d0). This is the core physical claim the whole
/// paper rests on; verify the simulator reproduces it.
class JitterAccumulation : public ::testing::TestWithParam<double> {};

TEST_P(JitterAccumulation, MatchesSqrtLaw) {
  const double t_acc = GetParam();
  constexpr double kD0 = 480.0;
  constexpr double kSigma = 2.0;
  RingOscillator osc({kD0, kD0, kD0}, kSigma, NoiseConfig::white_only(),
                     nullptr, 12345);
  // Measure the arrival time of the last edge before t_acc relative to its
  // noise-free position, over many restarts.
  common::RunningStats spread;
  constexpr int kReps = 400;
  double t0 = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    osc.reset(t0);
    osc.advance_to(t0 + t_acc + 3000.0);
    const auto edges = osc.edges_in(0, t0, t0 + t_acc + 3000.0);
    // Pick the edge index closest to t_acc; its noise-free position is
    // deterministic, so the spread across reps is the accumulated jitter.
    std::size_t idx = 0;
    while (idx + 1 < edges.size() && edges[idx + 1] <= t0 + t_acc) ++idx;
    spread.add(edges[idx] - t0);
    t0 += t_acc + 10000.0;
  }
  const double expected = kSigma * std::sqrt(t_acc / kD0);
  EXPECT_NEAR(spread.stddev(), expected, 0.15 * expected)
      << "t_acc = " << t_acc;
}

INSTANTIATE_TEST_SUITE_P(Sweep, JitterAccumulation,
                         ::testing::Values(10000.0, 20000.0, 50000.0,
                                           100000.0));

TEST(RingOscillator, FlickerInflatesLongWindows) {
  // With flicker enabled the spread at 1 us must exceed the white-only
  // prediction noticeably (the paper's warning about measurement windows).
  NoiseConfig noisy;  // defaults include flicker
  RingOscillator osc({480.0, 480.0, 480.0}, 2.0, noisy, nullptr, 777);
  common::RunningStats spread;
  const double t_acc = 1.0e6;
  double t0 = 0.0;
  for (int rep = 0; rep < 120; ++rep) {
    osc.reset(t0);
    osc.advance_to(t0 + t_acc + 3000.0);
    const auto edges = osc.edges_in(0, t0 + t_acc - 2000.0, t0 + t_acc);
    ASSERT_FALSE(edges.empty());
    spread.add(edges.back() - t0);
    t0 += t_acc + 10000.0;
  }
  const double white_only = 2.0 * std::sqrt(t_acc / 480.0);
  EXPECT_GT(spread.stddev(), 1.2 * white_only);
}

TEST(RingOscillator, SingleStageWorks) {
  auto osc = make_noiseless({480.0});
  osc.reset(0.0);
  osc.advance_to(480.0 * 10.5);
  EXPECT_EQ(osc.transition_count(), 10u);
}

// Pinned trajectories. Each digest is SHA-256 over std::bit_cast<uint64_t>
// of every retained toggle time and every current stage value, folded
// after each step, plus the final transition count. The constants pin
// the jitter draw order and per-transition arithmetic of advance_to and
// reset across commits; any rewrite of them must reproduce these bits.

class TrajectoryDigest {
 public:
  void fold_word(std::uint64_t w) {
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(w >> (8 * i));
    sha_.update(b, sizeof(b));
  }
  void fold_time(Picoseconds t) { fold_word(std::bit_cast<std::uint64_t>(t)); }
  void fold(const RingOscillator& osc) {
    for (int s = 0; s < osc.stages(); ++s) {
      for (const Picoseconds t : osc.toggle_history(s)) fold_time(t);
      fold_word(osc.current_value(s) ? 1 : 0);
    }
  }
  std::string hex() {
    std::uint8_t d[server::Sha256::kDigestBytes];
    sha_.final(d);
    static constexpr char kHex[] = "0123456789abcdef";
    std::string out;
    for (const std::uint8_t v : d) {
      out += kHex[v >> 4];
      out += kHex[v & 0xF];
    }
    return out;
  }

 private:
  server::Sha256 sha_;
};

constexpr std::uint64_t kPinSeed = 0xD0D0CAFEULL;

RingOscillator make_pinned(const NoiseConfig& noise, SupplyNoise* supply) {
  return RingOscillator({480.0, 505.0, 466.0}, /*white_sigma_ps=*/2.0, noise,
                        supply, kPinSeed);
}

TEST(RingOscillatorPinned, IrregularStepsWithSupply) {
  // Steps from sub-transition (50 ps) to thousands of periods.
  const NoiseConfig noise;  // white + flicker + supply tone/walk
  SupplyNoise supply(noise, 42);
  auto osc = make_pinned(noise, &supply);
  osc.reset(0.0);
  const double steps[] = {100.0,    3000.0, 50000.0, 50.0,
                          250000.0, 1.0e6,  333.3,   2.5e6};
  TrajectoryDigest dg;
  double t = 0.0;
  for (const double dt : steps) {
    t += dt;
    osc.advance_to(t);
    dg.fold(osc);
  }
  EXPECT_EQ(osc.transition_count(), 7863u);
  EXPECT_EQ(dg.hex(), "c914aa51a685f23972153945eb58aca9dfcfad5de803f257d8fcc4e55d8c64e5");
}

TEST(RingOscillatorPinned, RestartsCarryFlickerWithSupply) {
  // The carry-chain sampler's pattern: reset (flicker state persists),
  // accumulate, capture, repeat.
  const NoiseConfig noise;
  SupplyNoise supply(noise, 7);
  auto osc = make_pinned(noise, &supply);
  TrajectoryDigest dg;
  double t0 = 0.0;
  for (int rep = 0; rep < 25; ++rep) {
    osc.reset(t0);
    const double t_end = t0 + 20000.0 + 137.0 * rep;
    osc.advance_to(t_end);
    dg.fold(osc);
    t0 = t_end + 5000.0;
  }
  EXPECT_EQ(osc.transition_count(), 1106u);
  EXPECT_EQ(dg.hex(), "20705db6c7fb9e7e0b37c610c5fc2da52d96c7769ad2783a856342394bf39c32");
}

TEST(RingOscillatorPinned, FreeRunEdgesAfterPruningWithSupply) {
  const NoiseConfig noise;
  SupplyNoise supply(noise, 3);
  auto osc = make_pinned(noise, &supply);
  osc.reset(0.0);
  osc.advance_to(5.0e6);
  TrajectoryDigest dg;
  dg.fold(osc);
  for (int s = 0; s < osc.stages(); ++s) {
    const auto edges = osc.edges_in(s, 5.0e6 - 4000.0, 5.0e6);
    ASSERT_FALSE(edges.empty()) << "stage " << s;
    for (const Picoseconds e : edges) dg.fold_time(e);
  }
  EXPECT_EQ(osc.transition_count(), 10337u);
  EXPECT_EQ(dg.hex(), "f9358947c516c997509455be21c2a2c0d01e4ef58d8687d1dcc6fb3ea8f8bab8");
}

TEST(RingOscillatorPinned, WhiteOnlyWithoutSupply) {
  // The stochastic model's world (no flicker, no supply), including a
  // reset in mid-stream.
  const NoiseConfig noise = NoiseConfig::white_only();
  auto osc = make_pinned(noise, nullptr);
  osc.reset(0.0);
  TrajectoryDigest dg;
  double t = 0.0;
  for (t = 25000.0; t <= 500000.0; t += 25000.0) {
    osc.advance_to(t);
    dg.fold(osc);
  }
  osc.reset(t + 1000.0);
  osc.advance_to(t + 60000.0);
  dg.fold(osc);
  EXPECT_EQ(osc.transition_count(), 1154u);
  EXPECT_EQ(dg.hex(), "5079b974dcbbd2a0cecf5edb140f6c665952f4f827dad1212679d2fbaa0ec82c");
}

}  // namespace
}  // namespace trng::sim

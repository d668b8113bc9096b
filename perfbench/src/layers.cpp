// Layer sweep of a traced run: short standalone calls into each module's
// public functions, for every per-layer metric the workload's own traced
// phase did not measure (the die pipeline and the statistical tests are
// skipped when the workload traced them). Every traced run thus reports
// the same per-layer set.
#include <string>
#include <vector>

#include "battery.hpp"
#include "bench.hpp"
#include "common/bitstream.hpp"
#include "common/rng.hpp"
#include "core/config.hpp"
#include "die.hpp"
#include "fpga/fabric.hpp"
#include "server/drbg.hpp"
#include "server/sha256.hpp"
#include "sim/noise.hpp"
#include "sim/ring_oscillator.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace trng;

namespace {

/// Runs `fn` under span `name` until `budget_ns` has passed (at least
/// once); returns the number of calls.
template <typename Fn>
std::uint64_t repeat_for(Tracer& tr, const char* name, std::uint64_t budget_ns,
                         Fn&& fn) {
  const std::uint32_t id = tr.id(name);
  const std::uint64_t end = now_ns() + budget_ns;
  std::uint64_t n = 0;
  do {
    Span s(&tr, id, n++);
    fn();
  } while (now_ns() < end);
  return n;
}

double total_ns(const Tracer& tr, const std::string& name) {
  for (std::size_t i = 0; i < tr.names().size(); ++i) {
    if (tr.names()[i] == name) return static_cast<double>(tr.totals()[i].total_ns);
  }
  return 0.0;
}

constexpr std::uint64_t kBudgetNs = 100'000'000;  // per standalone layer

}  // namespace

void run_layer_sweep(const Options& opt, Result& res) {
  Tracer tr(now_ns());
  const DieSeeds seeds = die_seeds(opt.seed);

  // common: block Gaussian draws (the simulator's jitter source).
  {
    common::Xoshiro256StarStar rng(seeds.stream);
    std::vector<double> g(4096);
    const auto n = repeat_for(tr, "common.fill_gaussian", kBudgetNs,
                              [&] { rng.fill_gaussian(g.data(), g.size()); });
    res.layers["common.gaussian_ns_per_draw"] = {
        total_ns(tr, "common.fill_gaussian") / static_cast<double>(n * g.size()),
        "ns"};
  }

  // sim: standalone oscillator advance over one t_A window per restart,
  // the pattern a restart-mode capture runs.
  {
    const core::DesignParams p;  // carry-k1's n, m and k
    const fpga::Fabric fabric(fpga::DeviceGeometry{}, seeds.die);
    const auto plan = fpga::TrngFloorplan::canonical(fabric.geometry(), p.n, p.m);
    const fpga::ElaboratedTrng e = fabric.elaborate(plan, p.k);
    const sim::NoiseConfig noise;
    sim::SupplyNoise supply(noise, seeds.stream);
    sim::RingOscillator osc(e.ro_stage_delay, e.stage_white_sigma_ps, noise,
                            &supply, seeds.stream);
    double t = 0.0;
    const std::uint64_t before = osc.transition_count();
    repeat_for(tr, "sim.advance", kBudgetNs, [&] {
      osc.reset(t);
      osc.advance_to(t + constants::kSystemClockPeriodPs + 500.0);
      t += 2 * constants::kSystemClockPeriodPs;
    });
    res.layers["sim.advance_ns_per_transition"] = {
        total_ns(tr, "sim.advance") /
            static_cast<double>(osc.transition_count() - before),
        "ns"};
  }

  // sim, core, service: a few blocks of the die pipeline layer by layer,
  // if the workload did not trace it already.
  if (res.layers.find("sim.capture_ns") == res.layers.end()) {
    constexpr std::uint64_t kSweepBlocks = 4;
    Tracer die_tr(now_ns());
    LayeredDie die(seeds, &die_tr);
    std::vector<std::uint64_t> admitted;
    for (std::uint64_t b = 0; b < kSweepBlocks; ++b) die.step(admitted, b);
    (void)report_die_layers(die, kSweepBlocks, die_tr, res);
    report_spans(merge_totals({&die_tr}), "sweep.", res);
  }
  res.layers["sim.tdc_ns"] = {
      res.layers["sim.capture_ns"].value -
          res.layers["sim.advance_ns_per_transition"].value *
              res.layers["sim.transitions_per_capture"].value,
      "ns"};

  // server: SHA-256, Hash_DRBG generate (4 KiB, the request size) and
  // reseed (16 seed words).
  {
    std::vector<std::uint8_t> buf(1u << 16, 0xA5);
    server::Sha256 h;
    const auto n = repeat_for(tr, "server.sha256", kBudgetNs,
                              [&] { h.update(buf.data(), buf.size()); });
    std::uint8_t digest[server::Sha256::kDigestBytes];
    h.final(digest);
    res.layers["server.sha256_ns_per_byte"] = {
        total_ns(tr, "server.sha256") / static_cast<double>(n * buf.size()),
        "ns/B"};

    std::uint8_t entropy[128];
    std::uint8_t nonce[16] = {};
    for (std::size_t i = 0; i < sizeof(entropy); ++i) {
      entropy[i] = static_cast<std::uint8_t>(seeds.stream >> (i % 8 * 8));
    }
    server::DrbgLimits limits;
    limits.reseed_interval = std::uint64_t{1} << 40;
    server::HashDrbg drbg(limits, entropy, sizeof(entropy), nonce, sizeof(nonce));
    std::vector<std::uint8_t> out(4096);
    const auto g = repeat_for(tr, "server.drbg_generate", kBudgetNs, [&] {
      (void)drbg.generate(out.data(), out.size());
    });
    res.layers["server.drbg_generate_ns_per_byte"] = {
        total_ns(tr, "server.drbg_generate") / static_cast<double>(g * out.size()),
        "ns/B"};
    const auto r = repeat_for(tr, "server.drbg_reseed", kBudgetNs / 4, [&] {
      drbg.reseed(entropy, sizeof(entropy));
    });
    res.layers["server.drbg_reseed_us"] = {
        total_ns(tr, "server.drbg_reseed") * 1e-3 / static_cast<double>(r), "us"};
  }

  // stattests: each word-parallel test once, on a 2^20-bit sequence,
  // unless the battery workload timed them itself.
  if (res.layers.find("stattests.dft_ns_per_bit") == res.layers.end()) {
    common::Xoshiro256StarStar rng(opt.seed ^ 0x57A7ULL);
    common::BitStream bits;
    const std::size_t n = std::size_t{1} << 20;
    bits.reserve(n);
    for (std::size_t w = 0; w < n / 64; ++w) bits.append_bits(rng.next(), 64);
    trace_stat_tests(bits, tr, 0);
    (void)report_stat_tests(tr, n, res);
  }
  report_spans(merge_totals({&tr}), "sweep.", res);
}

}  // namespace perfbench

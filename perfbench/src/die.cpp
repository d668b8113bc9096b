#include "die.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "common/bitstream.hpp"
#include "common/rng.hpp"
#include "core/source_registry.hpp"
#include "model/stochastic_model.hpp"
#include "stats.hpp"
#include "stattests/sp800_90b.hpp"

namespace perfbench {

using namespace trng;

DieSeeds die_seeds(std::uint64_t seed) {
  common::SplitMix64 sm(seed ^ 0xD1E5EEDULL);
  DieSeeds s;
  s.die = kDieSeedBase;
  s.stream = sm.next();
  return s;
}

service::ProducerConfig production_producer_config() {
  service::ProducerConfig cfg;
  cfg.block_bits = common::Bits{4096};
  cfg.h_per_bit = 0.95;
  return cfg;
}

namespace {

core::DesignParams carry_k1_params() {
  core::DesignParams p;  // n = 3, m = 36, k = 1, N_A = 1: t_A = 10 ns
  p.np = kDieNp;
  return p;
}

fpga::ElaboratedTrng elaborate_canonical(const fpga::Fabric& fabric,
                                         const core::DesignParams& p) {
  const auto floorplan =
      fpga::TrngFloorplan::canonical(fabric.geometry(), p.n, p.m);
  return fabric.elaborate(floorplan, p.k);
}

}  // namespace

LayeredDie::LayeredDie(const DieSeeds& seeds, Tracer* tracer)
    : config_(production_producer_config()),
      fabric_(fpga::DeviceGeometry{}, seeds.die),
      params_(carry_k1_params()),
      elaborated_(elaborate_canonical(fabric_, params_)),
      seed_stream_(seeds.stream),
      extractor_(params_.m, params_.k),
      monitor_(config_.h_per_bit, config_.alpha_log2),
      policy_(config_.quarantine),
      ring_(common::Words{kRingWords}),
      raw_(common::bits_to_words(config_.block_bits * kDieNp).count()),
      block_(common::bits_to_words(config_.block_bits).count()),
      popped_(block_.size()),
      tracer_(tracer) {
  if (tracer_ != nullptr) {
    id_block_ = tracer_->id("die.block");
    id_capture_ = tracer_->id("sim.capture");
    id_classify_ = tracer_->id("sim.classify");
    id_extract_ = tracer_->id("core.extract");
    id_fold_ = tracer_->id("core.xor_fold");
    id_health_ = tracer_->id("core.health");
    id_gate_ = tracer_->id("service.quarantine");
    id_push_ = tracer_->id("service.ring_push");
    id_pop_ = tracer_->id("service.ring_pop");
  }
  first_epoch_seed_ = seed_stream_.next();
  new_epoch(first_epoch_seed_);
}

void LayeredDie::new_epoch(std::uint64_t seed) {
  if (sampler_) {
    retired_transitions_ += sampler_->oscillator().transition_count();
    retired_metastable_ += sampler_->metastable_events();
  }
  // The wiring CarryChainTrng's constructor does for one epoch's source.
  sampler_ = std::make_unique<sim::SampleController>(
      elaborated_, fabric_.spec().flip_flop, sim::NoiseConfig{}, seed,
      params_.mode, 1.0e12 / constants::kSystemClockHz);
}

void LayeredDie::step(std::vector<std::uint64_t>& admitted,
                      std::uint64_t block_id) {
  Span block_span(tracer_, id_block_, block_id);
  const std::size_t out_bits = config_.block_bits.count();
  const std::size_t raw_bits = out_bits * kDieNp;
  std::fill(raw_.begin(), raw_.end(), std::uint64_t{0});
  for (std::size_t i = 0; i < raw_bits; ++i) {
    {
      Span s(tracer_, id_capture_, block_id);
      sampler_->next_capture_into(params_.accumulation_cycles, capture_);
    }
    sim::SnapshotClass cls;
    {
      Span s(tracer_, id_classify_, block_id);
      cls = sim::classify_packed(capture_);
    }
    if (cls == sim::SnapshotClass::kDoubleEdge) ++counts_.double_edges;
    if (cls == sim::SnapshotClass::kBubbles) ++counts_.bubbles;
    core::ExtractionResult r;
    {
      Span s(tracer_, id_extract_, block_id);
      r = extractor_.extract_packed(capture_);
    }
    if (!r.edge_found) {
      ++counts_.missed_edges;
      continue;
    }
    raw_[i >> 6] |= static_cast<std::uint64_t>(r.bit) << (i & 63);
  }
  counts_.captures += raw_bits;

  {
    // XorCompressedSource's fold: output bit i is the XOR of raw bits
    // [i * np, (i + 1) * np).
    Span s(tracer_, id_fold_, block_id);
    std::fill(block_.begin(), block_.end(), std::uint64_t{0});
    std::size_t r = 0;
    for (std::size_t i = 0; i < out_bits; ++i) {
      unsigned acc = 0;
      for (unsigned j = 0; j < kDieNp; ++j, ++r) {
        acc ^= static_cast<unsigned>((raw_[r >> 6] >> (r & 63)) & 1ULL);
      }
      block_[i >> 6] |= static_cast<std::uint64_t>(acc) << (i & 63);
    }
  }

  std::uint64_t alarms = 0;
  {
    Span s(tracer_, id_health_, block_id);
    const std::uint64_t before = monitor_.total_alarms();
    monitor_.feed_block(block_.data(), config_.block_bits);
    alarms = monitor_.total_alarms() - before;
  }
  service::BlockDecision decision;
  {
    Span s(tracer_, id_gate_, block_id);
    decision = policy_.on_block(alarms);
  }
  const common::Words nwords{block_.size()};
  switch (decision) {
    case service::BlockDecision::kAdmit: {
      {
        Span s(tracer_, id_push_, block_id);
        std::uint64_t stall = 0;
        if (ring_.push(block_.data(), nwords, &stall) != nwords) {
          throw std::logic_error("LayeredDie: ring refused a block");
        }
      }
      common::Words got{0};
      {
        Span s(tracer_, id_pop_, block_id);
        got = ring_.pop_some(popped_.data(), nwords);
      }
      admitted.insert(admitted.end(), popped_.begin(),
                      popped_.begin() + static_cast<long>(got.count()));
      ++counts_.blocks_admitted;
      break;
    }
    case service::BlockDecision::kDiscard:
      ++counts_.blocks_rejected;
      break;
    case service::BlockDecision::kDiscardAndReseed:
      ++counts_.blocks_rejected;
      ++counts_.reseeds;
      new_epoch(seed_stream_.next());
      monitor_.reset();
      break;
  }
}

LayeredDie::Counts LayeredDie::counts() const {
  Counts c = counts_;
  c.transitions = retired_transitions_ + sampler_->oscillator().transition_count();
  c.metastable = retired_metastable_ + sampler_->metastable_events();
  return c;
}

double report_die_layers(const LayeredDie& die, std::uint64_t blocks,
                         Tracer& tracer, Result& res) {
  const double span_ns = empty_span_ns(tracer);
  res.detail["trace.empty_span_ns"] = {span_ns, "ns"};
  const auto tot = merge_totals({&tracer});
  auto net = [&tot, span_ns](const char* n) {
    const auto it = tot.find(n);
    if (it == tot.end()) return 0.0;
    return static_cast<double>(it->second.total_ns) -
           span_ns * static_cast<double>(it->second.count);
  };
  const LayeredDie::Counts c = die.counts();
  const double captures = static_cast<double>(c.captures);
  const double bits = static_cast<double>(blocks * die.block_bits());
  const double words = static_cast<double>(c.blocks_admitted) *
                       static_cast<double>(die.block_bits() / 64);
  res.layers["sim.capture_ns"] = {net("sim.capture") / captures, "ns"};
  res.layers["sim.classify_ns"] = {net("sim.classify") / captures, "ns"};
  res.layers["core.extract_ns"] = {net("core.extract") / captures, "ns"};
  res.layers["core.xor_fold_ns_per_bit"] = {net("core.xor_fold") / bits,
                                            "ns/bit"};
  res.layers["core.health_ns_per_bit"] = {net("core.health") / bits, "ns/bit"};
  if (words > 0) {
    res.layers["service.ring_push_ns_per_word"] = {
        net("service.ring_push") / words, "ns/word"};
    res.layers["service.ring_pop_ns_per_word"] = {
        net("service.ring_pop") / words, "ns/word"};
  }
  res.layers["service.block_admit_frac"] = {
      static_cast<double>(c.blocks_admitted) / static_cast<double>(blocks),
      "fraction"};
  res.layers["sim.transitions_per_capture"] = {
      static_cast<double>(c.transitions) / captures, "count"};
  res.layers["sim.metastable_per_capture"] = {
      static_cast<double>(c.metastable) / captures, "count"};
  res.layers["core.missed_edge_frac"] = {
      static_cast<double>(c.missed_edges) / captures, "fraction"};
  res.layers["core.double_edge_frac"] = {
      static_cast<double>(c.double_edges) / captures, "fraction"};
  res.layers["core.bubble_frac"] = {
      static_cast<double>(c.bubbles) / captures, "fraction"};
  double layer_ns = 0.0;
  for (const char* n :
       {"sim.capture", "sim.classify", "core.extract", "core.xor_fold",
        "core.health", "service.quarantine", "service.ring_push",
        "service.ring_pop"}) {
    layer_ns += net(n);
  }
  return layer_ns;
}

namespace {

struct ProducerRig {
  service::WordRing ring{common::Words{kRingWords}};
  service::ProducerCounters counters;
  service::Producer producer;

  ProducerRig(const DieSeeds& seeds, const service::ProducerConfig& cfg)
      : producer(
            0,
            [die = seeds.die](std::size_t, std::uint64_t s) {
              return core::make_die_seeded_source(kDieSource, die, s);
            },
            seeds.stream, cfg, ring, counters) {}
};

/// First `n` words of two streams agree (both must hold at least `n`).
bool same_prefix(const std::vector<std::uint64_t>& a,
                 const std::vector<std::uint64_t>& b, std::size_t n) {
  return n > 0 && a.size() >= n && b.size() >= n &&
         std::equal(a.begin(), a.begin() + static_cast<long>(n), b.begin());
}

/// Blocks of the fixed-length prefix the fingerprint and the layered
/// equivalence check cover.
constexpr std::uint64_t kFingerprintBlocks = 4;
/// Output bits compared against the scalar next_bit() oracle.
constexpr std::size_t kOracleBits = 1024;

}  // namespace

Result run_die(const Options& opt) {
  Result res;
  const DieSeeds seeds = die_seeds(opt.seed);
  const service::ProducerConfig cfg = production_producer_config();
  const std::size_t block_words = common::bits_to_words(cfg.block_bits).count();

  // Set-up, i.e. cold start: elaborate the die, build the producer and its
  // epoch-0 source, and run the first block through the gate.
  std::vector<double> setup_s;
  std::unique_ptr<ProducerRig> rig;
  for (int r = 0; r < kSetupRepeats; ++r) {
    rig.reset();
    const std::uint64_t t0 = now_ns();
    rig = std::make_unique<ProducerRig>(seeds, cfg);
    rig->producer.step();
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  // Timed: step the producer from this thread, draining the ring after
  // every block. A traced run follows every producer step with one traced
  // step of the layered reconstruction, so the untraced and traced blocks
  // it compares see the same host conditions.
  std::vector<std::uint64_t> produced;  // admitted words, checked prefix
  std::vector<std::uint64_t> buf(block_words);
  auto drain = [&] {
    for (;;) {
      const common::Words got =
          rig->ring.pop_some(buf.data(), common::Words{buf.size()});
      if (got.is_zero()) return;
      if (produced.size() < kFingerprintBlocks * block_words) {
        produced.insert(produced.end(), buf.begin(),
                        buf.begin() + static_cast<long>(got.count()));
      }
    }
  };
  drain();
  std::unique_ptr<Tracer> tracer;
  std::unique_ptr<LayeredDie> layered;
  std::vector<std::uint64_t> traced_admitted;
  std::uint64_t traced_blocks = 0;
  if (opt.trace) {
    tracer = std::make_unique<Tracer>(now_ns(), 1u << 17);
    layered = std::make_unique<LayeredDie>(seeds, tracer.get());
  }
  const auto& pc = rig->counters;
  const std::uint64_t admitted_at_start = pc.blocks_admitted.load();
  LatencyLog steps;
  const std::uint64_t t0 = now_ns();
  const auto deadline = t0 + static_cast<std::uint64_t>(opt.seconds * 1e9);
  do {
    const std::uint64_t ts = now_ns();
    rig->producer.step();
    steps.ok(static_cast<double>(now_ns() - ts) * 1e-3);
    drain();
    if (layered) layered->step(traced_admitted, traced_blocks++);
  } while (now_ns() < deadline);
  const double step_s =
      steps.mean_us() * static_cast<double>(steps.attempted()) * 1e-6;
  const double gated_bits = static_cast<double>(
      (pc.blocks_admitted.load() - admitted_at_start) * cfg.block_bits.count());
  // Gated bits per step over the median step time: the median keeps a
  // stall of the host out of the figure; the mean is detail.
  const double step_p50_us = steps.median();
  const double gated_bps = gated_bits /
                           static_cast<double>(steps.attempted()) /
                           (step_p50_us * 1e-6);

  report_setup(setup_s, res);
  report_ops(steps, res);
  res.metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  res.metrics["throughput_bits_per_s"] = {gated_bps, "bit/s"};
  res.detail["gated_bits_per_s"] = {gated_bps, "bit/s"};
  res.detail["die.gated_bits_per_s_mean"] = {gated_bits / step_s, "bit/s"};
  res.detail["die.blocks_rejected"] = {
      static_cast<double>(pc.blocks_rejected.load()), "count"};
  res.detail["service.producer_stall_frac"] = {
      static_cast<double>(pc.stall_ns.load()) * 1e-9 / step_s, "fraction"};

  if (layered) {
    const double layer_ns =
        report_die_layers(*layered, traced_blocks, *tracer, res);
    const auto tot = merge_totals({tracer.get()});
    report_spans(tot, "span.", res);
    const LayeredDie::Counts c = layered->counts();

    // Reconciliation in ns per gated bit: the untraced producer steps
    // against the sum of the layer spans of the interleaved traced steps.
    // Tolerance 0.10.
    const double untraced_ns_per_bit = step_s * 1e9 / gated_bits;
    const double traced_bits =
        static_cast<double>(c.blocks_admitted * layered->block_bits());
    const double explained_ns_per_bit = layer_ns / traced_bits;
    const double traced_ns_per_bit =
        static_cast<double>(tot.at("die.block").total_ns) / traced_bits;
    const double unexplained = 1.0 - explained_ns_per_bit / untraced_ns_per_bit;
    res.layers["trace.unexplained_frac"] = {unexplained, "fraction"};
    res.layers["trace.overhead_frac"] = {
        traced_ns_per_bit / untraced_ns_per_bit - 1.0, "fraction"};
    res.detail["die.unexplained_frac"] = {unexplained, "fraction"};
    res.detail["die.untraced_ns_per_gated_bit"] = {untraced_ns_per_bit,
                                                   "ns/bit"};
    res.detail["die.explained_ns_per_gated_bit"] = {explained_ns_per_bit,
                                                    "ns/bit"};
    res.detail["die.unexplained_tolerance"] = {0.10, "fraction"};
    res.detail["die.reconciled"] = {
        unexplained >= -0.10 && unexplained <= 0.10 ? 1.0 : 0.0, "bool"};
    res.detail["trace.spans_dropped"] = {static_cast<double>(tracer->dropped()),
                                         "count"};
    if (!opt.trace_out.empty()) {
      res.check("trace.written",
                write_trace(opt.trace_out, "die", {tracer.get()}));
    }
  }

  // Checks. (1) The layered reconstruction reproduces the producer's
  // admitted stream; (2) its first generated block matches the scalar
  // next_bit() oracle of a fresh registry source; (3) the traced
  // composition produced the same bits as the untraced producer.
  LayeredDie reference(seeds, nullptr);
  std::vector<std::uint64_t> ref_admitted;
  std::vector<std::uint64_t> first_block;
  for (std::uint64_t b = 0; b < kFingerprintBlocks; ++b) {
    reference.step(ref_admitted, b);
    if (b == 0) first_block = reference.generated();
  }
  const std::size_t common_words = std::min(produced.size(), ref_admitted.size());
  res.check("die.layered_matches_producer",
            same_prefix(produced, ref_admitted, common_words));
  {
    auto oracle = core::make_die_seeded_source(kDieSource, seeds.die,
                                               reference.first_epoch_seed());
    bool same = true;
    for (std::size_t i = 0; i < kOracleBits; ++i) {
      const bool expect = ((first_block[i >> 6] >> (i & 63)) & 1ULL) != 0;
      if (oracle->next_bit() != expect) {
        same = false;
        break;
      }
    }
    res.check("die.scalar_oracle_prefix", same);
  }
  if (opt.trace) {
    const std::size_t n = std::min(produced.size(), traced_admitted.size());
    res.check("die.traced_layers_match_producer",
              same_prefix(produced, traced_admitted, n));
  }

  // Deterministic fingerprint of the first kFingerprintBlocks blocks.
  const LayeredDie::Counts c = reference.counts();
  res.fingerprint["blocks"] = std::to_string(kFingerprintBlocks);
  res.fingerprint["captures"] = std::to_string(c.captures);
  res.fingerprint["missed_edges"] = std::to_string(c.missed_edges);
  res.fingerprint["double_edges"] = std::to_string(c.double_edges);
  res.fingerprint["bubbles"] = std::to_string(c.bubbles);
  res.fingerprint["metastable_events"] = std::to_string(c.metastable);
  res.fingerprint["transitions"] = std::to_string(c.transitions);
  res.fingerprint["blocks_admitted"] = std::to_string(c.blocks_admitted);
  res.fingerprint["blocks_rejected"] = std::to_string(c.blocks_rejected);
  res.fingerprint["reseeds"] = std::to_string(c.reseeds);
  res.fingerprint["admitted_sha256"] = sha256_hex(ref_admitted);
  if (!ref_admitted.empty()) {
    common::BitStream bits;
    bits.append_words(ref_admitted.data(), ref_admitted.size() * 64);
    char buf2[64];
    std::snprintf(buf2, sizeof(buf2), "%.6f",
                  stat::sp800_90b::most_common_value_estimate(bits));
    res.fingerprint["mcv_min_entropy"] = buf2;
  }
  const model::StochasticModel model{core::PlatformParams{}};
  const double t_a_ps = constants::kSystemClockPeriodPs;  // N_A = 1
  char mb[64];
  std::snprintf(mb, sizeof(mb), "%.6f",
                model.entropy_after_postprocessing(t_a_ps, 1, kDieNp));
  res.fingerprint["model_h_new_bound"] = mb;
  std::snprintf(mb, sizeof(mb), "%.6f", model.entropy_lower_bound(t_a_ps, 1));
  res.fingerprint["model_h_raw_bound"] = mb;
  return res;
}

}  // namespace perfbench

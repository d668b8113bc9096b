// The `die` workload's pipeline and its layer-by-layer reconstruction.
//
// The workload runs one service::Producer over
// core::make_die_seeded_source("carry-k1", ...) — Table 1's k = 1,
// t_A = 10 ns, XOR np = 7 design point — with the production producer
// configuration. LayeredDie rebuilds the same pipeline from the public
// calls each layer exposes (capture, classify, extract, XOR fold, health
// gate, quarantine, ring) so a traced run can time every layer; the checks
// require it to reproduce the producer's admitted stream bit for bit.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/config.hpp"
#include "core/extractor.hpp"
#include "core/health.hpp"
#include "fpga/fabric.hpp"
#include "service/producer.hpp"
#include "service/quarantine.hpp"
#include "service/ring_buffer.hpp"
#include "sim/sampler.hpp"
#include "trace.hpp"

namespace perfbench {

inline constexpr const char* kDieSource = "carry-k1";
inline constexpr unsigned kDieNp = 7;

/// entropy_serverd's dies: producer i runs on die seed kDieSeedBase + i.
inline constexpr std::uint64_t kDieSeedBase = 1000;

/// The die (fixed, as in entropy_serverd) and the producer stream seed,
/// which the run seed picks: the seed varies the noise, not the silicon.
struct DieSeeds {
  std::uint64_t die = 0;
  std::uint64_t stream = 0;
};
DieSeeds die_seeds(std::uint64_t seed);

/// The configuration entropy_serverd gives each producer: 4096-bit blocks
/// gated at h = 0.95 bits/bit, unpaced.
trng::service::ProducerConfig production_producer_config();

/// Ring capacity of entropy_serverd's pool, in words.
inline constexpr std::size_t kRingWords = 1u << 12;

class LayeredDie {
 public:
  struct Counts {
    std::uint64_t captures = 0;
    std::uint64_t missed_edges = 0;
    std::uint64_t double_edges = 0;
    std::uint64_t bubbles = 0;
    std::uint64_t transitions = 0;
    std::uint64_t metastable = 0;
    std::uint64_t blocks_admitted = 0;
    std::uint64_t blocks_rejected = 0;
    std::uint64_t reseeds = 0;
  };

  /// `tracer` may be null (no spans).
  LayeredDie(const DieSeeds& seeds, Tracer* tracer);

  LayeredDie(const LayeredDie&) = delete;
  LayeredDie& operator=(const LayeredDie&) = delete;

  /// Generates, screens and gates one block, as Producer::step does, and
  /// appends the admitted words (if any) to `admitted`.
  void step(std::vector<std::uint64_t>& admitted, std::uint64_t block_id);

  /// The last block before the health gate.
  const std::vector<std::uint64_t>& generated() const { return block_; }

  Counts counts() const;

  /// Seed of the epoch-0 source (what the producer hands its factory).
  std::uint64_t first_epoch_seed() const { return first_epoch_seed_; }

  std::size_t block_bits() const { return config_.block_bits.count(); }

 private:
  void new_epoch(std::uint64_t seed);

  trng::service::ProducerConfig config_;
  trng::fpga::Fabric fabric_;
  trng::core::DesignParams params_;
  trng::fpga::ElaboratedTrng elaborated_;
  trng::common::SplitMix64 seed_stream_;
  std::uint64_t first_epoch_seed_ = 0;
  std::unique_ptr<trng::sim::SampleController> sampler_;
  trng::core::EntropyExtractor extractor_;
  trng::core::OnlineHealthMonitor monitor_;
  trng::service::QuarantinePolicy policy_;
  trng::service::WordRing ring_;
  trng::sim::PackedCapture capture_;
  std::vector<std::uint64_t> raw_;
  std::vector<std::uint64_t> block_;
  std::vector<std::uint64_t> popped_;
  Counts counts_;
  std::uint64_t retired_transitions_ = 0;
  std::uint64_t retired_metastable_ = 0;

  Tracer* tracer_;
  std::uint32_t id_block_ = 0, id_capture_ = 0, id_classify_ = 0,
                id_extract_ = 0, id_fold_ = 0, id_health_ = 0, id_gate_ = 0,
                id_push_ = 0, id_pop_ = 0;
};

/// Sets the sim, core and service per-layer metrics from `die`'s spans on
/// `tracer` after `blocks` traced blocks, net of each span's own clock
/// cost. Returns the summed net time of the layer spans, in ns.
double report_die_layers(const LayeredDie& die, std::uint64_t blocks,
                         Tracer& tracer, Result& res);

}  // namespace perfbench

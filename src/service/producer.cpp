#include "service/producer.hpp"

#include <stdexcept>
#include <utility>

namespace trng::service {

void ProducerConfig::validate() const {
  if (block_bits.is_zero() || common::bit_offset(block_bits) != 0) {
    throw std::invalid_argument(
        "ProducerConfig: block_bits must be a positive multiple of 64");
  }
  if (!(h_per_bit > 0.0) || h_per_bit > 1.0) {
    throw std::invalid_argument(
        "ProducerConfig: h_per_bit must be in (0, 1]");
  }
  if (!(alpha_log2 > 0.0)) {
    throw std::invalid_argument("ProducerConfig: alpha_log2 must be > 0");
  }
  quarantine.validate();
}

Producer::Producer(std::size_t index, SourceFactory make,
                   std::uint64_t stream_seed, const ProducerConfig& config,
                   WordRing& ring, ProducerCounters& counters)
    : index_(index),
      make_(std::move(make)),
      config_(config),
      ring_(ring),
      counters_(counters),
      seed_stream_(stream_seed),
      monitor_(config.h_per_bit, config.alpha_log2),
      policy_(config.quarantine),
      block_(common::bits_to_words(config.block_bits).count()) {
  config_.validate();
  if (!make_) {
    throw std::invalid_argument("Producer: null source factory");
  }
  if (ring_.capacity() < common::Words{block_.size()}) {
    throw std::invalid_argument(
        "Producer: ring capacity must hold at least one block");
  }
  source_ = make_(index_, next_epoch_seed());
  if (source_ == nullptr) {
    throw std::invalid_argument("Producer: factory returned null source");
  }
}

Producer::~Producer() { stop_and_join(); }

std::uint64_t Producer::next_epoch_seed() { return seed_stream_.next(); }

void Producer::reseed() {
  source_ = make_(index_, next_epoch_seed());
  if (source_ == nullptr) {
    throw std::invalid_argument("Producer: factory returned null source");
  }
  monitor_.reset();
  counters_.reseeds.fetch_add(1, std::memory_order_relaxed);
}

bool Producer::step() {
  const common::Bits nbits = config_.block_bits;
  const common::Words nwords{block_.size()};
  source_->generate_into(block_.data(), nbits);

  const std::uint64_t alarms_before = monitor_.total_alarms();
  monitor_.feed_block(block_.data(), nbits);
  const std::uint64_t block_alarms = monitor_.total_alarms() - alarms_before;
  counters_.health_alarms.fetch_add(block_alarms, std::memory_order_relaxed);

  const AdmitState before = policy_.state();
  const BlockDecision decision = policy_.on_block(block_alarms);
  const AdmitState after = policy_.state();
  counters_.state.store(static_cast<int>(after), std::memory_order_relaxed);
  if (before != AdmitState::kQuarantined &&
      after == AdmitState::kQuarantined) {
    counters_.quarantines.fetch_add(1, std::memory_order_relaxed);
  }
  if (before == AdmitState::kProbation && after == AdmitState::kHealthy) {
    counters_.readmissions.fetch_add(1, std::memory_order_relaxed);
  }

  switch (decision) {
    case BlockDecision::kAdmit: {
      std::uint64_t stall = 0;
      const common::Words pushed = ring_.push(block_.data(), nwords, &stall);
      counters_.stall_ns.fetch_add(stall, std::memory_order_relaxed);
      counters_.words_produced.fetch_add(pushed.count(),
                                         std::memory_order_relaxed);
      counters_.blocks_admitted.fetch_add(1, std::memory_order_relaxed);
      const common::Words occupancy = ring_.size();
      counters_.ring_words.store(occupancy.count(), std::memory_order_relaxed);
      counters_.ring_occupancy_pct.record(occupancy.count() * 100 /
                                          ring_.capacity().count());
      if (pushed < nwords) return false;  // ring closed mid-push
      break;
    }
    case BlockDecision::kDiscard:
      counters_.words_discarded.fetch_add(nwords.count(),
                                          std::memory_order_relaxed);
      counters_.blocks_rejected.fetch_add(1, std::memory_order_relaxed);
      break;
    case BlockDecision::kDiscardAndReseed:
      counters_.words_discarded.fetch_add(nwords.count(),
                                          std::memory_order_relaxed);
      counters_.blocks_rejected.fetch_add(1, std::memory_order_relaxed);
      reseed();
      break;
  }
  return !ring_.closed();
}

void Producer::run() {
  while (!stop_requested_.load(std::memory_order_acquire)) {
    if (!step()) return;
  }
}

void Producer::start() {
  if (thread_.joinable()) return;
  stop_requested_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { run(); });
}

void Producer::stop_and_join() {
  stop_requested_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

}  // namespace trng::service

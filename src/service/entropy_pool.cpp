#include "service/entropy_pool.hpp"

#include <stdexcept>
#include <utility>

#include "service/clock.hpp"

namespace trng::service {

void PoolConfig::validate() const {
  if (producers == 0) {
    throw std::invalid_argument("PoolConfig: producers must be >= 1");
  }
  if (ring_capacity_words < common::bits_to_words(producer.block_bits)) {
    throw std::invalid_argument(
        "PoolConfig: ring_capacity_words must hold at least one block");
  }
  producer.validate();
}

EntropyPool::EntropyPool(SourceFactory make, PoolConfig config)
    : config_(std::move(config)), metrics_(config_.producers) {
  config_.validate();
  rings_.reserve(config_.producers);
  producers_.reserve(config_.producers);
  for (std::size_t i = 0; i < config_.producers; ++i) {
    rings_.push_back(std::make_unique<WordRing>(config_.ring_capacity_words));
    producers_.push_back(std::make_unique<Producer>(
        i, make, config_.stream_seed_base + i, config_.producer, *rings_[i],
        metrics_.producer(i)));
    metrics_.set_label(i, producers_[i]->source_info().name);
  }
}

EntropyPool::~EntropyPool() { stop(); }

void EntropyPool::start() {
  if (started_.exchange(true)) return;
  for (auto& producer : producers_) producer->start();
}

void EntropyPool::stop() {
  if (stopped_.exchange(true)) return;
  // Closing wakes both sides of every ring: pushers return, parked
  // consumers drain what is buffered and then return short.
  for (auto& ring : rings_) ring->close();
  for (auto& producer : producers_) producer->stop_and_join();
}

common::Words EntropyPool::draw_from_shard(std::size_t shard,
                                           std::uint64_t* words,
                                           common::Words nwords,
                                           std::uint64_t timeout_ns) {
  if (shard >= rings_.size()) {
    throw std::out_of_range("EntropyPool: shard index out of range");
  }
  metrics_.draws.fetch_add(1, std::memory_order_relaxed);
  WordRing& ring = *rings_[shard];
  const std::uint64_t start_ns = monotonic_ns();
  // Saturating add: a near-max timeout must not wrap into the past.
  const std::uint64_t deadline = (timeout_ns > ~std::uint64_t{0} - start_ns)
                                     ? ~std::uint64_t{0}
                                     : start_ns + timeout_ns;
  std::uint64_t waited_ns = 0;
  const common::Words delivered =
      ring.pop_until(words, nwords, deadline, &waited_ns);
  ProducerCounters& counters = metrics_.producer(shard);
  counters.words_drawn.fetch_add(delivered.count(), std::memory_order_relaxed);
  counters.ring_words.store(ring.size().count(), std::memory_order_relaxed);
  if (waited_ns > 0) {
    metrics_.draw_wait_ns.fetch_add(waited_ns, std::memory_order_relaxed);
  }
  metrics_.draw_wait_us.record(waited_ns / 1000);
  metrics_.words_drawn.fetch_add(delivered.count(),
                                 std::memory_order_relaxed);
  return delivered;
}

AdmitState EntropyPool::producer_state(std::size_t i) const {
  return static_cast<AdmitState>(
      metrics_.producer(i).state.load(std::memory_order_relaxed));
}

}  // namespace trng::service

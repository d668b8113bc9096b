// EntropyPool: the concurrent serving layer over the BitSource substrate.
//
//   producer 0: die-seeded source ──► health gate ──► ring 0 ──► shard 0
//   producer 1: die-seeded source ──► health gate ──► ring 1 ──► shard 1
//   ...                                                  draw_from_shard(i)
//   producer N: die-seeded source ──► health gate ──► ring N ──► shard N
//
// Each producer owns an independent source (its own simulated die), runs
// the batched generate_into path in blocks, screens every block through
// the embedded online health tests, and only admitted blocks reach its
// ring. A producer whose block trips the health gate is quarantined: its
// output is discarded, its source deterministically reseeded, and it must
// serve a clean probation before being re-admitted — the other shards
// meanwhile keep serving from their own producers. Each shard has one
// consumer path, draw_from_shard, and backpressure is symmetric inside the
// ring: a full ring stalls its producer (WordRing::push), an empty ring
// stalls its consumer up to a deadline (WordRing::pop_until), and both
// stalls are metered.
//
// Determinism guarantee: with a fixed seed, the words drawn from shard i
// are bit-identical to producer i's source generate_into stream for as
// long as no block is rejected (a healthy source under the configured
// gate); with producers == 1 that is the whole pool's output.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "service/metrics.hpp"
#include "service/producer.hpp"
#include "service/ring_buffer.hpp"

namespace trng::service {

struct PoolConfig {
  std::size_t producers = 1;

  /// Per-producer ring capacity; must hold at least one block
  /// (bits_to_words(producer.block_bits)).
  common::Words ring_capacity_words{1 << 12};

  ProducerConfig producer;

  /// Stream seed of producer i is stream_seed_base + i; each seed heads an
  /// independent SplitMix64 reseed-epoch stream (see Producer).
  std::uint64_t stream_seed_base = 1;

  void validate() const;
};

class EntropyPool {
 public:
  /// Constructs all producers (and their epoch-0 sources) synchronously;
  /// no threads run until start(). Throws std::invalid_argument on a bad
  /// config or factory.
  EntropyPool(SourceFactory make, PoolConfig config);

  /// Stops and joins everything.
  ~EntropyPool();

  EntropyPool(const EntropyPool&) = delete;
  EntropyPool& operator=(const EntropyPool&) = delete;

  /// Spawns the producer threads. Idempotent.
  void start();

  /// Closes the rings and joins the producers. Buffered words remain
  /// drawable (draw_from_shard drains them, then returns short).
  /// Idempotent.
  void stop();

  /// Blocking draw confined to producer `shard`'s ring: delivers up to
  /// `nwords` words from that ring only, waiting at most `timeout_ns` for
  /// them to arrive (0 = whatever is buffered now). Returns the number
  /// delivered — short on timeout or once the pool is stopped and the ring
  /// drained. This is how the server tier's per-shard DRBGs reseed: a
  /// quarantined producer starves only its own shard's reseeds instead of
  /// the whole pool. Thread-safe: concurrent callers on one shard share
  /// the ring's lock, and each gets a subsequence of the shard's stream.
  /// Throws std::out_of_range on a bad shard index.
  common::Words draw_from_shard(std::size_t shard, std::uint64_t* words,
                                common::Words nwords,
                                std::uint64_t timeout_ns);

  std::size_t producers() const { return producers_.size(); }

  /// Admission state of producer i (snapshot of the quarantine gauge).
  AdmitState producer_state(std::size_t i) const;

  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }

  /// Direct access for deterministic single-threaded tests (drive
  /// Producer::step() by hand). Must not be mixed with start().
  Producer& producer(std::size_t i) { return *producers_[i]; }
  WordRing& ring(std::size_t i) { return *rings_[i]; }

 private:
  PoolConfig config_;
  Metrics metrics_;
  std::vector<std::unique_ptr<WordRing>> rings_;
  std::vector<std::unique_ptr<Producer>> producers_;

  /// One-way latches. exchange() (seq_cst) makes start/stop idempotent.
  // trng-analyzer: atomic(flag)
  std::atomic<bool> started_{false};
  // trng-analyzer: atomic(flag)
  std::atomic<bool> stopped_{false};
};

}  // namespace trng::service

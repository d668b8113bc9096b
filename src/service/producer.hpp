// One entropy-pool producer: an independent, die-seeded BitSource driven
// through the batched generate_into path, health-screened block by block,
// and admitted into a per-producer ring buffer.
//
// The block pipeline (step()) is deliberately a plain synchronous function
// so tests can drive the full generate -> screen -> quarantine -> admit
// path deterministically without threads; start() merely runs step() in a
// loop on an owned, always-joined thread (trng_lint TL007 confines raw
// std::thread to this layer).
//
// Reseed determinism: producer `i` derives its per-epoch source seeds from
// one SplitMix64 stream seeded with its stream seed, so the k-th reseed of
// producer i always builds the same source, independent of thread timing.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/bit_source.hpp"
#include "core/health.hpp"
#include "service/metrics.hpp"
#include "service/quarantine.hpp"
#include "service/ring_buffer.hpp"

namespace trng::service {

/// Builds producer `index`'s source for seed `seed`. Called once at pool
/// construction and again on every reseed (with a fresh deterministic
/// seed), always from the producer's own thread after start().
using SourceFactory =
    std::function<std::unique_ptr<core::BitSource>(std::size_t index,
                                                   std::uint64_t seed)>;

struct ProducerConfig {
  /// Bits generated and screened per pipeline step; multiple of 64.
  common::Bits block_bits{4096};

  /// Assessed per-bit min-entropy handed to the online health monitor.
  double h_per_bit = 0.95;

  /// Health-test false-positive rate: alpha = 2^-alpha_log2.
  double alpha_log2 = 20.0;

  QuarantineConfig quarantine;

  void validate() const;
};

class Producer {
 public:
  /// `ring` and `counters` must outlive the producer. Constructs the
  /// epoch-0 source immediately (so labels/info are available before any
  /// thread starts). Throws std::invalid_argument on bad config.
  Producer(std::size_t index, SourceFactory make, std::uint64_t stream_seed,
           const ProducerConfig& config, WordRing& ring,
           ProducerCounters& counters);

  ~Producer();

  Producer(const Producer&) = delete;
  Producer& operator=(const Producer&) = delete;

  /// Runs one block through generate -> health screen -> quarantine ->
  /// ring admission. Returns false when the ring is closed (shutdown).
  /// Thread-compatible, not thread-safe: either the owned thread (after
  /// start()) or the test harness calls it, never both.
  bool step();

  /// Spawns the worker thread (loops step() until stopped or closed).
  void start();

  /// Asks the worker to stop after its current block and joins it. Safe to
  /// call without start() and more than once. The ring must be closed (or
  /// drained) by the caller first if the worker may be blocked pushing.
  void stop_and_join();

  /// Identity of the current source (stable across reseeds in everything
  /// but the seed).
  core::SourceInfo source_info() const { return source_->info(); }

  AdmitState state() const { return policy_.state(); }
  const QuarantinePolicy& policy() const { return policy_; }
  std::size_t index() const { return index_; }

 private:
  void run();
  void reseed();
  std::uint64_t next_epoch_seed();

  std::size_t index_;
  SourceFactory make_;
  ProducerConfig config_;
  WordRing& ring_;
  ProducerCounters& counters_;
  common::SplitMix64 seed_stream_;
  std::unique_ptr<core::BitSource> source_;
  core::OnlineHealthMonitor monitor_;
  QuarantinePolicy policy_;
  std::vector<std::uint64_t> block_;

  std::thread thread_;
  /// Set by stop_and_join (release), polled by the worker between blocks
  /// (acquire); start() clears it before spawning.
  // trng-analyzer: atomic(flag)
  std::atomic<bool> stop_requested_{false};
};

}  // namespace trng::service

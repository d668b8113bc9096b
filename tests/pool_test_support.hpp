// Helpers shared by the entropy-pool test suites.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "core/source_registry.hpp"
#include "service/entropy_pool.hpp"

namespace trng::pool_test {

/// Saturating "no deadline": only the stream or a stop() ends the draw.
inline constexpr std::uint64_t kNoDeadline = ~std::uint64_t{0};

/// Spin-polls `pred` with a sleep, bounded by a generous deadline so the
/// threaded tests stay robust on loaded single-core CI machines.
inline bool eventually(const std::function<bool()>& pred) {
  const auto t_end =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (std::chrono::steady_clock::now() < t_end) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

inline service::SourceFactory registry_factory(const std::string& id,
                                               std::uint64_t die_seed_base) {
  return [id, die_seed_base](std::size_t index, std::uint64_t seed) {
    return core::make_die_seeded_source(id, die_seed_base + index, seed);
  };
}

/// A gate that a sane source never trips: assessed entropy so low that the
/// repetition cutoff (1 + ceil(20 / 0.05) = 401) and the proportion cutoff
/// are unreachable for any remotely balanced stream.
inline service::ProducerConfig permissive_producer(std::size_t block_bits) {
  service::ProducerConfig cfg;
  cfg.block_bits = common::Bits{block_bits};
  cfg.h_per_bit = 0.05;
  return cfg;
}

}  // namespace trng::pool_test

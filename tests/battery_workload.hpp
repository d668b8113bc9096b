// The repository benchmark's battery inputs, rebuilt for pinned-value
// tests: the same generator, seed mixing and word order as
// perfbench/src/battery.cpp, so a pin minted here names the exact sequence
// the `battery` workload times.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/bitstream.hpp"
#include "common/rng.hpp"

namespace trng::stat {

/// Sequence `index` (0-3) of the battery workload for `seed`: 2^20 bits.
inline common::BitStream battery_workload_sequence(std::uint64_t seed,
                                                   std::size_t index) {
  constexpr std::size_t kWords = (std::size_t{1} << 20) / 64;
  common::Xoshiro256StarStar rng(seed ^ 0xBA77E2ULL);
  for (std::size_t w = 0; w < index * kWords; ++w) (void)rng.next();
  common::BitStream b;
  b.reserve(kWords * 64);
  for (std::size_t w = 0; w < kWords; ++w) b.append_bits(rng.next(), 64);
  return b;
}

}  // namespace trng::stat

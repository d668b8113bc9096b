// SA007 good fixture: the entropy interfaces return word *counts*. The
// buffer argument carries the taint; the count a call returns does not,
// so logging it is fine — logging the words would not be.
#include <cstdint>
#include <cstdio>

namespace fixture_count {

struct Ring {
  std::size_t pop_until(std::uint64_t* out, std::size_t n,
                        std::uint64_t deadline_ns, std::uint64_t* wait_ns);
  std::size_t try_push(const std::uint64_t* words, std::size_t n);
};

struct Pool {
  std::size_t draw_from_shard(std::size_t shard, std::uint64_t* out,
                              std::size_t nwords, std::uint64_t timeout_ns);
};

void drain(Ring& ring, std::uint64_t deadline_ns) {
  std::uint64_t words[8] = {};
  const std::size_t got = ring.pop_until(words, 8, deadline_ns, nullptr);
  std::printf("popped %zu words\n", got);
}

void refill(Ring& ring, const std::uint64_t* block) {
  const std::size_t pushed = ring.try_push(block, 8);
  std::printf("pushed %zu words\n", pushed);
}

void reseed(Pool& pool, std::size_t shard) {
  std::uint64_t seed_material[8] = {};
  const std::size_t delivered =
      pool.draw_from_shard(shard, seed_material, 8, 0);
  std::printf("shard %zu delivered %zu words\n", shard, delivered);
}

}  // namespace fixture_count

// SA007 bad fixture: WordRing::pop_until, like pop_some, delivers raw ring
// words into its FIRST argument, so the words it waits for must be
// tainted; logging the deadline is fine, logging a word is not.
#include <cstdint>
#include <cstdio>

namespace fixture_ring {

struct Ring {
  std::size_t pop_until(std::uint64_t* out, std::size_t n,
                        std::uint64_t deadline_ns, std::uint64_t* wait_ns);
};

void drain(Ring& ring, std::uint64_t deadline_ns) {
  std::uint64_t words[8] = {};
  ring.pop_until(words, 8, deadline_ns, nullptr);
  std::printf("drained until %llu\n",
              static_cast<unsigned long long>(deadline_ns));
  // SA007: a raw popped word leaks to stdout.
  std::printf("first word %llu\n", static_cast<unsigned long long>(words[0]));
}

}  // namespace fixture_ring

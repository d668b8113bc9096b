// Bounded FIFO ring of packed 64-bit words — one per pool producer.
//
// The ring is the hand-off point between a producer thread (health-gated
// blocks of generator output) and the pool's consumer side. Its whole
// state — the buffer, the head slot, the word count and the close latch —
// lives under one mutex, so any number of threads may push and pop
// concurrently; every pop takes the oldest buffered words. Both
// blocking waits live here, on that mutex and one condvar: push parks
// while the ring is full (backpressure: the producer stalls rather than
// dropping or overwriting entropy not drawn yet), pop_until parks while
// it is empty (a consumer waits, up to a deadline, for its shard's
// producer).
//
// No wakeup can be lost: all state is read and written under mu_, every
// change notifies under it, and every wait is a predicate wait.
//
// Word granularity matches BitSource::generate_into: producers push whole
// admitted blocks (a multiple of 64 bits), consumers draw packed words.
// Every count at this interface is strongly typed (common::Words): a bit
// count cannot reach the ring without an explicit bits_to_words().
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/units.hpp"

namespace trng::service {

class WordRing {
 public:
  /// Capacity in 64-bit words; must be >= 1.
  /// Throws std::invalid_argument otherwise.
  explicit WordRing(common::Words capacity);

  WordRing(const WordRing&) = delete;
  WordRing& operator=(const WordRing&) = delete;

  /// Enqueues `n` words, blocking while the ring is full. Returns the
  /// number of words actually enqueued — less than `n` only when the ring
  /// is closed mid-push (pool shutdown). If `stall_ns` is non-null it is
  /// incremented by the time spent blocked waiting for space.
  common::Words push(const std::uint64_t* words, common::Words n,
                     std::uint64_t* stall_ns);

  /// Non-blocking core of push: enqueues up to `n` words without waiting
  /// for space; returns the number enqueued — short when the ring fills
  /// or is closed. Wakes a consumer parked in pop_until.
  common::Words try_push(const std::uint64_t* words, common::Words n);

  /// Dequeues up to `n` words into `out` without blocking; returns the
  /// number of words delivered (zero when empty). Wakes a blocked pusher.
  common::Words pop_some(std::uint64_t* out, common::Words n);

  /// Blocking counterpart of push: dequeues `n` words into `out`, waiting
  /// while the ring is empty until monotonic_ns() reaches `deadline_ns`.
  /// Returns the number of words delivered — less than `n` only when the
  /// deadline passes or the ring is closed and drained. A deadline already
  /// past delivers whatever is buffered. If `wait_ns` is non-null it is
  /// incremented by the time spent blocked waiting for words.
  common::Words pop_until(std::uint64_t* out, common::Words n,
                          std::uint64_t deadline_ns, std::uint64_t* wait_ns);

  /// Words currently buffered (a snapshot; may be stale on return).
  common::Words size() const;

  common::Words capacity() const { return common::Words{capacity_}; }

  /// Marks the ring closed and wakes both sides. Buffered words remain
  /// drawable (pop_until drains them, then returns short); further pushes
  /// return immediately.
  void close();

  bool closed() const;

 private:
  /// Copy in / out of the circular buffer under mu_, in at most two
  /// contiguous runs; notify the other side when anything moved.
  std::size_t push_locked(const std::uint64_t* words, std::size_t n);
  std::size_t pop_locked(std::uint64_t* out, std::size_t n);

  const std::size_t capacity_;  ///< fixed at construction; needs no lock

  mutable std::mutex mu_;
  std::condition_variable state_cv_;  ///< words moved or ring closed
  // Declared locking contract (SA005): every field below is read and
  // written only under mu_.
  // trng-analyzer: guards(slots_, mu_)
  // trng-analyzer: guards(head_, mu_)
  // trng-analyzer: guards(count_, mu_)
  // trng-analyzer: guards(closed_, mu_)
  std::vector<std::uint64_t> slots_;
  std::size_t head_ = 0;   ///< slot of the oldest buffered word
  std::size_t count_ = 0;  ///< words buffered
  bool closed_ = false;
};

}  // namespace trng::service

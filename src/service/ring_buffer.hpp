// Bounded SPSC FIFO ring of packed 64-bit words — one per pool producer.
//
// The ring is the hand-off point between a producer thread (health-gated
// blocks of generator output) and the pool's consumer side. The index
// protocol is lock-free: free-running 64-bit producer/consumer indices
// published with release stores and read with acquire loads, so a batched
// push and a batched pop proceed concurrently without either waiting for
// the other. Both blocking waits live here, on one mutex and one condvar:
// push parks while the ring is full (backpressure: the producer stalls
// rather than dropping or overwriting entropy not drawn yet), pop_until
// parks while it is empty (a consumer waits, up to a deadline, for its
// shard's producer).
//
// Lost-wakeup argument (one for both directions). Every operation that
// advances an index — try_push after tail_, pop_some after head_ — and
// close() after the latch takes mu_ for an empty critical section and
// then notify_all()s. A waiter evaluates its predicate under mu_, so
// either (a) it is already inside wait() when the other side takes mu_,
// and the notify reaches it, or (b) the other side's lock/unlock comes
// first, and the mutex hand-off orders the index store before the
// waiter's predicate, which then sees the new state and does not sleep.
// An unlocked notify alone would leave a window between the predicate
// check and the sleep where the advance could be missed. One condvar
// serves both sides: the ring is SPSC and the pool holds a shard's
// consumer stripe across pop_until, so at most one pusher and one popper
// ever wait, and each side's notify is for the other.
//
// Memory-order argument (the SA006 `index-producer`/`index-consumer` roles
// force every operation below to spell its order explicitly):
//
//   producer            writes buf_[tail_ % cap .. +take)      (plain)
//                       tail_.store(tail + take, release)      (publish)
//   consumer            tail_.load(acquire)                    (observe)
//                       reads  buf_[head_ % cap .. +take)      (plain)
//                       head_.store(head + take, release)      (recycle)
//   producer            head_.load(acquire)                    (observe)
//
// The release/acquire pair on tail_ orders the producer's word writes
// before the consumer's reads; the pair on head_ orders the consumer's
// reads before the producer overwrites the recycled slots. Indices are
// free-running (never wrap modulo capacity), so occupancy is simply
// tail - head and capacity need not be a power of two. Each index lives on
// its own cache line next to the owning side's *snapshot* of the opposite
// index (head_seen_ / tail_seen_), which is refreshed only when the cached
// view shows no room/data — the common case touches one shared line, not
// two.
//
// Word granularity matches BitSource::generate_into: producers push whole
// admitted blocks (a multiple of 64 bits), consumers draw packed words.
// Every count at this interface is strongly typed (common::Words): a bit
// count cannot reach the ring without an explicit bits_to_words().
#pragma once

#include <atomic>
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
  /// Single producer: at most one thread may push at a time.
  common::Words push(const std::uint64_t* words, common::Words n,
                     std::uint64_t* stall_ns);

  /// Non-blocking core of push: enqueues up to `n` words without waiting
  /// for space; returns the number enqueued — short when the ring fills
  /// or is closed. Wakes a consumer parked in pop_until.
  /// Single producer: at most one thread may push at a time.
  common::Words try_push(const std::uint64_t* words, common::Words n);

  /// Dequeues up to `n` words into `out` without blocking; returns the
  /// number of words delivered (zero when empty). Wakes a blocked pusher.
  /// Single consumer: at most one thread may pop at a time (the pool
  /// serializes poppers per ring with a consumer stripe lock).
  common::Words pop_some(std::uint64_t* out, common::Words n);

  /// Blocking counterpart of push: dequeues `n` words into `out`, waiting
  /// while the ring is empty until monotonic_ns() reaches `deadline_ns`.
  /// Returns the number of words delivered — less than `n` only when the
  /// deadline passes or the ring is closed and drained. A deadline already
  /// past delivers whatever is buffered. If `wait_ns` is non-null it is
  /// incremented by the time spent blocked waiting for words.
  /// Single consumer, as for pop_some.
  common::Words pop_until(std::uint64_t* out, common::Words n,
                          std::uint64_t deadline_ns, std::uint64_t* wait_ns);

  /// Words currently buffered (racy snapshot; never negative).
  common::Words size() const;

  common::Words capacity() const { return common::Words{buf_.size()}; }

  /// Marks the ring closed and wakes both sides. Buffered words remain
  /// drawable (pop_until drains them, then returns short); further pushes
  /// return immediately.
  void close();

  bool closed() const;

 private:
  /// Empty critical section on mu_, then notify_all (see the lost-wakeup
  /// argument above).
  void wake();

  std::vector<std::uint64_t> buf_;

  // ---- producer cache line ----
  // Free-running count of words ever enqueued; slot = tail_ % capacity.
  // Written only by the producer (release), read by the consumer
  // (acquire). head_seen_ is the producer's private snapshot of head_,
  // refreshed from the shared index only when the cached view shows a
  // full ring.
  // trng-analyzer: atomic(index-producer)
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  std::uint64_t head_seen_ = 0;  ///< producer-confined snapshot of head_

  // ---- consumer cache line ----
  // Free-running count of words ever dequeued; slot = head_ % capacity.
  // Written only by the (current) consumer (release), read by the
  // producer (acquire). tail_seen_ is the consumer's snapshot of tail_,
  // refreshed only when the cached view shows an empty ring. Consumer
  // identity may change between pops (the pool's stripe lock hands the
  // role across threads); the lock's ordering carries tail_seen_ across.
  // trng-analyzer: atomic(index-consumer)
  alignas(64) std::atomic<std::uint64_t> head_{0};
  std::uint64_t tail_seen_ = 0;  ///< consumer-confined snapshot of tail_

  // ---- close latch + blocking-wait plumbing (cold path) ----
  // trng-analyzer: atomic(flag)
  alignas(64) std::atomic<bool> closed_{false};
  std::mutex mu_;
  std::condition_variable state_cv_;  ///< index advanced or ring closed
};

}  // namespace trng::service

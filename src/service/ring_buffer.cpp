#include "service/ring_buffer.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "service/clock.hpp"

namespace trng::service {

WordRing::WordRing(common::Words capacity) : buf_(capacity.count()) {
  if (capacity.is_zero()) {
    throw std::invalid_argument("WordRing: capacity must be >= 1 word");
  }
}

common::Words WordRing::try_push(const std::uint64_t* words, common::Words n) {
  const std::size_t cap = buf_.size();
  const std::size_t want = n.count();
  std::uint64_t tail = tail_.load(std::memory_order_acquire);
  std::size_t pushed = 0;
  while (pushed < want) {
    if (closed_.load(std::memory_order_acquire)) break;
    std::size_t free_words = cap - static_cast<std::size_t>(tail - head_seen_);
    if (free_words == 0) {
      // Cached view is full: refresh the snapshot from the shared index
      // (the only cross-cache-line read on this path) and re-check.
      head_seen_ = head_.load(std::memory_order_acquire);
      free_words = cap - static_cast<std::size_t>(tail - head_seen_);
      if (free_words == 0) break;
    }
    const std::size_t take = std::min(free_words, want - pushed);
    // Copy in at most two contiguous runs: up to the physical wrap point,
    // then from slot 0.
    const std::size_t slot = static_cast<std::size_t>(tail % cap);
    const std::size_t first = std::min(take, cap - slot);
    std::memcpy(buf_.data() + slot, words + pushed,
                first * sizeof(std::uint64_t));
    std::memcpy(buf_.data(), words + pushed + first,
                (take - first) * sizeof(std::uint64_t));
    tail += take;
    // Publish: orders the word writes above before any consumer that
    // acquires this index reads them.
    tail_.store(tail, std::memory_order_release);
    pushed += take;
  }
  if (pushed > 0) wake();
  return common::Words{pushed};
}

common::Words WordRing::push(const std::uint64_t* words, common::Words n,
                             std::uint64_t* stall_ns) {
  const std::size_t cap = buf_.size();  // fixed at construction
  const std::size_t want = n.count();
  std::size_t pushed = try_push(words, n).count();
  while (pushed < want && !closed_.load(std::memory_order_acquire)) {
    const std::uint64_t t0 = monotonic_ns();
    {
      std::unique_lock<std::mutex> lk(mu_);
      // Predicate overload: every wakeup re-checks the state this wait is
      // about — free space (head_ + capacity > tail_) or the close latch —
      // so a pusher can neither sleep through a close() nor hold a stale
      // full-ring view (lost-wakeup argument in the header).
      state_cv_.wait(lk, [&] {
        return closed_.load(std::memory_order_acquire) ||
               head_.load(std::memory_order_acquire) + cap >
                   tail_.load(std::memory_order_acquire);
      });
    }
    if (stall_ns != nullptr) *stall_ns += monotonic_ns() - t0;
    pushed += try_push(words + pushed, common::Words{want - pushed}).count();
  }
  return common::Words{pushed};
}

common::Words WordRing::pop_some(std::uint64_t* out, common::Words n) {
  const std::size_t cap = buf_.size();
  const std::size_t want = n.count();
  std::uint64_t head = head_.load(std::memory_order_acquire);
  std::size_t popped = 0;
  while (popped < want) {
    std::size_t avail = static_cast<std::size_t>(tail_seen_ - head);
    if (avail == 0) {
      // Cached view is empty: refresh the snapshot from the shared index
      // (the only cross-cache-line read on this path) and re-check.
      tail_seen_ = tail_.load(std::memory_order_acquire);
      avail = static_cast<std::size_t>(tail_seen_ - head);
      if (avail == 0) break;
    }
    const std::size_t take = std::min(avail, want - popped);
    const std::size_t slot = static_cast<std::size_t>(head % cap);
    const std::size_t first = std::min(take, cap - slot);
    std::memcpy(out + popped, buf_.data() + slot,
                first * sizeof(std::uint64_t));
    std::memcpy(out + popped + first, buf_.data(),
                (take - first) * sizeof(std::uint64_t));
    head += take;
    // Recycle: orders the word reads above before the producer (which
    // acquires this index) overwrites the freed slots.
    head_.store(head, std::memory_order_release);
    popped += take;
  }
  if (popped > 0) wake();
  return common::Words{popped};
}

common::Words WordRing::pop_until(std::uint64_t* out, common::Words n,
                                  std::uint64_t deadline_ns,
                                  std::uint64_t* wait_ns) {
  // One wait slice is capped so a saturated deadline cannot overflow the
  // signed duration handed to wait_for; the loop re-arms until the
  // deadline itself passes.
  constexpr std::uint64_t kMaxSliceNs = std::uint64_t{1} << 62;
  const std::size_t want = n.count();
  std::size_t popped = pop_some(out, n).count();
  while (popped < want) {
    const std::uint64_t t0 = monotonic_ns();
    if (t0 >= deadline_ns) break;
    {
      std::unique_lock<std::mutex> lk(mu_);
      // Predicate overload: every wakeup re-checks the state this wait is
      // about — buffered words or the close latch — so a consumer can
      // neither sleep through a close() nor hold a stale empty-ring view
      // (lost-wakeup argument in the header).
      state_cv_.wait_for(
          lk,
          std::chrono::nanoseconds(std::min(deadline_ns - t0, kMaxSliceNs)),
          [&] {
            return closed_.load(std::memory_order_acquire) ||
                   !size().is_zero();
          });
    }
    if (wait_ns != nullptr) *wait_ns += monotonic_ns() - t0;
    const common::Words got =
        pop_some(out + popped, common::Words{want - popped});
    popped += got.count();
    // Closed and drained: nothing more can arrive.
    if (got.is_zero() && closed_.load(std::memory_order_acquire)) break;
  }
  return common::Words{popped};
}

common::Words WordRing::size() const {
  // Head first: tail_ read second can only be newer, so the difference is
  // a valid (possibly slightly stale) occupancy and never underflows.
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t tail = tail_.load(std::memory_order_acquire);
  return common::Words{tail >= head ? static_cast<std::size_t>(tail - head)
                                    : 0};
}

void WordRing::close() {
  closed_.store(true, std::memory_order_release);
  wake();
}

void WordRing::wake() {
  { std::lock_guard<std::mutex> lk(mu_); }
  state_cv_.notify_all();
}

bool WordRing::closed() const {
  return closed_.load(std::memory_order_acquire);
}

}  // namespace trng::service

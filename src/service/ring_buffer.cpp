#include "service/ring_buffer.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "service/clock.hpp"

namespace trng::service {

WordRing::WordRing(common::Words capacity)
    : capacity_(capacity.count()), slots_(capacity.count()) {
  if (capacity.is_zero()) {
    throw std::invalid_argument("WordRing: capacity must be >= 1 word");
  }
}

std::size_t WordRing::push_locked(const std::uint64_t* words,
                                  std::size_t n) {
  if (closed_) return 0;
  const std::size_t take = std::min(n, capacity_ - count_);
  if (take == 0) return 0;
  // Copy in at most two contiguous runs: up to the physical wrap point,
  // then from slot 0.
  const std::size_t slot = (head_ + count_) % capacity_;
  const std::size_t first = std::min(take, capacity_ - slot);
  std::memcpy(slots_.data() + slot, words, first * sizeof(std::uint64_t));
  std::memcpy(slots_.data(), words + first,
              (take - first) * sizeof(std::uint64_t));
  count_ += take;
  state_cv_.notify_all();
  return take;
}

std::size_t WordRing::pop_locked(std::uint64_t* out, std::size_t n) {
  const std::size_t take = std::min(n, count_);
  if (take == 0) return 0;
  const std::size_t first = std::min(take, capacity_ - head_);
  std::memcpy(out, slots_.data() + head_, first * sizeof(std::uint64_t));
  std::memcpy(out + first, slots_.data(),
              (take - first) * sizeof(std::uint64_t));
  head_ = (head_ + take) % capacity_;
  count_ -= take;
  state_cv_.notify_all();
  return take;
}

common::Words WordRing::try_push(const std::uint64_t* words, common::Words n) {
  std::lock_guard<std::mutex> lk(mu_);
  return common::Words{push_locked(words, n.count())};
}

common::Words WordRing::push(const std::uint64_t* words, common::Words n,
                             std::uint64_t* stall_ns) {
  const std::size_t want = n.count();
  std::unique_lock<std::mutex> lk(mu_);
  std::size_t pushed = push_locked(words, want);
  while (pushed < want && !closed_) {
    const std::uint64_t t0 = monotonic_ns();
    state_cv_.wait(lk, [&] { return closed_ || count_ < capacity_; });
    if (stall_ns != nullptr) *stall_ns += monotonic_ns() - t0;
    pushed += push_locked(words + pushed, want - pushed);
  }
  return common::Words{pushed};
}

common::Words WordRing::pop_some(std::uint64_t* out, common::Words n) {
  std::lock_guard<std::mutex> lk(mu_);
  return common::Words{pop_locked(out, n.count())};
}

common::Words WordRing::pop_until(std::uint64_t* out, common::Words n,
                                  std::uint64_t deadline_ns,
                                  std::uint64_t* wait_ns) {
  // One wait slice is capped so a saturated deadline cannot overflow the
  // signed duration handed to wait_for; the loop re-arms until the
  // deadline itself passes.
  constexpr std::uint64_t kMaxSliceNs = std::uint64_t{1} << 62;
  const std::size_t want = n.count();
  std::unique_lock<std::mutex> lk(mu_);
  std::size_t popped = pop_locked(out, want);
  // Each pop drains all it can, so a short pop of a closed ring means it
  // is closed and drained: nothing more can arrive.
  while (popped < want && !closed_) {
    const std::uint64_t t0 = monotonic_ns();
    if (t0 >= deadline_ns) break;
    state_cv_.wait_for(
        lk, std::chrono::nanoseconds(std::min(deadline_ns - t0, kMaxSliceNs)),
        [&] { return closed_ || count_ > 0; });
    if (wait_ns != nullptr) *wait_ns += monotonic_ns() - t0;
    popped += pop_locked(out + popped, want - popped);
  }
  return common::Words{popped};
}

common::Words WordRing::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return common::Words{count_};
}

void WordRing::close() {
  std::lock_guard<std::mutex> lk(mu_);
  closed_ = true;
  state_cv_.notify_all();
}

bool WordRing::closed() const {
  std::lock_guard<std::mutex> lk(mu_);
  return closed_;
}

}  // namespace trng::service

// In-memory span recorder for the traced benchmark run.
//
// One Tracer per thread (no locking on the recording path). A span has a
// name, start and end (steady clock, ns since a shared epoch), the index of
// the span that encloses it on the same thread, and a request id shared by
// every span of one request or block. Spans nest strictly on a thread, so a
// span's self time (duration minus what its direct children cover) is
// derived as each span closes. Per-name totals cover every span; the span
// log itself is capped so a long run stays small in memory, and is written
// out once when the run ends.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;

  double mean_ns() const {
    return count == 0 ? 0.0
                      : static_cast<double>(total_ns) /
                            static_cast<double>(count);
  }
  double mean_self_ns() const {
    return count == 0 ? 0.0
                      : static_cast<double>(self_ns) /
                            static_cast<double>(count);
  }
};

class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

  /// `epoch_ns` is shared by all tracers of a run so their spans line up;
  /// at most `log_capacity` spans are kept for the written log.
  explicit Tracer(std::uint64_t epoch_ns, std::size_t log_capacity = 1u << 16);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Stable id of a span name; look it up once outside hot loops.
  std::uint32_t id(const std::string& name);

  void begin(std::uint32_t name, std::uint64_t request);
  void end();

  const std::vector<std::string>& names() const { return names_; }
  const std::vector<SpanTotals>& totals() const { return totals_; }
  std::uint64_t dropped() const { return dropped_; }

  /// Writes the span log as CSV rows tagged with `thread`.
  void write(std::FILE* f, int thread) const;

 private:
  struct Record {
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::uint64_t request;
    std::uint32_t name;
    std::uint32_t parent;
  };
  struct Frame {
    std::uint64_t start_ns;
    std::uint64_t child_ns;
    std::uint32_t name;
    std::uint32_t record;  ///< log index, or kNoParent when not logged
  };

  std::uint64_t epoch_ns_;
  std::size_t log_capacity_;
  std::vector<std::string> names_;
  std::vector<SpanTotals> totals_;
  std::vector<Record> log_;
  std::vector<Frame> stack_;
  std::uint64_t dropped_ = 0;
};

/// RAII span; a null tracer records nothing.
class Span {
 public:
  Span(Tracer* tracer, std::uint32_t name, std::uint64_t request = 0)
      : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->begin(name, request);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

/// Mean measured duration of an empty span on `tracer`: the clock and
/// bookkeeping cost every recorded span carries inside its own duration.
/// Subtracting it per span keeps layer sums comparable to untraced time.
double empty_span_ns(Tracer& tracer);

/// Per-name totals summed over several tracers.
std::map<std::string, SpanTotals> merge_totals(
    const std::vector<const Tracer*>& tracers);

/// Adds each span name's count, mean duration and mean self time to the
/// result's detail figures, named `<prefix><span name>.<figure>`.
void report_spans(const std::map<std::string, SpanTotals>& totals,
                  const std::string& prefix, Result& result);

/// Writes every tracer's span log to `path` as CSV. Returns false when the
/// file cannot be written.
bool write_trace(const std::string& path, const std::string& workload,
                 const std::vector<const Tracer*>& tracers);

}  // namespace perfbench

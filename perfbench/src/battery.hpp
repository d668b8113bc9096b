// Per-test timing of the SP 800-22 battery, shared by the battery
// workload's traced run and the layer sweep of every other traced run.
#pragma once

#include <cstdint>
#include <string>

#include "bench.hpp"
#include "common/bitstream.hpp"
#include "trace.hpp"

namespace perfbench {

/// Runs each of the fifteen word-parallel tests once on `bits`, each under
/// the span "stattests.<test>".
void trace_stat_tests(const trng::common::BitStream& bits, Tracer& tracer,
                      std::uint64_t request);

/// Sets stattests.<test>_ns_per_bit from the spans of `tracer` (mean per
/// call over `bits` bits); returns the slowest test's and the summed mean
/// time per call, in ns.
std::pair<double, double> report_stat_tests(const Tracer& tracer,
                                            std::size_t bits, Result& res);

}  // namespace perfbench

// Shared declarations of the repository benchmark: run options, the result
// record every workload fills, and the workload entry points.
//
// A run measures one workload. With tracing off it reports the end-to-end
// metrics (`metrics`); with tracing on it reports the per-layer metrics
// (`layers`) from spans the benchmark records around its own calls into
// each module's public functions. Either way it runs the workload's output
// checks and reports a deterministic fingerprint of what it simulated.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< span log path (traced runs); empty = none
};

struct Value {
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::map<std::string, Value> metrics;  ///< end-to-end (tracing off)
  std::map<std::string, Value> layers;   ///< per-layer (traced run)
  std::map<std::string, Value> detail;   ///< sample counts, named aliases
  std::map<std::string, std::string> fingerprint;
  std::vector<std::pair<std::string, bool>> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(const std::string& name, bool passed) {
    checks.emplace_back(name, passed);
  }
  bool correct() const {
    for (const auto& c : checks) {
      if (!c.second) return false;
    }
    return !checks.empty();
  }
};

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupRepeats = 5;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

class LatencyLog;

/// setup_s (median of the set-up runs) and its spread within the run.
void report_setup(const std::vector<double>& setup_s, Result& res);

/// op_p50_us, the supported tail percentiles and quartiles, the sample
/// count and failures of one run's operations.
void report_ops(const LatencyLog& log, Result& res);

/// Hex SHA-256 (the in-repo server::Sha256) of bytes, or of words
/// serialised little-endian.
std::string sha256_hex(const std::uint8_t* data, std::size_t n);
std::string sha256_hex(const std::vector<std::uint64_t>& words);

Result run_die(const Options& opt);
/// `reseed_heavy` selects serve_reseed (reseed_interval 16, four clients)
/// over serve_steady (default DRBG limits, two clients).
Result run_serve(const Options& opt, bool reseed_heavy);
Result run_battery(const Options& opt);

/// Fills every per-layer metric the workload's own traced phase did not
/// measure, from short standalone calls into each module (traced runs).
void run_layer_sweep(const Options& opt, Result& result);

/// Self-tests of the benchmark's own helpers; returns the failure count.
int run_selftest();

}  // namespace perfbench

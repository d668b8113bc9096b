// Helpers shared by the workloads: memory high-water mark, digests, and
// the set-up and per-operation figures every workload reports.
#include <cstdio>
#include <fstream>
#include <string>

#include "bench.hpp"
#include "server/sha256.hpp"
#include "stats.hpp"

namespace perfbench {

double peak_rss_mb() {
  // VmHWM is this process image's own high-water mark (getrusage's
  // ru_maxrss would carry over the launching process's across exec).
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::string sha256_hex(const std::uint8_t* data, std::size_t n) {
  const auto d = trng::server::Sha256::digest(data, n);
  std::string s;
  char b[3];
  for (std::uint8_t c : d) {
    std::snprintf(b, sizeof(b), "%02x", c);
    s += b;
  }
  return s;
}

std::string sha256_hex(const std::vector<std::uint64_t>& words) {
  std::vector<std::uint8_t> bytes(words.size() * 8);
  for (std::size_t w = 0; w < words.size(); ++w) {
    for (std::size_t b = 0; b < 8; ++b) {
      bytes[w * 8 + b] = static_cast<std::uint8_t>(words[w] >> (8 * b));
    }
  }
  return sha256_hex(bytes.data(), bytes.size());
}

void report_setup(const std::vector<double>& setup_s, Result& res) {
  const Quartiles q = quartiles(setup_s);
  res.metrics["setup_s"] = {q.q2, "s"};
  res.detail["setup_s_iqr_frac"] = {(q.q3 - q.q1) / q.q2, "fraction"};
  res.detail["setup_runs"] = {static_cast<double>(setup_s.size()), "count"};
}

void report_ops(const LatencyLog& log, Result& res) {
  res.metrics["op_p50_us"] = {log.median(), "us"};
  res.detail["op_samples"] = {static_cast<double>(log.attempted()), "count"};
  res.detail["op_failed_frac"] = {log.failed_frac(), "fraction"};
  const std::pair<double, const char*> tails[] = {
      {0.25, "op_q1_us"}, {0.75, "op_q3_us"}, {0.9, "op_p90_us"},
      {0.99, "op_p99_us"}};
  for (const auto& [q, name] : tails) {
    if (const auto v = log.percentile(q)) res.detail[name] = {*v, "us"};
  }
  res.attempted = log.attempted();
  res.failed = log.failures();
}

}  // namespace perfbench

// perfbench: runs one workload of the repository benchmark and prints its
// result as one JSON object on the last line of standard output.
//
//   perfbench --workload <die|serve_steady|serve_reseed|battery>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <csv>]
//   perfbench --selftest
//
// perfbench/run.py builds this program and is the command to use; it
// prints every metric by name and unit and checks the result.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"

namespace perfbench {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_values(const std::map<std::string, Value>& m) {
  std::string out = "{";
  for (const auto& [name, v] : m) {
    if (out.size() > 1) out += ", ";
    out += json_string(name) + ": {\"value\": " + json_number(v.value) +
           ", \"unit\": " + json_string(v.unit) + "}";
  }
  return out + "}";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

bool sanitized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) || __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <die|serve_steady|serve_reseed|"
               "battery> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <csv>]\n       perfbench --selftest\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--selftest") {
      selftest = true;
    } else if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (a == "--trace-out" && has_value) {
      opt.trace_out = argv[++i];
    } else {
      return usage();
    }
  }
  if (selftest) {
    const int failures = run_selftest();
    std::printf("perfbench selftest: %d failure(s)\n", failures);
    return failures == 0 ? 0 : 1;
  }
  if (!(opt.seconds > 0.0)) return usage();

  // Timings from a debug or sanitizer build say nothing about the library.
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release" || sanitized_build()) {
    std::fprintf(stderr,
                 "perfbench: refusing to record from a %s%s build; "
                 "configure with CMAKE_BUILD_TYPE=Release\n",
                 build_type.c_str(), sanitized_build() ? " sanitizer" : "");
    return 3;
  }

  Result res;
  try {
    if (opt.workload == "die") {
      res = run_die(opt);
    } else if (opt.workload == "serve_steady") {
      res = run_serve(opt, false);
    } else if (opt.workload == "serve_reseed") {
      res = run_serve(opt, true);
    } else if (opt.workload == "battery") {
      res = run_battery(opt);
    } else {
      return usage();
    }
    if (opt.trace) run_layer_sweep(opt, res);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  std::string checks = "{";
  for (const auto& [name, ok] : res.checks) {
    if (checks.size() > 1) checks += ", ";
    checks += json_string(name) + ": " + (ok ? "true" : "false");
  }
  checks += "}";
  std::string fp = "{";
  for (const auto& [k, v] : res.fingerprint) {
    if (fp.size() > 1) fp += ", ";
    fp += json_string(k) + ": " + json_string(v);
  }
  fp += "}";
  const std::string host =
      "{\"cpu_model\": " + json_string(cpu_model()) +
      ", \"hardware_threads\": " +
      std::to_string(std::thread::hardware_concurrency()) +
      ", \"compiler\": " + json_string(PERFBENCH_CXX_COMPILER) +
      ", \"cxx_flags\": " + json_string(PERFBENCH_CXX_FLAGS) +
      ", \"build_type\": " + json_string(build_type) + "}";
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
      "\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s, \"layers\": %s, \"detail\": %s, \"fingerprint\": %s, "
      "\"checks\": %s, \"host\": %s}\n",
      json_string(opt.workload).c_str(),
      static_cast<unsigned long long>(opt.seed),
      json_number(opt.seconds).c_str(), opt.trace ? 1 : 0,
      res.correct() ? "true" : "false",
      static_cast<unsigned long long>(res.attempted),
      static_cast<unsigned long long>(res.failed),
      json_values(res.metrics).c_str(), json_values(res.layers).c_str(),
      json_values(res.detail).c_str(), fp.c_str(), checks.c_str(),
      host.c_str());
  return 0;
}

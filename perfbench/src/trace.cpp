#include "trace.hpp"

#include <stdexcept>

namespace perfbench {

Tracer::Tracer(std::uint64_t epoch_ns, std::size_t log_capacity)
    : epoch_ns_(epoch_ns), log_capacity_(log_capacity) {
  log_.reserve(log_capacity_);
  stack_.reserve(16);
}

std::uint32_t Tracer::id(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.push_back(name);
  totals_.emplace_back();
  return static_cast<std::uint32_t>(names_.size() - 1);
}

void Tracer::begin(std::uint32_t name, std::uint64_t request) {
  Frame f{now_ns(), 0, name, kNoParent};
  if (log_.size() < log_capacity_) {
    const std::uint32_t parent =
        stack_.empty() ? kNoParent : stack_.back().record;
    f.record = static_cast<std::uint32_t>(log_.size());
    log_.push_back({f.start_ns - epoch_ns_, 0, request, name, parent});
  } else {
    ++dropped_;
  }
  stack_.push_back(f);
}

void Tracer::end() {
  if (stack_.empty()) throw std::logic_error("Tracer::end without begin");
  const std::uint64_t t = now_ns();
  const Frame f = stack_.back();
  stack_.pop_back();
  const std::uint64_t dur = t - f.start_ns;
  SpanTotals& tot = totals_[f.name];
  ++tot.count;
  tot.total_ns += dur;
  tot.self_ns += dur > f.child_ns ? dur - f.child_ns : 0;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (f.record != kNoParent) log_[f.record].end_ns = t - epoch_ns_;
}

void Tracer::write(std::FILE* f, int thread) const {
  for (std::size_t i = 0; i < log_.size(); ++i) {
    const Record& r = log_[i];
    std::fprintf(f, "%d,%zu,%s,%llu,%llu,%lld,%llu\n", thread, i,
                 names_[r.name].c_str(),
                 static_cast<unsigned long long>(r.start_ns),
                 static_cast<unsigned long long>(r.end_ns),
                 r.parent == kNoParent ? -1LL : static_cast<long long>(r.parent),
                 static_cast<unsigned long long>(r.request));
  }
}

double empty_span_ns(Tracer& tracer) {
  const std::uint32_t id = tracer.id("trace.empty");
  const SpanTotals before = tracer.totals()[id];
  constexpr int kSpans = 20000;
  for (int i = 0; i < kSpans; ++i) {
    tracer.begin(id, 0);
    tracer.end();
  }
  const SpanTotals& after = tracer.totals()[id];
  return static_cast<double>(after.total_ns - before.total_ns) / kSpans;
}

std::map<std::string, SpanTotals> merge_totals(
    const std::vector<const Tracer*>& tracers) {
  std::map<std::string, SpanTotals> out;
  for (const Tracer* t : tracers) {
    for (std::size_t i = 0; i < t->names().size(); ++i) {
      SpanTotals& dst = out[t->names()[i]];
      const SpanTotals& src = t->totals()[i];
      dst.count += src.count;
      dst.total_ns += src.total_ns;
      dst.self_ns += src.self_ns;
    }
  }
  return out;
}

void report_spans(const std::map<std::string, SpanTotals>& totals,
                  const std::string& prefix, Result& result) {
  for (const auto& [name, t] : totals) {
    const std::string base = prefix + name;
    result.detail[base + ".count"] = {static_cast<double>(t.count), "count"};
    result.detail[base + ".mean_ns"] = {t.mean_ns(), "ns"};
    result.detail[base + ".self_ns"] = {t.mean_self_ns(), "ns"};
  }
}

bool write_trace(const std::string& path, const std::string& workload,
                 const std::vector<const Tracer*>& tracers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# workload=%s\n", workload.c_str());
  std::fprintf(f, "thread,index,name,start_ns,end_ns,parent,request\n");
  for (std::size_t i = 0; i < tracers.size(); ++i) {
    tracers[i]->write(f, static_cast<int>(i));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

#include <algorithm>

#include "common.hpp"

namespace pathbench {
namespace {

/// Open spans of the calling thread, innermost last (indices into spans_).
thread_local std::vector<int> open_spans;

}  // namespace

double pct(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (rank - static_cast<double>(lo));
}

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

void Tracer::clear() {
  std::lock_guard lock(mu_);
  spans_.clear();
}

Tracer::Scope::Scope(const char* name) {
  Tracer& t = global();
  if (!t.enabled_) return;
  const int parent = open_spans.empty() ? -1 : open_spans.back();
  {
    std::lock_guard lock(t.mu_);
    index_ = static_cast<int>(t.spans_.size());
    t.spans_.push_back({name, Clock::now(), {}, parent});
  }
  open_spans.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  Tracer& t = global();
  const auto end = Clock::now();
  {
    std::lock_guard lock(t.mu_);
    t.spans_[static_cast<std::size_t>(index_)].end = end;
  }
  open_spans.pop_back();
}

std::map<std::string, Tracer::Summary> Tracer::summarize() const {
  std::lock_guard lock(mu_);
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const auto& s : spans_) {
    if (s.parent >= 0) {
      child_ms[static_cast<std::size_t>(s.parent)] += ms_between(s.start, s.end);
    }
  }
  std::map<std::string, std::vector<double>> total, self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double d = ms_between(spans_[i].start, spans_[i].end);
    total[spans_[i].name].push_back(d);
    self[spans_[i].name].push_back(d - child_ms[i]);
  }
  std::map<std::string, Summary> out;
  for (auto& [name, durations] : total) {
    Summary s;
    s.count = durations.size();
    s.total_p50_ms = p50(durations);
    s.self_p50_ms = p50(self[name]);
    for (double x : self[name]) s.self_sum_ms += x;
    out[name] = s;
  }
  return out;
}

}  // namespace pathbench

#include "workloads.hpp"

namespace pathbench {

std::vector<Phase> phases_of(const Options& options) {
  if (!options.trace) return {{false, options.seconds}};
  return {{false, options.seconds / 2}, {true, options.seconds / 2}};
}

void enter_phase(const Phase& phase) {
  Tracer::global().clear();
  Tracer::global().set_enabled(phase.traced);
}

void report_overhead(double untraced_p50, double traced_p50, Result& result) {
  result.set("trace.overhead_pct",
             untraced_p50 > 0 ? 100.0 * (traced_p50 / untraced_p50 - 1.0) : 0.0,
             "%");
}

std::uint64_t digest_bits(const std::string& hex) {
  return hex.size() >= 15 ? std::stoull(hex.substr(0, 15), nullptr, 16) : 0;
}

}  // namespace pathbench

// Resume checkpoint: the state a census series needs to continue after a
// process kill.
//
// Written (atomically, alongside the manifest) after every archived day:
// the simulated clock, the tracer's span-id cursor, the pipeline's
// cross-day state (persistent AT list, partial flags, measurement-id and
// GCD-run counters, canary baseline) and the incremental counters of the
// LongitudinalStore. scenario::CensusSeries captures and restores all of
// it (for `laces census --archive DIR --resume`, the fuzzer and the tests)
// and re-runs from the next day; with the same world seed the continued
// series is byte-identical to one that never died (tested against golden
// digests, including under injected faults).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "census/longitudinal.hpp"
#include "census/pipeline.hpp"
#include "store/format.hpp"

namespace laces::store {

struct Checkpoint {
  /// Last archived day (resume continues at last_day + 1).
  std::uint32_t last_day = 0;
  /// Simulated clock (ns) after the last archived day drained.
  std::int64_t sim_time_ns = 0;
  /// obs::Tracer id cursor, so resumed spans keep their uninterrupted ids.
  std::uint64_t next_span_id = 1;
  census::PipelineState pipeline;
  census::LongitudinalSnapshot longitudinal;
  /// Per-worker probe-salt RNG states (session worker order). The salt
  /// sequence feeds ECMP flow hashing, so catchments — and therefore the
  /// census — only reproduce if the resumed workers continue it.
  std::vector<std::array<std::uint64_t, 4>> worker_rng;
  /// Canonical run-identity string (world scale, seeds, fault and scenario
  /// specs) of `laces census`, stamped by scenario::CensusSeries. A resume
  /// is refused when the resuming run's identity differs — a different
  /// world or fault plan would silently diverge from the archived prefix.
  /// Empty when the series was opened without one; then the guard is
  /// skipped.
  std::string run_config;

  bool operator==(const Checkpoint&) const = default;
};

/// Deterministic binary encoding with a SHA-256 footer.
std::vector<std::uint8_t> encode_checkpoint(const Checkpoint& checkpoint);
/// Decodes and verifies; throws ArchiveError on corruption or version skew.
Checkpoint decode_checkpoint(std::span<const std::uint8_t> bytes);

}  // namespace laces::store

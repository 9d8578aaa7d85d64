// Seeded scenario fuzzer: unbounded scenario diversity, machine-checked.
//
// Each seed generates a random valid Scenario, runs a multi-day census
// under it inside a wall-clock watchdog, and asserts the census
// invariants the rest of the system promises:
//   * termination — the run finishes before the watchdog (no hang or
//     livelock; a watchdog fire prints the seed + spec and exits 124);
//   * exact degraded-day accounting — healthy + degraded day counts add
//     up, degraded days never leak into longitudinal denominators
//     (LongitudinalStore::check_invariants after every day), and a day
//     only degrades when the scenario licenses it (may_degrade);
//   * resume byte-identity — periodically, a seed's series is re-run with
//     a mid-series kill + --resume and the two archives are compared byte
//     for byte (manifest, checkpoint, every segment);
//   * scenario-off identity — an empty scenario run must digest-match the
//     plain baseline run (checked once per sweep).
//
// Any failing seed reproduces bit-for-bit:
//   laces census --scenario '<printed spec>' --scenario-seed <seed> ...
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "census/longitudinal.hpp"
#include "scenario/scenario.hpp"
#include "topo/world.hpp"

namespace laces::scenario {

struct FuzzOptions {
  std::uint64_t start_seed = 1;
  int seeds = 20;
  std::uint32_t days = 2;
  /// Per-seed wall-clock budget before the watchdog declares a hang.
  double timeout_seconds = 120.0;
  /// Every Nth seed additionally runs the kill-and-resume byte check
  /// (0 disables).
  int resume_check_every = 5;
  /// Scratch directory for the resume checks' archives.
  std::filesystem::path work_dir = "fuzz-scenarios-work";
  /// World the censuses run against (generated once per sweep).
  topo::WorldConfig world = default_fuzz_world_config();
  /// Anycast-stage probing rate (keeps per-seed sim time small).
  double targets_per_second = 50000.0;
  /// Per-scenario generation shape; `sites` is overridden with the actual
  /// worker count at run time.
  GenerateOptions generate;
  /// Print one line per seed (the CLI does; library callers may not).
  bool verbose = false;

  /// The fuzzer's default substrate: ~100 prefixes with every deployment
  /// family present (the test suite's tiny world).
  static topo::WorldConfig default_fuzz_world_config();
};

struct FuzzFailure {
  std::uint64_t seed = 0;
  std::string spec;
  std::string what;
};

struct FuzzSummary {
  int ran = 0;
  int resume_checks = 0;
  std::uint64_t regimes_applied = 0;
  std::uint64_t degraded_days = 0;
  std::uint64_t worker_outages = 0;
  std::vector<FuzzFailure> failures;

  bool ok() const { return failures.empty(); }
};

struct CensusResult {
  std::vector<std::string> day_csv;  // index = day; unrun days stay empty
  std::vector<bool> day_degraded;
  census::StabilityStats anycast;
  census::StabilityStats gcd;
  std::size_t worker_count = 0;
  std::uint64_t regimes_applied = 0;
  std::uint64_t worker_outages = 0;
  /// First per-day longitudinal invariant violation, if any.
  std::optional<std::string> violation;

  std::string digest() const;
};

/// One simulated "process" of the sweep: a fresh census stack over
/// `world` running a CensusSeries up to `total_days`, under `scenario`
/// when given, archived into (and, with `resume`, resumed from)
/// `archive_dir` when given. Resets the global metrics and tracer first.
CensusResult run_census(const topo::World& world, const Scenario* scenario,
                        std::uint32_t total_days, double targets_per_second,
                        const std::filesystem::path* archive_dir, bool resume);

/// Runs the sweep. Pure function of (options) — same options, same
/// verdicts. The watchdog aborts the process (exit 124) on a hang, since
/// a hung event loop cannot be unwound from within.
FuzzSummary run_fuzz(const FuzzOptions& options);

}  // namespace laces::scenario

// Same-seed golden determinism: the census publication output, the metrics
// export and the trace JSONL of a fixed-seed two-day census must be
// byte-identical run over run AND match checked-in digests.
//
// The census and trace digests pin the exact output bytes produced before
// the simulator fast path (inline-callback event heap, shared datagram
// buffers, routing and catchment caches) was introduced — those
// optimisations must never change a single measurement byte for a given
// seed. The metrics digest is pinned separately because the metrics
// *surface* may legitimately grow (e.g. the routing cache hit/miss
// counters) without the measurement outcome changing. If a deliberate
// behaviour change invalidates a digest, re-derive it with:
//   ./test_determinism_golden --gtest_filter=DeterminismGolden.* 2>&1
// and update the matching constant from the failure message.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "census/output.hpp"
#include "census/pipeline.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "platform/platform.hpp"
#include "support.hpp"
#include "util/sha256.hpp"

namespace laces::census {
namespace {

/// Census CSV digest (updates when measurement behaviour changes — last:
/// per-packet loss/jitter salts became pure functions of packet identity
/// (day, flow hash, per-flow counter) instead of a global send counter).
constexpr const char* kCensusDigest =
    "0323fe22fa8ee449c2ec90ec520690fa7c469788d733dac658e93bdaa2595f72";
/// Prometheus metrics digest (updates when the metric surface changes —
/// last: identity-based packet salts shifted the RTT-derived buckets).
constexpr const char* kMetricsDigest =
    "0bc14608db1123065b21dd0cf13b00697576aa9c8e6fa6f26891b0b49c1f0079";
/// Trace JSONL digest (updates with measurement behaviour; see
/// kCensusDigest).
constexpr const char* kTraceDigest =
    "a9b5240ea76cfe29a665482643fd88587ca51b043e4cb42c97b621310a5ddd8a";

struct GoldenRun {
  std::string census_csv;   // render_census for both days, concatenated
  std::string metrics;      // Prometheus export
  std::string trace_jsonl;  // span export
};

/// A fully fresh, fixed-seed two-day census (day 2 exercises the AT-list
/// feedback path) with telemetry captured.
GoldenRun run_fixed_seed_census() {
  obs::set_enabled(true);
  obs::Registry::global().reset();
  obs::Tracer::global().reset();

  const auto world = topo::World::generate(laces::testing::tiny_world_config());
  EventQueue events;
  topo::SimNetwork network(world, events);
  core::Session session(network, platform::make_production_deployment(world));
  PipelineConfig config;
  config.targets_per_second = 50000;
  Pipeline pipeline(network, session, platform::make_ark(world, 20, 0xa),
                    platform::make_ark(world, 12, 0xb), config);

  GoldenRun out;
  for (std::uint32_t day = 1; day <= 2; ++day) {
    const auto census = pipeline.run_day(day);
    out.census_csv += render_census(census);
  }
  out.metrics = obs::to_prometheus(obs::Registry::global().snapshot());
  out.trace_jsonl = obs::trace_to_jsonl(obs::Tracer::global().snapshot());
  return out;
}

std::string digest_of(const std::string& bytes) {
  Sha256 h;
  h.update(bytes);
  return to_hex(h.finish());
}

TEST(DeterminismGolden, IdenticalRunsAreByteIdentical) {
  const auto first = run_fixed_seed_census();
  const auto second = run_fixed_seed_census();
  EXPECT_EQ(first.census_csv, second.census_csv);
  EXPECT_EQ(first.metrics, second.metrics);
  EXPECT_EQ(first.trace_jsonl, second.trace_jsonl);
}

TEST(DeterminismGolden, OutputMatchesCheckedInDigest) {
  const auto run = run_fixed_seed_census();
  // For inspecting what changed when a digest no longer matches:
  // LACES_GOLDEN_DUMP=<dir> writes the raw blobs next to their digests.
  if (const char* dir = std::getenv("LACES_GOLDEN_DUMP")) {
    const std::string base = dir;
    std::ofstream(base + "/golden_census.csv") << run.census_csv;
    std::ofstream(base + "/golden_metrics.prom") << run.metrics;
    std::ofstream(base + "/golden_trace.jsonl") << run.trace_jsonl;
  }
  EXPECT_FALSE(run.census_csv.empty());
  EXPECT_FALSE(run.metrics.empty());
  EXPECT_FALSE(run.trace_jsonl.empty());
  EXPECT_EQ(digest_of(run.census_csv), kCensusDigest)
      << "fixed-seed census output changed; if intentional, update "
         "kCensusDigest (see file header)";
  EXPECT_EQ(digest_of(run.metrics), kMetricsDigest)
      << "fixed-seed metrics export changed; if intentional, update "
         "kMetricsDigest (see file header)";
  EXPECT_EQ(digest_of(run.trace_jsonl), kTraceDigest)
      << "fixed-seed trace export changed; if intentional, update "
         "kTraceDigest (see file header)";
}

}  // namespace
}  // namespace laces::census

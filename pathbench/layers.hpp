// Per-layer figures for traced runs.
//
// A workload measures the layers its own path runs through. The layer
// probe measures the others on the same seed's census days, so each traced
// run reports the full per-layer set: standalone calls (segment
// encode/decode, digest, CSV render, day diff, frame codec, SHA-256), a
// short publish through the full subscriber tree, and a short open-loop
// query burst.
#pragma once

#include <string>
#include <vector>

#include "census/census.hpp"
#include "common.hpp"
#include "publish_stack.hpp"

namespace pathbench {

/// `census` relabelled as day `day` (the days are replayed in rotation).
laces::census::DailyCensus relabel(const laces::census::DailyCensus& census,
                                   std::uint32_t day);

/// Standalone calls on one seed day, each timed on its own: segment
/// encode/decode, digest, CSV render, day diff, SHA-256 throughput.
/// Sets store.encode_ms, store.digest_ms, store.render_csv_ms,
/// store.decode_ms, store.segment_bytes, mesh.diff_ms, util.sha256_mb_s.
void measure_standalone(const std::vector<laces::census::DailyCensus>& sources,
                        Result& result);

/// store.append_ms, mesh.* and the commit accounting from a publish run
/// with a shadow writer (needs measure_standalone's figures). The
/// accounting splits the traced commit median into the hook-less append
/// (itself encode + digest + render + store.io_ms), the day diff, the
/// subscribers' sinks, the remote hops of all the day's chunks (frame
/// encode, HMAC, decode and the remote relay's push) and what is left:
/// commit.unaccounted_ms (chunking, the census copy, relay locks).
/// Its figures depend on how many days the run got through, so it records
/// no exact counts.
void report_publish_layers(const std::vector<DayDelivery>& days,
                           Result& result);

/// Exact counts `<prefix>.rows|chunks|frames_first_days` over the first
/// `n` days of a feed, which a run appends whatever its speed.
void count_first_days(const std::vector<DayDelivery>& days, std::size_t n,
                      const std::string& prefix, Result& result);

struct ProbeParts {
  bool publish = true;  // mini publish through the full subscriber tree
  bool query = true;    // mini open-loop query burst
};

/// Measures, on `sources` (at least two census days of this seed), the
/// layers a workload's own path does not run. With `parts.publish`: 12
/// days through the full subscriber tree (store.append_ms, mesh.*,
/// commit.*). Always: a plain 12-day archive (store.manifest_bytes,
/// store.load_day_ms, serve.frame_us). With `parts.query`: a 3 s open-loop
/// burst at 25 requests/s over that archive (serve.*,
/// store.reader_hit_ratio, loadgen.late_ms.p99).
void probe_layers(const std::vector<laces::census::DailyCensus>& sources,
                  const Options& options, ProbeParts parts, Result& result);

}  // namespace pathbench

// The read half of the path: a serve::Server over an archive, driven by a
// seeded open-loop request stream on one generator thread.
//
// Each request is timed from the moment it was due, not from when the
// generator got round to sending it, so a stall shows in the latency of
// every request queued behind it; how late the generator itself ran is
// reported apart. A request is a first touch when its canonical bytes
// (the response-cache key) were never sent before in the run: it misses
// the response cache and executes on a worker. A repeat hits. The
// schedule never repeats a key within 1 s of its first touch, so a repeat
// cannot race its own first touch into a second miss and serve.executed
// must equal the first-touch count exactly; and it spaces first touches at
// least 1/8 s apart, so the miss load is a fixed offered rate too instead
// of a burst at the start of the run.
// An arrival for which 64 draws find no admissible request is dropped
// (Poisson thinning; it happens only in the first second).
#pragma once

#include <cstdint>
#include <vector>

#include "census/census.hpp"
#include "common.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "store/archive.hpp"

namespace pathbench {

/// Server workers for `cores` cores: one core stays with the generator,
/// which also answers cache hits inline, and one with everything else on
/// the host, so a hit is not timed behind a preempted generator.
inline unsigned server_threads(unsigned cores) {
  return cores > 2 ? cores - 2 : 1;
}

/// Confines the calling thread, and the threads it starts from now on, to
/// cores [first, last). An empty range changes nothing.
void pin_thread(unsigned first, unsigned last);

struct ScheduledRequest {
  double due_s = 0.0;
  std::vector<std::uint8_t> frame;  // signed, pre-encoded
  bool first_touch = false;
};

/// Every prefix published on any of `days`, sorted.
std::vector<laces::net::Prefix> published_union(
    const std::vector<laces::census::DailyCensus>& days);

/// `seconds` of Poisson arrivals at `rate` per second over the interactive
/// mix of serve::LoadGenConfig without bulk export (summary 4, stability 2,
/// history 8, intermittent 1), history prefixes Zipf(0.8) over `prefixes`.
/// Deterministic in its arguments: the program only ever sees these
/// generated frames, signed with `key`.
std::vector<ScheduledRequest> make_schedule(
    std::uint64_t seed, const std::vector<laces::net::Prefix>& prefixes,
    double rate, double seconds, const std::string& key);

struct QueryRun {
  std::vector<double> warm_ms, cold_ms, late_ms;
  std::uint64_t sent = 0, first_touches = 0;
  std::uint64_t unanswered = 0;  // still pending after the drain timeout
  std::vector<std::vector<std::uint8_t>> replies;  // by schedule index
};

/// Sends `schedule` open-loop through one connection and waits for every
/// reply (up to 30 s after the last send).
QueryRun run_open_loop(laces::serve::Server& server,
                       const std::vector<ScheduledRequest>& schedule);

/// Server and reader counters taken just before a run, so the per-run
/// figures exclude earlier traffic.
struct ServeBaseline {
  std::uint64_t executed = 0, cache_hits = 0, shed = 0;
  std::uint64_t reader_hits = 0, reader_misses = 0;
  static ServeBaseline take(const laces::serve::Server& server,
                            const laces::store::ArchiveReader& reader);
};

/// Checks every reply authenticates and is neither an error nor a shed
/// response, that the requests the server executed equal the first
/// touches, and that sampled history bodies equal an offline QueryEngine
/// over `archive_dir`.
void check_replies(const laces::serve::Server& server,
                   const ServeBaseline& before,
                   const std::vector<ScheduledRequest>& schedule,
                   const QueryRun& run,
                   const std::filesystem::path& archive_dir, Result& result);

/// serve.*, store.reader_hit_ratio and loadgen.* per-layer metrics.
void report_serve_layers(const laces::serve::Server& server,
                         const laces::store::ArchiveReader& reader,
                         const ServeBaseline& before, const QueryRun& run,
                         Result& result);

}  // namespace pathbench

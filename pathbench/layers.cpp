#include "layers.hpp"

#include <filesystem>

#include "census/output.hpp"
#include "query_load.hpp"
#include "serve/protocol.hpp"
#include "store/delta.hpp"
#include "store/format.hpp"
#include "store/query.hpp"
#include "store/segment.hpp"
#include "world.hpp"
#include "util/sha256.hpp"

namespace pathbench {

namespace census = laces::census;
namespace store = laces::store;
namespace serve = laces::serve;

namespace {

/// Median wall time of `reps` calls of `f`, each in a span named `name`.
template <class F>
double median_ms(int reps, const char* name, F&& f) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    {
      Span span(name);
      f();
    }
    ms.push_back(ms_since(t0));
  }
  return p50(ms);
}

constexpr int kReps = 15;
/// Days in the probe's archives: longer than the reader's 8-day cache.
constexpr std::uint32_t kProbeDays = 12;

}  // namespace

census::DailyCensus relabel(const census::DailyCensus& census,
                            std::uint32_t day) {
  census::DailyCensus out = census;
  out.day = day;
  return out;
}

void measure_standalone(const std::vector<census::DailyCensus>& sources,
                        Result& result) {
  // Fresh copies, like the days the workloads append: a copied record map
  // is laid out differently in memory from the one the pipeline built.
  const auto prev = relabel(sources[0], 1);
  const auto day = relabel(sources[1], 2);
  std::vector<std::uint8_t> segment;
  std::string digest, csv;
  census::DailyCensus decoded;
  store::DayDelta delta;
  laces::Sha256Digest sha{};
  result.set("store.encode_ms", median_ms(kReps, "store.encode", [&] {
               segment = store::encode_segment(day);
             }), "ms");
  result.set("store.digest_ms", median_ms(kReps, "store.digest", [&] {
               digest = store::segment_digest_hex(segment);
             }), "ms");
  result.set("store.render_csv_ms", median_ms(kReps, "store.render_csv", [&] {
               csv = census::render_census(day);
             }), "ms");
  result.set("store.decode_ms", median_ms(kReps, "store.decode", [&] {
               decoded = store::decode_segment(segment);
             }), "ms");
  result.set("mesh.diff_ms", median_ms(kReps, "mesh.diff", [&] {
               delta = store::compute_day_delta(&prev, day);
             }), "ms");
  const double sha_ms = median_ms(kReps, "util.sha256", [&] {
    sha = laces::Sha256::hash(std::span<const std::uint8_t>(segment));
  });
  result.set("util.sha256_mb_s",
             static_cast<double>(segment.size()) / 1e6 / (sha_ms / 1e3),
             "MB/s");
  result.set("store.segment_bytes", static_cast<double>(segment.size()),
             "bytes");
  result.counts["store.segment_bytes"] = segment.size();
  result.counts["mesh.diff_rows"] = delta.upserts.size() + delta.removals.size();
  result.check(decoded.day == day.day && !digest.empty() && !csv.empty() &&
                   sha != laces::Sha256Digest{},
               "standalone layer calls return their outputs");
}

void report_publish_layers(const std::vector<DayDelivery>& days,
                           Result& result) {
  std::vector<double> commit, shadow, apply, fanout, hop, sinks;
  std::uint64_t rows = 0, upserts = 0, chunks = 0, frames = 0, published = 0;
  std::size_t n = 0;
  // Day 1 of a feed is all upserts; steady-state days follow.
  for (const auto& d : days) {
    if (d.day == 1) continue;
    commit.push_back(d.commit_ms);
    shadow.push_back(d.shadow_ms);
    apply.push_back(d.follower_apply_ms);
    fanout.push_back(d.fanout_ms);
    hop.push_back(d.remote_hop_ms);
    sinks.push_back(d.sinks_ms);
    rows += d.upserts + d.removals;
    upserts += d.upserts;
    chunks += d.chunks;
    frames += d.frames;
    published += d.published;
    ++n;
  }
  if (n == 0) return;
  const double per_day = static_cast<double>(n);
  result.set("store.append_ms", p50(shadow), "ms");
  result.set("mesh.publish_ms", p50(commit) - p50(shadow), "ms");
  result.set("mesh.fanout_ms", p50(fanout), "ms");
  result.set("mesh.remote_hop_ms", p50(hop), "ms");
  result.set("mesh.follower_apply_ms", p50(apply), "ms");
  result.set("mesh.rows_per_day", static_cast<double>(rows) / per_day, "count");
  result.set("mesh.chunks_per_day", static_cast<double>(chunks) / per_day,
             "count");
  result.set("mesh.frames_per_day", static_cast<double>(frames) / per_day,
             "count");
  result.set("mesh.upsert_ratio",
             published > 0 ? static_cast<double>(upserts) /
                                 static_cast<double>(published)
                           : 0.0,
             "ratio");
  result.set("mesh.sinks_ms", p50(sinks), "ms");
  const auto value = [&result](const char* name) {
    return result.metrics.at(name).value;
  };
  result.set("store.io_ms",
             value("store.append_ms") - value("store.encode_ms") -
                 value("store.digest_ms") - value("store.render_csv_ms"),
             "ms");
  result.set("commit.traced_ms", p50(commit), "ms");
  result.set("commit.unaccounted_ms",
             p50(commit) - value("store.append_ms") - value("mesh.diff_ms") -
                 p50(sinks) - p50(hop),
             "ms");
}

void count_first_days(const std::vector<DayDelivery>& days, std::size_t n,
                      const std::string& prefix, Result& result) {
  std::uint64_t rows = 0, chunks = 0, frames = 0;
  for (std::size_t i = 0; i < n && i < days.size(); ++i) {
    rows += days[i].upserts + days[i].removals;
    chunks += days[i].chunks;
    frames += days[i].frames;
  }
  result.counts[prefix + ".rows_first_days"] = rows;
  result.counts[prefix + ".chunks_first_days"] = chunks;
  result.counts[prefix + ".frames_first_days"] = frames;
}

void probe_layers(const std::vector<census::DailyCensus>& sources,
                  const Options& options, ProbeParts parts, Result& result) {
  const std::filesystem::path root =
      std::filesystem::path(options.work_dir) / "probe";
  const auto source_of = [&](std::uint32_t day) {
    return (day - 1) % sources.size();
  };

  if (parts.publish) {
    PublishStack stack(root / "publish",
                       {.local_sinks = 4, .remote = true, .shadow = true});
    for (std::uint32_t day = 1; day <= kProbeDays; ++day) {
      stack.append(relabel(sources[source_of(day)], day), Clock::now());
    }
    const auto days = stack.finish(result);
    report_publish_layers(days, result);
    count_first_days(days, kProbeDays, "probe", result);
  }

  // A plain archive longer than the reader's segment cache.
  const auto archive = root / "archive";
  std::filesystem::remove_all(archive);
  {
    store::ArchiveWriter writer(archive);
    for (std::uint32_t day = 1; day <= kProbeDays; ++day) {
      writer.append(relabel(sources[source_of(day)], day));
    }
  }
  const auto manifest_bytes =
      std::filesystem::file_size(archive / store::kManifestFile);
  result.set("store.manifest_bytes", static_cast<double>(manifest_bytes),
             "bytes");
  result.counts["store.manifest_bytes"] = manifest_bytes;
  {
    // Capacity 1 and alternating days: every load is a miss.
    store::ArchiveReader reader(archive, 1);
    std::uint32_t day = 0;
    result.set("store.load_day_ms", median_ms(kReps, "store.load_day", [&] {
                 reader.load_day(day++ % kProbeDays + 1);
               }), "ms");
  }
  {
    store::ArchiveReader reader(archive);
    store::QueryEngine engine(reader);
    const auto prefix = sources[0].published_prefixes().front();
    const auto body = serve::encode_response(
        serve::Response{serve::HistoryResponse{prefix, engine.history(prefix)}});
    const std::string key = serve::ServerConfig{}.key;
    std::size_t bytes = 0;
    const double ms = median_ms(kReps * 20, "serve.frame", [&] {
      const auto frame =
          serve::encode_frame(key, serve::FrameKind::kResponse, 1, body);
      bytes += serve::decode_frame(key, frame).payload.size();
    });
    result.set("serve.frame_us", ms * 1e3, "us");
    result.check(bytes == body.size() * kReps * 20,
                 "frame codec round-trips a history response");
  }

  if (parts.query) {
    store::ArchiveReader reader(archive);
    serve::ServerConfig config;
    config.threads = server_threads(options.cores);
    serve::Server server(reader, config);
    const auto schedule = make_schedule(options.seed,
                                        published_union(sources), /*rate=*/25.0,
                                        /*seconds=*/3.0, config.key);
    const auto before = ServeBaseline::take(server, reader);
    const auto run = run_open_loop(server, schedule);
    server.drain();
    check_replies(server, before, schedule, run, archive, result);
    report_serve_layers(server, reader, before, run, result);
  }
  std::error_code ec;
  std::filesystem::remove_all(root, ec);
}

}  // namespace pathbench

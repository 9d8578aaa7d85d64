#include "query_load.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <future>
#include <string>
#include <unordered_map>
#include <thread>
#include <variant>

#include "store/query.hpp"
#include "util/rng.hpp"

namespace pathbench {

namespace serve = laces::serve;

namespace {

// README.md ("The query generator") gives where each number comes from.
// Web-cache request popularity is Zipf-like with exponents 0.64-0.83
// (Breslau et al., INFOCOM 1999); this takes the upper end.
constexpr double kZipfS = 0.8;
constexpr double kRepeatGuardS = 1.0;
// Most first touches per second: about 40% of what two workers can serve
// when each history miss decodes 16 days (~95 ms on the reference host).
constexpr double kFirstTouchRate = 8.0;
// serve::LoadGenConfig's interactive mix, without bulk export.
constexpr unsigned kWeightSummary = 4, kWeightStability = 2,
                   kWeightHistory = 8, kWeightIntermittent = 1;

}  // namespace

void pin_thread(unsigned first, unsigned last) {
  if (first >= last) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (unsigned core = first; core < last; ++core) CPU_SET(core, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

std::vector<laces::net::Prefix> published_union(
    const std::vector<laces::census::DailyCensus>& days) {
  std::vector<laces::net::Prefix> out;
  for (const auto& day : days) {
    for (const auto& p : day.published_prefixes()) out.push_back(p);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<ScheduledRequest> make_schedule(
    std::uint64_t seed, const std::vector<laces::net::Prefix>& prefixes,
    double rate, double seconds, const std::string& key) {
  laces::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x51);
  // Popularity rank: a seeded permutation, Zipf weights over the ranks.
  std::vector<laces::net::Prefix> ranked = prefixes;
  for (std::size_t i = ranked.size(); i > 1; --i) {
    std::swap(ranked[i - 1], ranked[rng.uniform_int(0, i - 1)]);
  }
  std::vector<double> cdf(ranked.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), kZipfS);
    cdf[i] = sum;
  }
  const unsigned w_history = ranked.empty() ? 0 : kWeightHistory;
  const unsigned total =
      kWeightSummary + kWeightStability + w_history + kWeightIntermittent;
  const auto draw = [&]() -> serve::Request {
    std::uint64_t pick = rng.uniform_int(1, total);
    if (pick <= kWeightSummary) return serve::SummaryRequest{};
    pick -= kWeightSummary;
    if (pick <= kWeightStability) return serve::StabilityRequest{};
    pick -= kWeightStability;
    if (pick <= w_history) {
      const double u = rng.uniform01() * sum;
      const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
      const auto rank = std::min<std::size_t>(it - cdf.begin(), cdf.size() - 1);
      return serve::HistoryRequest{ranked[rank]};
    }
    return serve::IntermittentRequest{};
  };

  std::vector<ScheduledRequest> out;
  // Keyed by the canonical request bytes (the response-cache key).
  std::unordered_map<std::string, double> first_touch_at;
  double t = 0.0;
  double last_first_touch = -1e9;
  for (;;) {
    t += -std::log(1.0 - rng.uniform01()) / rate;
    if (t >= seconds) break;
    for (int tries = 0; tries < 64; ++tries) {
      const std::vector<std::uint8_t> body = serve::encode_request(draw());
      std::string key_bytes(body.begin(), body.end());
      const auto it = first_touch_at.find(key_bytes);
      const bool first = it == first_touch_at.end();
      if (first ? t - last_first_touch < 1.0 / kFirstTouchRate
                : t - it->second < kRepeatGuardS) {
        continue;
      }
      if (first) {
        first_touch_at.emplace(std::move(key_bytes), t);
        last_first_touch = t;
      }
      out.push_back({t,
                     serve::encode_frame(key, serve::FrameKind::kRequest,
                                         /*request_id=*/out.size() + 1, body),
                     first});
      break;
    }
  }
  return out;
}

QueryRun run_open_loop(serve::Server& server,
                       const std::vector<ScheduledRequest>& schedule) {
  using namespace std::chrono;
  QueryRun run;
  run.replies.resize(schedule.size());
  run.late_ms.reserve(schedule.size());
  auto connection = server.connect();
  struct InFlight {
    std::size_t index;
    Clock::time_point due;
    std::future<std::vector<std::uint8_t>> reply;
  };
  std::vector<InFlight> pending;
  const auto record = [&](std::size_t index, Clock::time_point due,
                          Clock::time_point done) {
    (schedule[index].first_touch ? run.cold_ms : run.warm_ms)
        .push_back(ms_between(due, done));
  };
  const auto poll = [&] {
    for (std::size_t i = 0; i < pending.size();) {
      if (pending[i].reply.wait_for(seconds(0)) == std::future_status::ready) {
        record(pending[i].index, pending[i].due, Clock::now());
        run.replies[pending[i].index] = pending[i].reply.get();
        pending[i] = std::move(pending.back());
        pending.pop_back();
      } else {
        ++i;
      }
    }
  };

  const auto start = Clock::now() + milliseconds(5);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const auto due =
        start + duration_cast<Clock::duration>(duration<double>(schedule[i].due_s));
    // Spin, never nap: a generator that sleeps between requests answers
    // each hit from caches the host has meanwhile given to something else.
    for (auto now = Clock::now(); now < due; now = Clock::now()) poll();
    const auto sent = Clock::now();
    run.late_ms.push_back(ms_between(due, sent));
    std::future<std::vector<std::uint8_t>> reply;
    {
      Span span("serve.submit");
      reply = connection->submit(schedule[i].frame);
    }
    ++run.sent;
    run.first_touches += schedule[i].first_touch ? 1 : 0;
    if (reply.wait_for(seconds(0)) == std::future_status::ready) {
      record(i, due, Clock::now());
      run.replies[i] = reply.get();
    } else {
      pending.push_back({i, due, std::move(reply)});
    }
  }
  const auto deadline = Clock::now() + seconds(30);
  while (!pending.empty() && Clock::now() < deadline) {
    poll();
    std::this_thread::sleep_for(microseconds(50));
  }
  run.unanswered = pending.size();
  for (auto& p : pending) p.reply.wait();  // the server drains every job
  return run;
}

ServeBaseline ServeBaseline::take(const serve::Server& server,
                                  const laces::store::ArchiveReader& reader) {
  return {server.requests_executed(), server.cache_hits(),
          server.requests_shed(), reader.cache_hits(), reader.cache_misses()};
}

void check_replies(const serve::Server& server, const ServeBaseline& before,
                   const std::vector<ScheduledRequest>& schedule,
                   const QueryRun& run,
                   const std::filesystem::path& archive_dir, Result& result) {
  const std::string& key = server.config().key;
  laces::store::ArchiveReader offline_reader(archive_dir);
  laces::store::QueryEngine offline(offline_reader);
  std::uint64_t sampled = 0;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    bool ok = !run.replies[i].empty();
    try {
      if (ok) {
        const auto frame = serve::decode_frame(key, run.replies[i]);
        const auto response = serve::decode_response(frame.payload);
        ok = !std::holds_alternative<serve::ErrorResponse>(response);
        const auto* history = std::get_if<serve::HistoryResponse>(&response);
        // Every 16th first-touch history body against the offline engine.
        if (ok && history != nullptr && schedule[i].first_touch &&
            sampled++ % 16 == 0) {
          result.check(history->days == offline.history(history->prefix),
                       "served history equals offline QueryEngine::history");
        }
      }
    } catch (const std::exception&) {
      ok = false;  // failed authentication or a malformed reply
    }
    result.op(ok, ok ? std::string()
                     : "request " + std::to_string(i) +
                           " unanswered, unauthenticated, shed or an error");
  }
  result.check(server.requests_shed() == before.shed, "no request shed");
  result.check(run.unanswered == 0, "every request answered");
  result.check(server.requests_executed() - before.executed ==
                   run.first_touches,
               "serve.executed == first-touch requests");
}

void report_serve_layers(const serve::Server& server,
                         const laces::store::ArchiveReader& reader,
                         const ServeBaseline& before, const QueryRun& run,
                         Result& result) {
  for (const auto& stage : server.latency_stages()) {
    if (stage.stage == "queue_wait") {
      result.set("serve.queue_wait_us.p50", stage.p50_us, "us");
      result.set("serve.queue_wait_us.p99", stage.p99_us, "us");
    } else if (stage.stage == "archive_read") {
      result.set("serve.archive_read_us.p50", stage.p50_us, "us");
      result.set("serve.archive_read_us.p99", stage.p99_us, "us");
    } else if (stage.stage == "render") {
      result.set("serve.render_us.p50", stage.p50_us, "us");
    } else if (stage.stage == "total") {
      result.set("serve.total_us.p99", stage.p99_us, "us");
    }
  }
  const auto executed = server.requests_executed() - before.executed;
  const auto hits = server.cache_hits() - before.cache_hits;
  result.set("serve.executed", static_cast<double>(executed), "count");
  result.set("serve.response_hit_ratio",
             executed + hits > 0 ? static_cast<double>(hits) /
                                       static_cast<double>(executed + hits)
                                 : 0.0,
             "ratio");
  result.set("serve.shed",
             static_cast<double>(server.requests_shed() - before.shed),
             "count");
  const auto rh = reader.cache_hits() - before.reader_hits;
  const auto rm = reader.cache_misses() - before.reader_misses;
  result.set("store.reader_hit_ratio",
             rh + rm > 0 ? static_cast<double>(rh) / static_cast<double>(rh + rm)
                         : 0.0,
             "ratio");
  result.set("loadgen.late_ms.p99", pct(run.late_ms, 99.0), "ms");
}

}  // namespace pathbench

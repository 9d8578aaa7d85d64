#include "publish_stack.hpp"

#include <algorithm>
#include <sstream>
#include <thread>

#include "world.hpp"

namespace pathbench {

namespace mesh = laces::mesh;

struct PublishStack::Subscriber {
  struct Day {
    Clock::time_point first, last;  // receipt of the first / last chunk
    // Per chunk, in arrival order: when the sink was entered and left.
    std::vector<Clock::time_point> entered, left;
    double apply_ms = 0.0;
    double sink_ms = 0.0;  // inside on_chunk, all chunks
    std::uint64_t chunks = 0, upserts = 0, removals = 0;
    std::uint64_t hash = 0;  // follower's rebuilt CSV (followers only)
    bool done = false;       // the day's last chunk arrived
  };

  bool local = true;  // subscribed on the origin relay
  bool follower = false;
  mesh::Relay* relay = nullptr;
  std::uint64_t id = 0;

  std::mutex mu;
  laces::store::DeltaFollower state;
  std::uint64_t chunks = 0;
  std::map<std::uint32_t, Day> days;

  void on_chunk(const mesh::DeltaChunk& chunk) {
    const auto now = Clock::now();
    Span span(local ? "mesh.sink.local" : "mesh.sink.remote");
    std::lock_guard lk(mu);
    Day& d = days[chunk.day];
    if (d.chunks == 0) d.first = now;
    d.last = now;
    ++d.chunks;
    ++chunks;
    d.upserts += chunk.upserts.size();
    d.removals += chunk.removals.size();
    if (follower) {
      const auto t0 = Clock::now();
      {
        Span apply("mesh.follower_apply");
        state.apply(mesh::to_delta(chunk));
      }
      d.apply_ms += ms_since(t0);
      if (chunk.last) {
        Span render("consumer.render");
        d.hash = csv_hash(state.render());
      }
    }
    if (chunk.last) d.done = true;
    const auto left = Clock::now();
    d.entered.push_back(now);
    d.left.push_back(left);
    d.sink_ms += ms_between(now, left);
  }
};

PublishStack::PublishStack(std::filesystem::path dir, PublishConfig config)
    : dir_(std::move(dir)) {
  std::filesystem::remove_all(dir_);
  writer_ = std::make_unique<laces::store::ArchiveWriter>(dir_ / "archive");
  if (config.shadow) {
    shadow_ = std::make_unique<laces::store::ArchiveWriter>(dir_ / "shadow");
  }
  mesh::RelayConfig origin_config;
  origin_config.node_id = 1;
  origin_config.name = "origin";
  origin_ = std::make_unique<mesh::Relay>(origin_config);
  origin_->attach_publisher(*writer_);
  // Local subscribers flush at a higher priority than the remote peer's
  // subscription, so the origin pushes to every local sink before the hop
  // and remote_hop_ms is the hop alone. (Priority decides the order; a
  // peer picks its own subscription id, which may equal a local id.)
  add_subscriber(*origin_, /*local=*/true, /*follower=*/true);
  for (std::size_t i = 0; i < config.local_sinks; ++i) {
    add_subscriber(*origin_, true, false);
  }
  if (config.remote) {
    mesh::RelayConfig remote_config;
    remote_config.node_id = 2;
    remote_config.name = "remote";
    remote_ = std::make_unique<mesh::Relay>(remote_config);
    const auto connected = mesh::connect(*remote_, *origin_);
    if (!connected.ok) {
      throw std::runtime_error("remote relay handshake failed: " +
                               connected.message);
    }
    add_subscriber(*remote_, false, true);
  }
}

PublishStack::~PublishStack() {
  writer_->set_commit_hook({});
  for (auto& s : subs_) s->relay->unsubscribe_local(s->id);
  remote_.reset();
  origin_.reset();
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
}

void PublishStack::add_subscriber(mesh::Relay& relay, bool local,
                                  bool follower) {
  auto sub = std::make_unique<Subscriber>();
  sub->local = local;
  sub->follower = follower;
  sub->relay = &relay;
  Subscriber* raw = sub.get();
  mesh::SubscriptionSpec spec;
  spec.priority = local ? 1 : 0;
  sub->id = relay.subscribe_local(
      spec,
      [raw](const mesh::DeltaChunk& chunk) { raw->on_chunk(chunk); });
  subs_.push_back(std::move(sub));
}

void PublishStack::append(const laces::census::DailyCensus& census,
                          Clock::time_point op_start) {
  Pending p;
  p.day = census.day;
  p.op_start = op_start;
  const auto frames_before =
      origin_->frames_sent() + (remote_ ? remote_->frames_sent() : 0);
  const auto t0 = Clock::now();
  {
    Span span("store.append");
    writer_->append(census);
  }
  p.commit_ms = ms_since(t0);
  p.frames = origin_->frames_sent() + (remote_ ? remote_->frames_sent() : 0) -
             frames_before;
  if (shadow_) {
    const auto t1 = Clock::now();
    {
      Span span("store.append_hookless");
      shadow_->append(census);
    }
    p.shadow_ms = ms_since(t1);
  }
  p.published = census.published_prefixes().size();
  pending_.push_back(p);
}

std::vector<DayDelivery> PublishStack::finish(Result& result) {
  std::vector<DayDelivery> out;
  if (pending_.empty()) return out;
  const std::uint32_t last_day = pending_.back().day;
  const auto holds_last = [last_day](Subscriber& s) {
    std::lock_guard lk(s.mu);
    const auto it = s.days.find(last_day);
    return it != s.days.end() && it->second.done;
  };
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  bool all_hold = false;
  while (!(all_hold = std::all_of(subs_.begin(), subs_.end(),
                                  [&](auto& s) { return holds_last(*s); })) &&
         Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  result.check(all_hold, "every subscriber holds the last day");

  const std::uint64_t published = origin_->stats().deltas_published;
  bool deliveries_ok = published > 0;
  for (auto& s : subs_) {
    std::lock_guard lk(s->mu);
    deliveries_ok = deliveries_ok && s->chunks == published;
  }
  result.check(deliveries_ok, "deliveries == chunks published x subscribers");

  // The reference is the archive's own export of each day.
  laces::store::ArchiveReader reader(dir_ / "archive");
  std::map<std::uint32_t, std::uint64_t> exported;
  for (const auto& p : pending_) {
    std::ostringstream csv;
    reader.export_csv(p.day, csv);
    exported[p.day] = csv_hash(csv.str());
  }
  for (auto& s : subs_) {
    if (!s->follower) continue;
    std::lock_guard lk(s->mu);
    bool identical = true;
    for (const auto& [day, hash] : exported) {
      const auto it = s->days.find(day);
      identical = identical && it != s->days.end() && it->second.hash == hash;
    }
    result.check(identical, std::string(s->local ? "local" : "remote") +
                                " follower rebuilt every day as export_csv");
  }

  for (const auto& p : pending_) {
    DayDelivery d;
    d.day = p.day;
    d.commit_ms = p.commit_ms;
    d.shadow_ms = p.shadow_ms;
    d.published = p.published;
    d.frames = p.frames;
    Clock::time_point local_first = Clock::time_point::max();
    Clock::time_point local_last = Clock::time_point::min();
    // Per chunk, when the last local sink returned: the origin pushes each
    // chunk to every local sink before it sends the chunk to the peer.
    std::vector<Clock::time_point> locals_done;
    for (auto& s : subs_) {
      std::lock_guard lk(s->mu);
      const auto it = s->days.find(p.day);
      if (it == s->days.end()) continue;
      const auto& day = it->second;
      d.deliver_ms.push_back(ms_between(p.op_start, day.last));
      d.sinks_ms += day.sink_ms;
      if (!s->local) continue;
      local_first = std::min(local_first, day.first);
      local_last = std::max(local_last, day.last);
      locals_done.resize(day.left.size(), Clock::time_point::min());
      for (std::size_t k = 0; k < day.left.size(); ++k) {
        locals_done[k] = std::max(locals_done[k], day.left[k]);
      }
      if (s->follower) {
        d.follower_apply_ms = day.apply_ms;
        d.chunks = day.chunks;
        d.upserts = day.upserts;
        d.removals = day.removals;
      }
    }
    d.fanout_ms = ms_between(local_first, local_last);
    for (auto& s : subs_) {
      if (s->local) continue;
      std::lock_guard lk(s->mu);
      const auto it = s->days.find(p.day);
      if (it == s->days.end()) continue;
      const auto& entered = it->second.entered;
      for (std::size_t k = 0; k < entered.size() && k < locals_done.size();
           ++k) {
        d.remote_hop_ms += ms_between(locals_done[k], entered[k]);
      }
    }
    out.push_back(std::move(d));
  }
  return out;
}

}  // namespace pathbench

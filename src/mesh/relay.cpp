#include "mesh/relay.hpp"

#include <algorithm>
#include <utility>

#include "obs/flightrec.hpp"
#include "serve/json.hpp"

namespace laces::mesh {
namespace {

using serve::ErrorCode;
using serve::FrameKind;
using serve::ProtocolError;

/// Internal cursor-seq sentinel: "this day fully applied". Used when a
/// publisher attaches to an already-populated archive — the feed resumes
/// after the last archived day without knowing how it would have chunked.
constexpr std::uint32_t kDayDone = 0xffffffff;

}  // namespace

Relay::Relay(RelayConfig config, serve::Server* server,
             std::filesystem::path archive_dir)
    : config_(std::move(config)),
      server_(server),
      archive_dir_(std::move(archive_dir)) {
  if (server_) {
    conn_ = server_->connect();
    server_->set_mesh_stats_provider([this] { return stats(); });
  }
  auto& registry = obs::Registry::global();
  published_counter_ = &registry.counter("laces_mesh_deltas_published_total",
                                         {{"relay", config_.name}});
  pushed_counter_ = &registry.counter("laces_mesh_deltas_pushed_total",
                                      {{"relay", config_.name}});
  dropped_counter_ = &registry.counter("laces_mesh_deltas_dropped_total",
                                       {{"relay", config_.name}});
  forwards_counter_ = &registry.counter("laces_mesh_forwards_total",
                                        {{"relay", config_.name}});
}

Relay::~Relay() {
  // Sever every link so no peer keeps a dangling pointer to us, and
  // detach the stats provider (it captures `this`).
  std::vector<Relay*> remotes;
  {
    std::lock_guard lk(mu_);
    for (const Peer& p : peers_) remotes.push_back(p.remote);
  }
  for (Relay* remote : remotes) {
    remote->drop_peer(this);
    drop_peer(remote);
  }
  if (server_) server_->set_mesh_stats_provider({});
}

void Relay::attach_publisher(store::ArchiveWriter& writer) {
  if (archive_dir_.empty()) archive_dir_ = writer.dir();
  {
    std::lock_guard lk(mu_);
    publisher_attached_ = true;
    if (!writer.manifest().entries.empty()) {
      // Reopened archive: the feed resumes after the last archived day;
      // older cursors replay from the archive, not the log.
      store::ArchiveReader reader(archive_dir_, 1);
      const std::uint32_t day = reader.manifest().last_day();
      diff_base_ = census::render_publication(*reader.load_day(day));
      feed_started_ = true;
      latest_ = Cursor{day, kDayDone};
      log_complete_ = false;
    }
  }
  writer.set_commit_hook(
      [this](const store::ManifestEntry&, census::Publication publication) {
        publish(std::move(publication));
      });
}

// --- framing helpers ---

std::vector<std::uint8_t> Relay::mesh_frame(const MeshMessage& message,
                                            std::uint64_t request_id) const {
  return serve::encode_frame(config_.key, FrameKind::kMesh, request_id,
                             encode_mesh(message),
                             serve::kMeshProtocolVersion);
}

std::vector<std::uint8_t> Relay::mesh_frame(const DeltaChunk& chunk) const {
  return serve::encode_frame(config_.key, FrameKind::kMesh, 0,
                             encode_mesh(chunk), serve::kMeshProtocolVersion);
}

std::vector<std::uint8_t> Relay::error_frame(std::uint64_t request_id,
                                             ErrorCode code,
                                             std::string message) const {
  const auto body = serve::encode_response(
      serve::Response{serve::ErrorResponse{code, std::move(message), 0}});
  return serve::encode_frame(config_.key, FrameKind::kResponse, request_id,
                             body);
}

void Relay::send_all(Relay* self, std::vector<Outgoing>& out) {
  for (Outgoing& o : out) {
    if (o.action) {
      o.action();
    } else if (o.to) {
      o.to->deliver(self, o.frame);
    }
  }
  out.clear();
}

Relay::Peer* Relay::find_peer(Relay* remote) {
  for (Peer& p : peers_) {
    if (p.remote == remote) return &p;
  }
  return nullptr;
}

void Relay::note_seen_forward(std::uint64_t forward_id) {
  seen_forwards_.insert(forward_id);
  seen_order_.push_back(forward_id);
  while (seen_order_.size() > config_.seen_forwards) {
    seen_forwards_.erase(seen_order_.front());
    seen_order_.pop_front();
  }
}

// --- handshake ---

std::vector<std::uint8_t> Relay::accept_hello(
    Relay* remote, std::span<const std::uint8_t> frame) {
  Hello hello;
  try {
    // Handshake frames are decoded at the structural maximum: version
    // *negotiation* rides in the Hello payload, so even a pinned relay
    // can read the offer and refuse it in a well-formed Reject.
    const serve::Frame f = serve::decode_frame(config_.key, frame);
    if (f.kind != FrameKind::kMesh) throw ProtocolError("mesh: not a mesh frame");
    auto message = decode_mesh(f.payload);
    auto* h = std::get_if<Hello>(&message);
    if (!h) throw ProtocolError("mesh: expected hello");
    hello = std::move(*h);
  } catch (const ProtocolError&) {
    std::lock_guard lk(mu_);
    ++frames_sent_;
    return mesh_frame(MeshMessage{
        Reject{ErrorCode::kBadRequest, "peer authentication failed"}});
  }
  if (hello.node_id == config_.node_id) {
    std::lock_guard lk(mu_);
    ++frames_sent_;
    return mesh_frame(
        MeshMessage{Reject{ErrorCode::kBadRequest, "duplicate node id"}});
  }
  const std::uint8_t version = std::min(hello.version_max, config_.version_max);
  const std::uint8_t floor = std::max(
      {hello.version_min, config_.version_min, serve::kMeshProtocolVersion});
  if (version < floor) {
    obs::FlightRecorder::global().record(
        obs::FrEvent::kPeerRejected,
        static_cast<std::uint16_t>(ErrorCode::kVersionMismatch),
        hello.node_id);
    std::lock_guard lk(mu_);
    ++frames_sent_;
    return mesh_frame(MeshMessage{Reject{
        ErrorCode::kVersionMismatch,
        "no shared protocol version at or above the mesh floor"}});
  }
  Welcome welcome;
  {
    std::lock_guard lk(mu_);
    Peer* p = find_peer(remote);
    if (!p) {
      peers_.emplace_back();
      p = &peers_.back();
    }
    p->remote = remote;
    p->node_id = hello.node_id;
    p->name = hello.name;
    p->version = version;
    p->has_feed = hello.has_feed;
    welcome =
        Welcome{config_.node_id, config_.name, version, has_feed_locked()};
    ++frames_sent_;
  }
  obs::FlightRecorder::global().record(obs::FrEvent::kPeerConnected, 0,
                                       hello.node_id, version);
  return mesh_frame(MeshMessage{welcome});
}

void Relay::finish_connect(Relay* remote, const Welcome& welcome) {
  {
    std::lock_guard lk(mu_);
    Peer* p = find_peer(remote);
    if (!p) {
      peers_.emplace_back();
      p = &peers_.back();
    }
    p->remote = remote;
    p->node_id = welcome.node_id;
    p->name = welcome.name;
    p->version = welcome.version;
    p->has_feed = welcome.has_feed;
  }
  obs::FlightRecorder::global().record(obs::FrEvent::kPeerConnected, 0,
                                       welcome.node_id, welcome.version);
}

void Relay::maybe_subscribe_to(Relay* remote) {
  std::vector<std::uint8_t> frame;
  {
    std::lock_guard lk(mu_);
    Peer* p = find_peer(remote);
    if (!p || !p->has_feed) return;
    if (publisher_attached_ || upstream_active_) return;
    upstream_node_ = p->node_id;
    upstream_active_ = true;
    if (upstream_sub_id_ == 0) upstream_sub_id_ = next_sub_++;
    // Resume from our cursor when we have one — the reconnection path.
    Subscribe sub{upstream_sub_id_, 0, 0, {}, feed_started_, latest_};
    frame = mesh_frame(MeshMessage{std::move(sub)});
    ++frames_sent_;
  }
  remote->deliver(this, frame);
}

void Relay::drop_peer(Relay* remote) {
  std::uint64_t gone = 0;
  {
    std::lock_guard lk(mu_);
    auto it = std::find_if(peers_.begin(), peers_.end(),
                           [remote](const Peer& p) { return p.remote == remote; });
    if (it == peers_.end()) return;
    gone = it->node_id;
    peers_.erase(it);
    std::erase_if(subs_,
                  [remote](const Subscription& s) { return s.peer == remote; });
    if (upstream_active_ && upstream_node_ == gone) upstream_active_ = false;
  }
  obs::FlightRecorder::global().record(obs::FrEvent::kPeerDisconnected, 0,
                                       gone);
}

ConnectResult connect(Relay& a, Relay& b) {
  if (&a == &b || a.node_id() == b.node_id()) {
    return {false, ErrorCode::kBadRequest, "cannot peer with self", 0};
  }
  Hello hello;
  {
    std::lock_guard lk(a.mu_);
    if (Relay::Peer* existing = a.find_peer(&b)) {
      return {true, ErrorCode::kBadRequest, "already connected",
              existing->version};
    }
    hello = Hello{a.config_.node_id, a.config_.name, a.config_.version_min,
                  a.config_.version_max, a.has_feed_locked()};
    ++a.frames_sent_;
  }
  const auto response = b.accept_hello(&a, a.mesh_frame(MeshMessage{hello}));
  try {
    const serve::Frame f = serve::decode_frame(a.config_.key, response);
    auto message = decode_mesh(f.payload);
    if (auto* reject = std::get_if<Reject>(&message)) {
      obs::FlightRecorder::global().record(
          obs::FrEvent::kPeerRejected,
          static_cast<std::uint16_t>(reject->code), b.node_id());
      return {false, reject->code, reject->message, 0};
    }
    auto* welcome = std::get_if<Welcome>(&message);
    if (!welcome) throw ProtocolError("mesh: expected welcome");
    a.finish_connect(&b, *welcome);
    // Feed auto-subscription: whichever side lacks a feed follows the
    // other. Ordered after both registrations so the Subscribe frame is
    // deliverable in either direction.
    a.maybe_subscribe_to(&b);
    b.maybe_subscribe_to(&a);
    return {true, ErrorCode::kBadRequest, "", welcome->version};
  } catch (const ProtocolError&) {
    return {false, ErrorCode::kBadRequest, "peer authentication failed", 0};
  }
}

void disconnect(Relay& a, Relay& b) {
  a.drop_peer(&b);
  b.drop_peer(&a);
}

// --- delivery & dispatch ---

bool Relay::deliver(Relay* from, std::span<const std::uint8_t> frame) {
  serve::Frame f;
  try {
    f = serve::decode_frame(config_.key, frame, config_.version_max);
  } catch (const ProtocolError&) {
    return false;
  }
  if (f.kind != FrameKind::kMesh) return false;
  MeshMessage message;
  try {
    message = decode_mesh(f.payload);
  } catch (const ProtocolError&) {
    return false;
  }
  std::vector<Outgoing> out;
  bool ok = true;
  {
    std::lock_guard lk(mu_);
    Peer* peer = find_peer(from);
    if (!peer) return false;  // stale frame after disconnect
    std::visit(
        [&](auto& m) {
          using T = std::decay_t<decltype(m)>;
          if constexpr (std::is_same_v<T, Forward>) {
            handle_forward(*peer, std::move(m), out);
          } else if constexpr (std::is_same_v<T, ForwardReply>) {
            handle_forward_reply(std::move(m), out);
          } else if constexpr (std::is_same_v<T, Subscribe>) {
            handle_subscribe(*peer, std::move(m), out);
          } else if constexpr (std::is_same_v<T, DeltaChunk>) {
            ok = handle_delta(*peer, std::move(m));
          } else if constexpr (std::is_same_v<T, SubAck>) {
            if (!m.ok && upstream_active_ &&
                peer->node_id == upstream_node_) {
              upstream_active_ = false;  // publisher refused the resume
            }
          } else if constexpr (std::is_same_v<T, DeltaAck>) {
            // Acks are the synchronous deliver() return value in this
            // transport; a wire ack is accepted but redundant.
          } else {
            ok = false;  // handshake messages are out-of-band
          }
        },
        message);
  }
  send_all(this, out);
  return ok;
}

void Relay::handle_forward(Peer& from, Forward fwd,
                           std::vector<Outgoing>& out) {
  ++forwards_seen_;
  ++from.forwards_received;
  if (seen_forwards_.contains(fwd.forward_id)) {
    ++forward_dups_suppressed_;
    return;
  }
  note_seen_forward(fwd.forward_id);
  forwards_counter_->add();
  obs::FlightRecorder::global().record(obs::FrEvent::kForwarded, 0,
                                       fwd.forward_id, fwd.hops_left);
  if (server_) {
    // Answer from the co-located server (cache or archive) off-lock and
    // reply straight to whoever handed us the forward.
    ++forwards_answered_;
    ++frames_sent_;
    Relay* back = from.remote;
    out.push_back(Outgoing{
        nullptr,
        {},
        [this, back, id = fwd.forward_id, request = std::move(fwd.request)] {
          auto body = answer_locally(request);
          back->deliver(this, mesh_frame(MeshMessage{
                                  ForwardReply{id, std::move(body)}}));
        }});
    return;
  }
  if (fwd.hops_left == 0) return;  // dead end; the origin times out
  forward_routes_[fwd.forward_id] = from.remote;
  Forward next = std::move(fwd);
  --next.hops_left;
  const auto frame = mesh_frame(MeshMessage{std::move(next)});
  for (Peer& p : peers_) {
    if (p.remote == from.remote) continue;
    ++p.forwards_sent;
    ++frames_sent_;
    out.push_back(Outgoing{p.remote, frame, {}});
  }
}

void Relay::handle_forward_reply(ForwardReply reply,
                                 std::vector<Outgoing>& out) {
  if (auto it = pending_.find(reply.forward_id); it != pending_.end()) {
    // First reply wins; the waiter is detached so later replies are
    // recognizably stale.
    auto waiter = it->second;
    pending_.erase(it);
    out.push_back(Outgoing{
        nullptr, {}, [waiter, response = std::move(reply.response)] {
          std::lock_guard wl(waiter->mu);
          waiter->done = true;
          waiter->response = response;
          waiter->cv.notify_all();
        }});
    return;
  }
  if (auto it = forward_routes_.find(reply.forward_id);
      it != forward_routes_.end()) {
    Relay* back = it->second;
    forward_routes_.erase(it);
    if (find_peer(back)) {
      ++frames_sent_;
      out.push_back(
          Outgoing{back, mesh_frame(MeshMessage{std::move(reply)}), {}});
    }
  }
  // Otherwise stale: a reply already went back along this route.
}

std::vector<std::uint8_t> Relay::answer_locally(
    const std::vector<std::uint8_t>& canonical) {
  auto frame =
      serve::encode_frame(config_.key, FrameKind::kRequest, 0, canonical);
  const auto response = conn_->call(std::move(frame));
  try {
    return serve::decode_frame(config_.key, response).payload;
  } catch (const ProtocolError&) {
    return serve::encode_response(serve::Response{serve::ErrorResponse{
        ErrorCode::kBadRequest, "relay could not decode local answer", 0}});
  }
}

std::vector<std::uint8_t> Relay::query(std::span<const std::uint8_t> frame) {
  serve::Frame f;
  try {
    f = serve::decode_frame(config_.key, frame);
  } catch (const ProtocolError&) {
    return error_frame(0, ErrorCode::kBadRequest, "bad request frame");
  }
  if (f.kind != FrameKind::kRequest) {
    return error_frame(f.request_id, ErrorCode::kBadRequest,
                       "not a request frame");
  }
  try {
    (void)serve::decode_request(f.payload);
  } catch (const ProtocolError&) {
    return error_frame(f.request_id, ErrorCode::kBadRequest,
                       "malformed request body");
  }
  if (server_) {
    return conn_->call(std::vector<std::uint8_t>(frame.begin(), frame.end()));
  }
  std::shared_ptr<ForwardWaiter> waiter;
  std::vector<Outgoing> out;
  std::uint64_t forward_id = 0;
  {
    std::lock_guard lk(mu_);
    if (peers_.empty()) {
      return error_frame(f.request_id, ErrorCode::kUnreachable,
                         "no peers connected");
    }
    forward_id =
        (config_.node_id << 48) | (next_forward_++ & 0xffffffffffffULL);
    note_seen_forward(forward_id);  // our own flood may cycle back
    waiter = std::make_shared<ForwardWaiter>();
    pending_[forward_id] = waiter;
    const Forward fwd{forward_id, config_.node_id, config_.hop_limit,
                      f.payload};
    const auto mesh = mesh_frame(MeshMessage{fwd});
    for (Peer& p : peers_) {
      ++p.forwards_sent;
      ++frames_sent_;
      out.push_back(Outgoing{p.remote, mesh, {}});
    }
    forwards_counter_->add();
    obs::FlightRecorder::global().record(obs::FrEvent::kForwarded, 0,
                                         forward_id, config_.hop_limit);
  }
  send_all(this, out);
  std::unique_lock wl(waiter->mu);
  const bool answered = waiter->cv.wait_for(wl, config_.forward_timeout,
                                            [&] { return waiter->done; });
  if (!answered) {
    std::lock_guard lk(mu_);
    pending_.erase(forward_id);
    return error_frame(f.request_id, ErrorCode::kUnreachable,
                       "no relay in reach answered");
  }
  return serve::encode_frame(config_.key, FrameKind::kResponse, f.request_id,
                             waiter->response);
}

// --- pub/sub ---

void Relay::append_log(DeltaChunk chunk) {
  delta_log_.push_back(std::move(chunk));
  while (delta_log_.size() > config_.delta_log_chunks) {
    delta_log_.pop_front();
    log_complete_ = false;
  }
}

void Relay::push_to(Subscription& sub, const DeltaChunk& chunk) {
  const Cursor c{chunk.day, chunk.seq};
  if (sub.started && c <= sub.acked) return;  // already delivered
  // Only a family or prefix filter needs a filtered copy of the rows.
  const bool unfiltered = sub.spec.family == 0 && sub.spec.prefixes.empty();
  DeltaChunk copy;
  if (!unfiltered) {
    copy = filter_chunk(chunk, sub.spec.family, sub.spec.prefixes);
  }
  const DeltaChunk& filtered = unfiltered ? chunk : copy;
  ++sub.chunks_pushed;
  ++deltas_forwarded_;
  pushed_counter_->add();
  obs::FlightRecorder::global().record(obs::FrEvent::kDeltaPushed, 0,
                                       chunk.day, chunk.seq);
  bool delivered = true;
  if (sub.peer != nullptr) {
    Peer* p = find_peer(sub.peer);
    ++frames_sent_;
    if (p) ++p->deltas_sent;
    delivered = sub.peer->deliver(this, mesh_frame(filtered));
  } else if (sub.sink) {
    sub.sink(filtered);
  }
  if (delivered) {
    // In-process delivery is the ack: the subscriber applied the chunk
    // before deliver() returned, so the cursor advances durably.
    sub.started = true;
    sub.acked = c;
  } else {
    ++sub.chunks_dropped;
    ++deltas_dropped_;
    dropped_counter_->add();
    obs::FlightRecorder::global().record(obs::FrEvent::kDeltaDropped, 0,
                                         sub.id);
  }
}

void Relay::push_chunk(const DeltaChunk& chunk) {
  // Priority classes flush high-priority subscribers first; ties break by
  // subscription id so the order is total and deterministic.
  std::vector<std::size_t> order(subs_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [this](std::size_t x, std::size_t y) {
    if (subs_[x].spec.priority != subs_[y].spec.priority) {
      return subs_[x].spec.priority > subs_[y].spec.priority;
    }
    return subs_[x].id < subs_[y].id;
  });
  for (const std::size_t i : order) push_to(subs_[i], chunk);
}

bool Relay::replay_to(Subscription& sub) {
  if (!feed_started_) return true;  // nothing to replay yet
  const bool have_cursor = sub.started;
  const Cursor cursor = sub.acked;  // meaningful only when have_cursor
  if (have_cursor && !(cursor < latest_)) return true;  // already caught up
  bool log_covers = log_complete_;
  if (!log_covers && have_cursor && !delta_log_.empty()) {
    const Cursor front{delta_log_.front().day, delta_log_.front().seq};
    log_covers = front <= cursor;
  }
  if (log_covers) {
    for (const DeltaChunk& chunk : delta_log_) push_to(sub, chunk);
    return true;
  }
  if (archive_dir_.empty()) return false;  // pure relay, log evicted
  // Origin fallback: recompute the feed from the archive itself. Runs
  // under mu_ — subscription replay serializes against publishing, which
  // is exactly what keeps the subscriber's chunk order exact. Each day is
  // rendered once and is the next day's diff base.
  store::ArchiveReader reader(archive_dir_, 1);
  const auto& entries = reader.manifest().entries;
  const auto done = [&](std::uint32_t day) {
    return have_cursor && (day < cursor.day || (day == cursor.day &&
                                                cursor.seq == kDayDone));
  };
  std::size_t i = 0;
  while (i < entries.size() && done(entries[i].day)) ++i;
  std::optional<census::Publication> prev;
  if (i > 0) {
    prev = census::render_publication(*reader.load_day(entries[i - 1].day));
  }
  for (; i < entries.size(); ++i) {
    census::Publication cur =
        census::render_publication(*reader.load_day(entries[i].day));
    const auto chunks =
        chunk_delta(store::compute_day_delta(prev ? &*prev : nullptr, cur),
                    config_.max_rows_per_chunk);
    for (const DeltaChunk& chunk : chunks) push_to(sub, chunk);
    prev = std::move(cur);
  }
  return true;
}

void Relay::handle_subscribe(Peer& from, Subscribe sub,
                             std::vector<Outgoing>& out) {
  const auto ack = [&](bool ok, std::string message) {
    ++frames_sent_;
    out.push_back(Outgoing{from.remote,
                           mesh_frame(MeshMessage{SubAck{
                               sub.subscription_id, ok, std::move(message)}}),
                           {}});
  };
  if (upstream_active_ && from.node_id == upstream_node_) {
    // Our own upstream subscribing to us would close a feed cycle (and a
    // lock cycle with it) — the subscription graph must stay a tree.
    ack(false, "subscription loop refused");
    return;
  }
  Subscription* s = nullptr;
  for (Subscription& existing : subs_) {
    if (existing.peer == from.remote &&
        existing.id == sub.subscription_id) {
      s = &existing;
      break;
    }
  }
  if (s == nullptr) {
    subs_.emplace_back();
    s = &subs_.back();
    s->id = sub.subscription_id;
    s->peer = from.remote;
  }
  s->subscriber = from.name;
  s->spec = SubscriptionSpec{sub.family, sub.priority, std::move(sub.prefixes)};
  s->started = sub.resume;
  if (sub.resume) s->acked = sub.cursor;
  if (replay_to(*s)) {
    ack(true, "");
  } else {
    ack(false, "cursor predates the delta log");
    std::erase_if(subs_, [&](const Subscription& x) {
      return x.peer == from.remote && x.id == sub.subscription_id;
    });
  }
}

bool Relay::handle_delta(Peer& from, DeltaChunk chunk) {
  ++from.deltas_received;
  const Cursor c{chunk.day, chunk.seq};
  if (feed_started_ && c <= latest_) {
    // At-or-below our cursor: a replay overlap. Returning true acks it so
    // the upstream cursor still advances.
    ++duplicate_deltas_;
    return true;
  }
  feed_started_ = true;
  latest_ = c;
  push_chunk(chunk);  // fan through to our own subscribers
  const bool last = chunk.last;
  append_log(std::move(chunk));
  if (last && server_ != nullptr) {
    // A completed day changes every longitudinal answer and un-falsifies
    // cached unknown-day errors.
    server_->cache_mut().clear();
  }
  return true;
}

void Relay::publish(census::Publication publication) {
  // Diff outside the lock: diff_base_ is only ever touched by the (single)
  // appending thread, per ArchiveWriter's append discipline.
  store::DayDelta delta = store::compute_day_delta(
      diff_base_ ? &*diff_base_ : nullptr, publication);
  diff_base_ = std::move(publication);
  auto chunks = chunk_delta(std::move(delta), config_.max_rows_per_chunk);
  std::lock_guard lk(mu_);
  for (DeltaChunk& chunk : chunks) {
    feed_started_ = true;
    latest_ = Cursor{chunk.day, chunk.seq};
    ++deltas_published_;
    published_counter_->add();
    obs::FlightRecorder::global().record(obs::FrEvent::kDeltaPublished, 0,
                                         chunk.day, chunk.seq);
    // Subscribers never call back into this relay, so pushing before
    // logging is the same as logging first, and the log keeps the chunk.
    push_chunk(chunk);
    append_log(std::move(chunk));
  }
  if (server_ != nullptr) server_->cache_mut().clear();
}

std::uint64_t Relay::subscribe_local(
    const SubscriptionSpec& spec, std::function<void(const DeltaChunk&)> sink,
    std::optional<Cursor> cursor) {
  std::lock_guard lk(mu_);
  subs_.emplace_back();
  Subscription& s = subs_.back();
  s.id = next_sub_++;
  s.subscriber = "local";
  s.spec = spec;
  s.sink = std::move(sink);
  if (cursor) {
    s.started = true;
    s.acked = *cursor;
  }
  replay_to(s);
  return s.id;
}

void Relay::unsubscribe_local(std::uint64_t subscription_id) {
  std::lock_guard lk(mu_);
  std::erase_if(subs_, [subscription_id](const Subscription& s) {
    return s.peer == nullptr && s.id == subscription_id;
  });
}

// --- introspection ---

bool Relay::has_feed() const {
  std::lock_guard lk(mu_);
  return publisher_attached_ || upstream_active_;
}

Cursor Relay::feed_cursor() const {
  std::lock_guard lk(mu_);
  return latest_;
}

std::uint64_t Relay::frames_sent() const {
  std::lock_guard lk(mu_);
  return frames_sent_;
}

serve::MeshStatsResponse Relay::stats() const {
  std::lock_guard lk(mu_);
  serve::MeshStatsResponse s;
  s.node_id = config_.node_id;
  s.name = config_.name;
  if (feed_started_) {
    s.feed_day = latest_.day;
    s.feed_seq = latest_.seq == kDayDone ? 0 : latest_.seq;
  }
  s.deltas_published = deltas_published_;
  s.deltas_forwarded = deltas_forwarded_;
  s.deltas_dropped = deltas_dropped_;
  s.duplicate_deltas = duplicate_deltas_;
  s.forwards_seen = forwards_seen_;
  s.forward_dups_suppressed = forward_dups_suppressed_;
  s.forwards_answered = forwards_answered_;
  s.negative_cache_hits = server_ != nullptr ? server_->cache().negative_hits() : 0;
  for (const Peer& p : peers_) {
    serve::MeshPeerInfo info;
    info.node_id = p.node_id;
    info.name = p.name;
    info.version = p.version;
    info.forwards_sent = p.forwards_sent;
    info.forwards_received = p.forwards_received;
    info.deltas_sent = p.deltas_sent;
    info.deltas_received = p.deltas_received;
    s.peers.push_back(std::move(info));
  }
  for (const Subscription& sub : subs_) {
    serve::MeshSubscriptionInfo info;
    info.id = sub.id;
    info.subscriber = sub.subscriber;
    info.family = sub.spec.family;
    info.priority = sub.spec.priority;
    info.prefix_count = static_cast<std::uint32_t>(sub.spec.prefixes.size());
    if (sub.started) {
      info.acked_day = sub.acked.day;
      info.acked_seq = sub.acked.seq == kDayDone ? 0 : sub.acked.seq;
    }
    if (feed_started_) {
      const std::uint32_t base = sub.started ? sub.acked.day : 0;
      info.lag_days = latest_.day > base ? latest_.day - base : 0;
    }
    info.chunks_pushed = sub.chunks_pushed;
    info.chunks_dropped = sub.chunks_dropped;
    s.subscriptions.push_back(std::move(info));
  }
  return s;
}

// --- CensusFollower ---

CensusFollower::CensusFollower(Relay& relay, SubscriptionSpec spec)
    : relay_(relay) {
  sub_id_ = relay_.subscribe_local(spec, [this](const DeltaChunk& chunk) {
    std::lock_guard lk(mu_);
    const Cursor c{chunk.day, chunk.seq};
    if (started_ && c <= cursor_) return;  // replay overlap
    started_ = true;
    cursor_ = c;
    follower_.apply(to_delta(chunk));
    if (chunk.last) days_[chunk.day] = follower_.render();
  });
}

CensusFollower::~CensusFollower() { relay_.unsubscribe_local(sub_id_); }

bool CensusFollower::has_day(std::uint32_t day) const {
  std::lock_guard lk(mu_);
  return days_.contains(day);
}

std::string CensusFollower::day_csv(std::uint32_t day) const {
  std::lock_guard lk(mu_);
  return days_.at(day);
}

std::string CensusFollower::day_json(std::uint32_t day) const {
  return serve::json_response(
      serve::Response{serve::ExportDayResponse{day, day_csv(day)}});
}

std::size_t CensusFollower::days() const {
  std::lock_guard lk(mu_);
  return days_.size();
}

Cursor CensusFollower::cursor() const {
  std::lock_guard lk(mu_);
  return cursor_;
}

}  // namespace laces::mesh

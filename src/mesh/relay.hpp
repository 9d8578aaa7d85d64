// Relay: one node of the peered census mesh.
//
// A relay speaks the authenticated mesh plane (mesh/wire.hpp) to its
// peers and the v1 data plane to clients. Three roles compose in one
// class, each optional:
//
//   origin      attach_publisher() hangs the relay off an ArchiveWriter's
//               day-commit hook: every committed day is diffed against the
//               previous one (store::compute_day_delta), chunked, and
//               pushed to subscribers. The origin replays arbitrarily old
//               cursors from the archive itself.
//   server      a co-located serve::Server answers forwarded queries from
//               its cache or archive, and the relay registers itself as
//               the server's MeshStats provider. Day commits clear the
//               server's response cache (positive and negative) — a new
//               day changes summary/stability answers and un-falsifies
//               cached unknown-day errors.
//   relay       everything else: forwards client queries into the mesh
//               (flood + hop limit + seen-id dedup, first reply wins),
//               re-publishes its upstream feed to downstream subscribers
//               from a bounded in-memory delta log, and keeps per-peer /
//               per-subscription counters for `laces stat`.
//
// Transport is in-process: peers hold pointers to each other and deliver
// signed frames by direct call. Two delivery disciplines coexist:
//
//   deltas      flow *synchronously down the subscription tree*: a push
//               calls the subscriber's deliver() while holding the
//               pusher's lock, so every subscriber sees its feed in exact
//               (day, seq) order and a true return IS the ack (the
//               publisher advances the subscription cursor on it — no
//               ack frame can be lost or reordered). The lock chain
//               follows tree edges parent -> child only; subscription
//               edges MUST form a tree (a relay keeps a single upstream,
//               and a Subscribe from one's own upstream is refused), or
//               the chain would deadlock.
//   everything  else (forwards, replies, handshake, SubAck) goes through
//               an outbox: lock, mutate, build outbox, unlock, send — a
//               relay never calls a peer while holding its own mutex, so
//               arbitrary (cyclic) forwarding topologies are safe.
//
// Feed invariants the tests pin:
//   - a subscriber that joined at day 0 and applied every chunk renders
//     any completed day byte-identically to census::write_census;
//   - disconnect/reconnect resumes from the subscriber's cursor with no
//     duplicate and no lost chunk (dedup is (day, seq) <= latest);
//   - on a cyclic mesh every forwarded request is answered exactly once
//     and total forwarded frames stay bounded by hop_limit x links.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "mesh/wire.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "store/archive.hpp"
#include "store/delta.hpp"

namespace laces::mesh {

struct RelayConfig {
  /// Mesh-unique node id; also the high bits of forward ids.
  std::uint64_t node_id = 1;
  std::string name = "relay";
  /// HMAC key for both planes; peers and clients must share it.
  std::string key = "laces-serve";
  /// Advertised protocol range. Pinning version_max below
  /// kMeshProtocolVersion makes every handshake fail with a typed
  /// kVersionMismatch — the version-skew regime in relay form.
  std::uint8_t version_min = serve::kProtocolVersionMin;
  std::uint8_t version_max = serve::kProtocolVersionMax;
  /// Forward flood radius. Each relay re-floods a given forward id at
  /// most once (seen-id dedup), so forwarded frames stay bounded by
  /// hop_limit x links regardless of cycles.
  std::uint8_t hop_limit = 4;
  /// Rows (upserts + removals) per delta chunk.
  std::size_t max_rows_per_chunk = 2048;
  /// Bounded replay log (chunks). A cursor older than the log resorts to
  /// the archive (origin) or a failed SubAck (pure relay).
  std::size_t delta_log_chunks = 4096;
  /// Bounded seen-forward-id dedup window.
  std::size_t seen_forwards = 4096;
  /// How long a forwarded query waits for the mesh before kUnreachable.
  std::chrono::milliseconds forward_timeout{250};
};

/// Handshake outcome of connect().
struct ConnectResult {
  bool ok = false;
  serve::ErrorCode code = serve::ErrorCode::kBadRequest;
  std::string message;
  std::uint8_t version = 0;  // negotiated frame version when ok
};

/// Local subscription filter (the in-process form of wire::Subscribe).
struct SubscriptionSpec {
  std::uint8_t family = 0;  // 0 = both, 4, 6
  std::uint8_t priority = 0;
  std::vector<net::Prefix> prefixes;  // empty = all
};

class Relay {
 public:
  /// `server` (nullable) answers queries locally; `archive_dir` (empty =
  /// none) enables archive replay for cursors older than the delta log.
  Relay(RelayConfig config, serve::Server* server = nullptr,
        std::filesystem::path archive_dir = {});
  ~Relay();

  Relay(const Relay&) = delete;
  Relay& operator=(const Relay&) = delete;

  /// Makes this relay the feed origin: every ArchiveWriter::append()
  /// publishes the day's delta to subscribers. Call before connecting
  /// peers (feed advertisement rides the handshake). The hook runs on
  /// the appending thread.
  void attach_publisher(store::ArchiveWriter& writer);

  /// Client entry point: a signed request frame in, a signed response
  /// frame out. Answered by the co-located server when there is one,
  /// otherwise forwarded into the mesh; no peer in reach -> a typed
  /// kUnreachable error frame (immediately when this relay has no peers,
  /// after forward_timeout otherwise).
  std::vector<std::uint8_t> query(std::span<const std::uint8_t> frame);

  /// Registers an in-process subscriber. `sink` is invoked under the
  /// relay lock (it must not call back into any Relay) for every
  /// filtered chunk, in exact feed order; with a cursor, chunks at or
  /// before it are skipped, without one the feed replays from its
  /// beginning. Returns the subscription id.
  std::uint64_t subscribe_local(const SubscriptionSpec& spec,
                                std::function<void(const DeltaChunk&)> sink,
                                std::optional<Cursor> cursor = std::nullopt);
  void unsubscribe_local(std::uint64_t subscription_id);

  /// Live per-peer / per-subscription snapshot (the MeshStatsResponse a
  /// co-located server answers in-band). Thread-safe.
  serve::MeshStatsResponse stats() const;

  const RelayConfig& config() const { return config_; }
  std::uint64_t node_id() const { return config_.node_id; }
  const std::string& name() const { return config_.name; }

  /// True when this relay originates or relays a delta feed.
  bool has_feed() const;
  /// Newest feed position this relay has applied (meaningless until the
  /// first chunk).
  Cursor feed_cursor() const;
  /// Total kMesh frames this relay has sent (the loop-suppression bound
  /// in test_mesh_relay counts these).
  std::uint64_t frames_sent() const;

  /// Peer-to-peer transport: `from` delivered one signed frame. Returns
  /// false when the frame was dropped (unknown peer, undecodable).
  /// Public only because peers call it; not an API for clients.
  bool deliver(Relay* from, std::span<const std::uint8_t> frame);

  friend ConnectResult connect(Relay& a, Relay& b);
  friend void disconnect(Relay& a, Relay& b);

 private:
  struct Peer {
    Relay* remote = nullptr;
    std::uint64_t node_id = 0;
    std::string name;
    std::uint8_t version = 0;
    bool has_feed = false;
    std::uint64_t forwards_sent = 0;
    std::uint64_t forwards_received = 0;
    std::uint64_t deltas_sent = 0;
    std::uint64_t deltas_received = 0;
  };

  struct Subscription {
    std::uint64_t id = 0;
    Relay* peer = nullptr;  // nullptr = local sink
    std::string subscriber;
    SubscriptionSpec spec;
    bool started = false;  // acked is meaningful
    Cursor acked;
    std::uint64_t chunks_pushed = 0;
    std::uint64_t chunks_dropped = 0;
    std::function<void(const DeltaChunk&)> sink;
  };

  /// A deferred delivery (forwards, replies, handshake follow-ups) sent
  /// after the relay lock is released.
  struct Outgoing {
    Relay* to = nullptr;
    std::vector<std::uint8_t> frame;
    /// Runs instead of a peer delivery (waiter wakeups, local answers).
    std::function<void()> action;
  };

  struct ForwardWaiter {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    std::vector<std::uint8_t> response;  // canonical response body
  };

  /// Handshake acceptor (responder side). Returns the encoded Welcome or
  /// Reject frame.
  std::vector<std::uint8_t> accept_hello(Relay* remote,
                                         std::span<const std::uint8_t> frame);
  void finish_connect(Relay* remote, const Welcome& welcome);
  /// Subscribes to `remote`'s feed if we lack one (initial connect and
  /// reconnection resume share this path).
  void maybe_subscribe_to(Relay* remote);
  void drop_peer(Relay* remote);

  /// Message handlers; run with mu_ held, defer sends into `out` (delta
  /// pushes descend synchronously instead — see the header comment).
  void handle_forward(Peer& from, Forward fwd, std::vector<Outgoing>& out);
  void handle_forward_reply(ForwardReply reply, std::vector<Outgoing>& out);
  void handle_subscribe(Peer& from, Subscribe sub, std::vector<Outgoing>& out);
  /// Returns false only on a day-order violation (never expected over a
  /// tree); duplicates return true so the pusher's cursor advances.
  bool handle_delta(Peer& from, DeltaChunk chunk);

  /// Commit-hook body: diff against the previous day, chunk, fan out, log.
  void publish(census::Publication publication);
  /// Fans one chunk to every subscription (priority desc, id asc) with
  /// per-subscription filtering; synchronous, mu_ held.
  void push_chunk(const DeltaChunk& chunk);
  /// Pushes chunks after `sub.acked` (or the whole feed) to one
  /// subscription, from the log or (origin) the archive; synchronous,
  /// mu_ held. Returns false when the cursor predates both.
  bool replay_to(Subscription& sub);
  /// One filtered chunk to one subscription; synchronous, mu_ held.
  void push_to(Subscription& sub, const DeltaChunk& chunk);
  void append_log(DeltaChunk chunk);

  /// Answers a forwarded canonical request body via the local server.
  std::vector<std::uint8_t> answer_locally(
      const std::vector<std::uint8_t>& canonical);

  std::vector<std::uint8_t> mesh_frame(const MeshMessage& message,
                                       std::uint64_t request_id = 0) const;
  /// A delta frame encoded straight from the chunk.
  std::vector<std::uint8_t> mesh_frame(const DeltaChunk& chunk) const;
  std::vector<std::uint8_t> error_frame(std::uint64_t request_id,
                                        serve::ErrorCode code,
                                        std::string message) const;
  static void send_all(Relay* self, std::vector<Outgoing>& out);
  void note_seen_forward(std::uint64_t forward_id);
  Peer* find_peer(Relay* remote);
  bool has_feed_locked() const {
    return publisher_attached_ || upstream_active_;
  }

  RelayConfig config_;
  serve::Server* server_;
  std::filesystem::path archive_dir_;
  std::shared_ptr<serve::Connection> conn_;  // local server handle

  mutable std::mutex mu_;
  std::vector<Peer> peers_;
  std::vector<Subscription> subs_;

  // Feed state.
  bool publisher_attached_ = false;
  bool feed_started_ = false;  // latest_ is meaningful
  Cursor latest_;              // newest applied/published position
  std::deque<DeltaChunk> delta_log_;  // bounded replay window
  bool log_complete_ = true;   // log still holds the feed from its start
  /// Origin diff base: the last committed day's publication.
  std::optional<census::Publication> diff_base_;
  std::uint64_t upstream_node_ = 0;  // whom we subscribe to (0 = nobody yet)
  bool upstream_active_ = false;
  std::uint64_t upstream_sub_id_ = 0;

  // Forwarding state.
  std::uint64_t next_forward_ = 1;
  std::uint64_t next_sub_ = 1;
  std::unordered_set<std::uint64_t> seen_forwards_;
  std::deque<std::uint64_t> seen_order_;
  std::map<std::uint64_t, std::shared_ptr<ForwardWaiter>> pending_;
  std::map<std::uint64_t, Relay*> forward_routes_;  // id -> origin-ward peer

  // Counters (mirrored into MeshStatsResponse).
  std::uint64_t deltas_published_ = 0;
  std::uint64_t deltas_forwarded_ = 0;
  std::uint64_t deltas_dropped_ = 0;
  std::uint64_t duplicate_deltas_ = 0;
  std::uint64_t forwards_seen_ = 0;
  std::uint64_t forward_dups_suppressed_ = 0;
  std::uint64_t forwards_answered_ = 0;
  std::uint64_t frames_sent_ = 0;

  obs::Counter* published_counter_ = nullptr;
  obs::Counter* pushed_counter_ = nullptr;
  obs::Counter* dropped_counter_ = nullptr;
  obs::Counter* forwards_counter_ = nullptr;
};

/// Bidirectional handshake: `a` sends Hello, `b` answers Welcome or a
/// typed Reject (kVersionMismatch when the version ranges don't overlap
/// at or above the mesh floor; kBadRequest when authentication fails).
/// On success each side records the peer, and a feed-less side
/// auto-subscribes to the other's feed — resuming from its cursor when
/// this is a reconnection.
ConnectResult connect(Relay& a, Relay& b);

/// Severs the link (both directions) and drops b's subscriptions at a and
/// vice versa. Subscriber-side cursors survive for resumption.
void disconnect(Relay& a, Relay& b);

/// A leaf subscriber: applies a relay's census feed through a
/// store::DeltaFollower and snapshots every completed day's publication
/// bytes — the mesh-side half of the byte-identity contract.
class CensusFollower {
 public:
  explicit CensusFollower(Relay& relay, SubscriptionSpec spec = {});
  ~CensusFollower();

  bool has_day(std::uint32_t day) const;
  /// Publication CSV of a completed day (throws if unseen).
  std::string day_csv(std::uint32_t day) const;
  /// The day's CSV wrapped exactly like a served ExportDayResponse —
  /// byte-identical to `laces query --json export-day`.
  std::string day_json(std::uint32_t day) const;
  std::size_t days() const;
  Cursor cursor() const;

 private:
  Relay& relay_;
  std::uint64_t sub_id_ = 0;
  mutable std::mutex mu_;
  bool started_ = false;
  Cursor cursor_;
  store::DeltaFollower follower_;
  std::map<std::uint32_t, std::string> days_;
};

}  // namespace laces::mesh

// SimNetwork: packet-level transport over the simulated Internet.
//
// Measurement components attach interfaces (address + physical attach
// point + receive handler) — attaching the *same* address at multiple
// sites is exactly what announcing an anycast prefix does, and the
// catchment selection of RoutingModel decides which site receives any
// given response. Probes to world targets are answered by the target's
// ResponderConfig at whichever PoP the probe lands on.
//
// Every stochastic quantity on a packet's path (loss, jitter, ECMP, flips,
// rate-limit rolls) is a StableHash of packet identity — day, flow hash,
// per-flow counter — never of global event order, so a census day is a
// pure function of (world, day, carried measurement state).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/addr_map.hpp"
#include "net/ip.hpp"
#include "topo/overlay.hpp"
#include "topo/world.hpp"
#include "util/event_queue.hpp"
#include "util/flat_map.hpp"

namespace laces::topo {

struct NetworkConfig {
  /// ICMP rate limiting at targets: responses to probes arriving closer
  /// together than this are dropped with `rate_limit_drop` probability
  /// (why probe offsets matter, paper R3/§5.1.5).
  SimDuration rate_limit_window = SimDuration::millis(5);
  double rate_limit_drop = 0.25;
  /// Uniform packet loss probability (each direction).
  double loss = 0.002;
};

/// One address announced at one physical location with a receive callback.
struct Interface {
  net::IpAddress address;
  AttachPoint attach;
};

class SimNetwork {
 public:
  using RxHandler =
      std::function<void(const net::Datagram& datagram, SimTime rx_time)>;

  SimNetwork(const World& world, EventQueue& events, NetworkConfig config = {});

  /// Announce `addr` at `attach`; responses routed to `addr` whose
  /// catchment selects this site invoke `handler`. Returns an id usable
  /// with detach() (worker-outage simulation, R5).
  std::uint64_t attach(const net::IpAddress& addr, const AttachPoint& attach,
                       RxHandler handler);

  /// Withdraw one interface (BGP withdraw at one site): remaining sites
  /// announcing the same address absorb its catchment.
  void detach(std::uint64_t interface_id);

  /// Inject a datagram into the network at `from`. Typically a probe; the
  /// target's response (if any) is routed and delivered asynchronously.
  void send(const net::Datagram& datagram, const AttachPoint& from);

  /// The census day, gating temporary anycast and daily churn. Routing
  /// caches deliberately persist across days: cached values are pure
  /// functions of the immutable world, so later census days of a
  /// longitudinal run reuse the catchments and delays of earlier ones.
  /// Ephemeral per-packet state (per-flow ECMP and salt counters) does NOT
  /// persist: it restarts at each day change, making a census day a pure
  /// function of (world, day, carried measurement state) — the property
  /// laces_store checkpoint/resume relies on, since a resumed process has
  /// no packet history.
  void set_day(std::uint32_t day) {
    if (day != day_) {
      flow_seq_.clear();
      send_seq_.clear();
    }
    day_ = day;
  }
  std::uint32_t day() const { return day_; }

  /// Install (or clear, with nullptr) the scenario data-plane overlay for
  /// the current day. The overlay must outlive event processing and may
  /// only be swapped while the event queue is not running.
  void set_day_overlay(const DayOverlay* overlay) { overlay_ = overlay; }
  const DayOverlay* day_overlay() const { return overlay_; }

  SimTime now() const { return events_.now(); }
  EventQueue& events() { return events_; }
  const World& world() const { return world_; }

  // --- counters (probing-cost accounting, Table 5) ---
  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t responses_generated() const { return responses_generated_; }
  std::uint64_t deliveries() const { return deliveries_; }

  // --- scenario-overlay counters (run-report "Scenario" section) ---
  std::uint64_t overlay_withdrawn() const { return overlay_withdrawn_; }
  std::uint64_t overlay_path_lost() const { return overlay_path_lost_; }
  std::uint64_t overlay_flips() const { return overlay_flips_; }

 private:
  struct Endpoint {
    std::uint64_t id = 0;
    AttachPoint attach;
    RxHandler handler;
  };
  struct LocalAddress {
    std::vector<Endpoint> endpoints;
    DeploymentId pseudo_id = 0;  // perturbation identity for catchments
    /// Catchment view over `endpoints`, rebuilt on attach/detach so the
    /// per-packet hot path never allocates a transient Deployment.
    Deployment view;
    /// Per-sender ranking memo for `view`, invalidated whenever the
    /// endpoint set changes (owned here, not in RoutingModel, so two
    /// addresses can never alias each other's rankings).
    mutable FlatMap64<RoutingModel::Ranking> catchment;
  };

  static void rebuild_view(LocalAddress& local);
  /// Catchment choice + delivery scheduling for a locally announced
  /// address; the packet leaves toward the VP at now().
  void deliver_local(const LocalAddress& local, const net::Datagram& datagram,
                     const AttachPoint& from, std::uint64_t salt);
  void respond_local(const net::Datagram& datagram, const AttachPoint& from,
                     std::uint64_t salt);
  /// Target-side hop 1: data-plane regimes, ingress PoP choice and serve
  /// scheduling, at the probe's send() time.
  void deliver_to_target(const net::Datagram& datagram,
                         const AttachPoint& from, std::uint64_t flow_hash,
                         std::uint64_t salt);
  /// Target-side hop 2: rate limiting, response crafting, egress, at the
  /// probe's arrival time.
  void target_serve(const net::Datagram& datagram, DeploymentId dep_id,
                    std::size_t ingress_pop, const Target* target,
                    std::uint64_t salt);
  std::uint64_t next_flow_seq(std::uint64_t flow_hash);
  /// Per-packet loss/jitter salt: a stable hash of (day, flow hash,
  /// per-flow send counter) — pure packet identity, no global ordering.
  std::uint64_t next_packet_salt(std::uint64_t flow_hash);
  static std::uint64_t response_salt_of(std::uint64_t probe_salt);
  bool drop_packet(std::uint64_t salt);

  const World& world_;
  EventQueue& events_;
  NetworkConfig config_;
  /// Routing caches: every cached value is a pure function of the
  /// immutable world, so they persist across days.
  RoutingModel::Caches caches_;
  FlatMap64<SimTime> last_arrival_;          // ICMP rate limiting, per target
  FlatMap64<std::uint64_t> chaos_rotation_;  // per (target, pop)
  std::uint32_t day_ = 0;
  std::uint64_t next_interface_id_ = 1;
  net::AddrMap<LocalAddress> local_;
  FlatMap64<net::IpAddress> iface_addr_;  // interface id -> announced addr
  FlatMap64<std::uint64_t> flow_seq_;
  FlatMap64<std::uint64_t> send_seq_;  // per-flow salt counter
  std::uint64_t packets_sent_ = 0;
  std::uint64_t deliveries_ = 0;
  std::uint64_t responses_generated_ = 0;
  const DayOverlay* overlay_ = nullptr;
  std::uint64_t overlay_withdrawn_ = 0;
  std::uint64_t overlay_path_lost_ = 0;
  std::uint64_t overlay_flips_ = 0;
};

/// Hash of the flow headers only (addresses, protocol, ports / ICMP id) —
/// per-flow load balancers see nothing else (paper §5.1.4).
std::uint64_t flow_hash_of(const net::Datagram& datagram);

}  // namespace laces::topo

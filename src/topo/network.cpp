#include "topo/network.hpp"

#include "net/responder.hpp"
#include "util/rng.hpp"

namespace laces::topo {
namespace {

std::uint64_t target_pop_key(const net::IpAddress& addr, std::size_t pop) {
  StableHash h(0x7a23);
  h.mix(net::hash_value(addr)).mix(std::uint64_t{pop});
  return h.value();
}

}  // namespace

std::uint64_t flow_hash_of(const net::Datagram& datagram) {
  StableHash h(0xf707);
  h.mix(net::hash_value(datagram.src))
      .mix(net::hash_value(datagram.dst))
      .mix(std::uint64_t{datagram.ip_protocol});
  const auto l4 = datagram.l4();
  if (datagram.ip_protocol == 6 || datagram.ip_protocol == 17) {
    if (l4.size() >= 4) {
      // Source and destination ports.
      h.mix(std::uint64_t{l4[0]} << 24 | std::uint64_t{l4[1]} << 16 |
            std::uint64_t{l4[2]} << 8 | std::uint64_t{l4[3]});
    }
  } else if (l4.size() >= 6) {
    // ICMP echo identifier.
    h.mix(std::uint64_t{l4[4]} << 8 | std::uint64_t{l4[5]});
  }
  return h.value();
}

SimNetwork::SimNetwork(const World& world, EventQueue& events,
                       NetworkConfig config)
    : world_(world), events_(events), config_(config) {}

void SimNetwork::rebuild_view(LocalAddress& local) {
  local.view.id = local.pseudo_id;
  local.view.kind = DeploymentKind::kAnycastGlobal;
  local.view.pops.clear();
  local.view.pops.reserve(local.endpoints.size());
  for (const auto& ep : local.endpoints) {
    local.view.pops.push_back(Pop{ep.attach, {}});
  }
  local.view.finalize_layout();
  local.catchment.clear();
}

std::uint64_t SimNetwork::attach(const net::IpAddress& addr,
                                 const AttachPoint& attach, RxHandler handler) {
  auto& local = local_[addr];
  // The routing identity of an announced address is a stable function of
  // the address itself: withdrawing and re-announcing the same prefix
  // reproduces the same catchments, as real BGP does.
  if (local.endpoints.empty()) {
    local.pseudo_id = static_cast<DeploymentId>(
        kPseudoDeploymentIdBase | (net::hash_value(addr) & 0x3fffffffu));
  }
  const std::uint64_t id = next_interface_id_++;
  local.endpoints.push_back(Endpoint{id, attach, std::move(handler)});
  rebuild_view(local);
  iface_addr_.insert_or_assign(id, addr);
  return id;
}

void SimNetwork::detach(std::uint64_t interface_id) {
  const net::IpAddress* found = iface_addr_.find(interface_id);
  if (found == nullptr) return;
  const net::IpAddress addr = *found;
  iface_addr_.erase(interface_id);
  LocalAddress* local = local_.find(addr);
  if (local == nullptr) return;
  auto& eps = local->endpoints;
  for (std::size_t i = 0; i < eps.size(); ++i) {
    if (eps[i].id == interface_id) {
      eps.erase(eps.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  if (eps.empty()) {
    local_.erase(addr);
  } else {
    rebuild_view(*local);
  }
}

std::uint64_t SimNetwork::next_flow_seq(std::uint64_t flow_hash) {
  return flow_seq_[flow_hash]++;
}

std::uint64_t SimNetwork::next_packet_salt(std::uint64_t flow_hash) {
  StableHash h(0x5a17);
  h.mix(std::uint64_t{day_}).mix(flow_hash).mix(send_seq_[flow_hash]++);
  return h.value();
}

std::uint64_t SimNetwork::response_salt_of(std::uint64_t probe_salt) {
  StableHash h(0x5a18);
  h.mix(probe_salt);
  return h.value();
}

bool SimNetwork::drop_packet(std::uint64_t salt) {
  if (config_.loss <= 0.0) return false;
  StableHash h(0x1055);
  h.mix(salt);
  return h.unit() < config_.loss;
}

void SimNetwork::send(const net::Datagram& datagram, const AttachPoint& from) {
  ++packets_sent_;
  const std::uint64_t fh = flow_hash_of(datagram);
  const std::uint64_t salt = next_packet_salt(fh);
  if (drop_packet(salt)) return;
  // One hash lookup decides local-vs-target and hands the entry onward.
  if (const LocalAddress* local = local_.find(datagram.dst)) {
    deliver_local(*local, datagram, from, salt);
  } else {
    deliver_to_target(datagram, from, fh, salt);
  }
}

void SimNetwork::respond_local(const net::Datagram& datagram,
                               const AttachPoint& from, std::uint64_t salt) {
  const LocalAddress* local = local_.find(datagram.dst);
  if (local == nullptr) return;
  deliver_local(*local, datagram, from, salt);
}

void SimNetwork::deliver_local(const LocalAddress& local,
                               const net::Datagram& datagram,
                               const AttachPoint& from, std::uint64_t salt) {
  if (local.endpoints.empty()) return;

  std::size_t choice = 0;
  if (local.endpoints.size() > 1) {
    // Catchment selection over the sites announcing this address, using the
    // deployment view maintained on attach/detach.
    const std::uint64_t fh = flow_hash_of(datagram);
    choice = world_.routing()
                 .select_pop(from, local.view, day_, events_.now(), fh,
                             next_flow_seq(fh ^ local.pseudo_id),
                             local.catchment)
                 .pop_index;
  }

  const Endpoint& ep = local.endpoints[choice];
  const std::uint64_t ep_id = ep.id;
  const SimDuration delay = world_.routing().one_way_delay(
      from, ep.attach, salt, caches_);
  events_.schedule_after(delay, [this, datagram, ep_id]() {
    // Re-resolve: the interface may have detached while in flight (R5).
    const LocalAddress* addr = local_.find(datagram.dst);
    if (addr == nullptr) return;
    for (const auto& candidate : addr->endpoints) {
      if (candidate.id == ep_id) {
        ++deliveries_;
        candidate.handler(datagram, events_.now());
        return;
      }
    }
  });
}

void SimNetwork::deliver_to_target(const net::Datagram& datagram,
                                   const AttachPoint& from,
                                   std::uint64_t flow_hash,
                                   std::uint64_t salt) {
  const Target* target = world_.find_target(datagram.dst);
  if (target == nullptr) return;
  if (world_.target_down(*target, day_)) return;
  if (overlay_ != nullptr && !overlay_->empty()) {
    // Scenario data-plane regimes, a pure function of packet identity:
    // hitlist churn (the prefix is withdrawn all day) and path-scoped loss
    // (the forward path eats the probe; the target looks unresponsive).
    const std::uint64_t pfx = net::hash_value(net::Prefix::of(datagram.dst));
    if (overlay_->target_withdrawn(pfx, day_)) {
      ++overlay_withdrawn_;
      return;
    }
    if (overlay_->path_loss_drop(pfx, events_.now(), salt)) {
      ++overlay_path_lost_;
      return;
    }
  }

  // Backing-anycast TE (§5.8.2): ASes filtering v6 specifics route via the
  // covering anycast prefix instead of the /48's unicast PoP.
  const Deployment* dep = &world_.deployment(target->deployment);
  if (target->backing_deployment &&
      datagram.version() == net::IpVersion::kV6 &&
      world_.filters_v6_specifics(from.upstream)) {
    dep = &world_.deployment(*target->backing_deployment);
  }

  // A scenario route-flip window forces the second-best PoP for its
  // scoped flows — keyed on (salt, flow, dep).
  const SimTime departed = events_.now();
  const std::uint64_t packet_seq = next_flow_seq(flow_hash ^ dep->id);
  const bool force_flip =
      overlay_ != nullptr && overlay_->flip_forced(flow_hash, dep->id, departed);
  const auto ingress =
      force_flip ? world_.routing().select_pop_flipped(
                       from, *dep, day_, departed, flow_hash, packet_seq,
                       caches_)
                 : world_.routing().select_pop(from, *dep, day_, departed,
                                               flow_hash, packet_seq, caches_);
  if (force_flip && ingress.was_flipped) ++overlay_flips_;
  const SimDuration d1 = world_.routing().one_way_delay(
      from, dep->pops[ingress.pop_index].attach, salt, caches_);
  const DeploymentId dep_id = dep->id;
  const std::size_t ingress_pop = ingress.pop_index;
  events_.schedule_after(
      d1, [this, datagram, dep_id, ingress_pop, target, salt]() {
        target_serve(datagram, dep_id, ingress_pop, target, salt);
      });
}

void SimNetwork::target_serve(const net::Datagram& datagram,
                              DeploymentId dep_id, std::size_t ingress_pop,
                              const Target* target, std::uint64_t salt) {
  const SimTime arrival = events_.now();
  const Deployment& d = world_.deployment(dep_id);

  // The PoP that serves the request and the PoP the response re-enters
  // the Internet at. Global-BGP-unicast serves everything from its home
  // server, with egress policy per ingress PoP (§5.1.3).
  std::size_t serve_pop = ingress_pop;
  std::size_t egress = ingress_pop;
  SimDuration internal{};
  if (d.kind == DeploymentKind::kGlobalBgpUnicast) {
    serve_pop = d.home_pop;
    egress = world_.routing().egress_pop(d, ingress_pop);
    internal = world_.routing().one_way_delay(d.pops[ingress_pop].attach,
                                              d.pops[d.home_pop].attach,
                                              salt ^ 0x1, caches_);
    if (egress != d.home_pop) {
      internal = internal + world_.routing().one_way_delay(
                                d.pops[d.home_pop].attach,
                                d.pops[egress].attach, salt ^ 0x2,
                                caches_);
    }
  }

  // ICMP rate limiting per serving host (R3: offsets keep probes apart).
  const bool is_icmp = datagram.ip_protocol == 1 || datagram.ip_protocol == 58;
  if (is_icmp && config_.rate_limit_drop > 0.0) {
    const std::uint64_t key = target_pop_key(target->address, serve_pop);
    SimTime* last = last_arrival_.find(key);
    const bool too_fast =
        last != nullptr && arrival - *last < config_.rate_limit_window;
    if (last != nullptr) {
      *last = arrival;
    } else {
      last_arrival_.insert_or_assign(key, arrival);
    }
    if (too_fast) {
      StableHash h(0x2a7e);
      h.mix(salt).mix(key);
      if (h.unit() < config_.rate_limit_drop) return;
    }
  }

  // Effective responder: per-target protocol support, per-PoP CHAOS
  // identity (rotating across colocated values).
  net::ResponderConfig cfg = target->responder;
  const auto& chaos = d.pops[serve_pop].chaos_values;
  if (!chaos.empty()) {
    const std::uint64_t key = target_pop_key(target->address, serve_pop);
    cfg.chaos_value = chaos[chaos_rotation_[key]++ % chaos.size()];
  }
  const auto response = net::craft_response(datagram, cfg);
  if (!response) return;
  ++responses_generated_;

  const std::uint64_t response_salt = response_salt_of(salt);
  if (drop_packet(response_salt)) return;
  const AttachPoint origin = d.pops[egress].attach;
  if (internal.ns() > 0) {
    const net::Datagram resp = *response;
    events_.schedule_after(internal, [this, resp, origin, response_salt]() {
      respond_local(resp, origin, response_salt);
    });
  } else {
    respond_local(*response, origin, response_salt);
  }
}

}  // namespace laces::topo

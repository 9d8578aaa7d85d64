#include "platform/latency.hpp"

#include <string>
#include <unordered_map>

#include "net/probe.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace laces::platform {
namespace {

constexpr std::size_t kChunk = 256;

struct VpState {
  std::uint32_t index = 0;
  const VantagePoint* vp = nullptr;
  net::IpAddress source;
  std::uint64_t interface_id = 0;
  std::unordered_map<std::uint64_t, SimTime> pending;
};

}  // namespace

LatencyResults measure_latency(topo::SimNetwork& network,
                               const UnicastPlatform& platform,
                               const std::vector<net::IpAddress>& targets,
                               const LatencyOptions& options) {
  LatencyResults results;
  if (targets.empty()) return results;
  const net::IpVersion version = targets.front().version();
  auto& events = network.events();

  obs::Tracer::global().set_clock(&events);
  obs::Span span("platform.latency");
  const std::string protocol(net::metric_label(options.protocol));
  span.set_attr("protocol", protocol);
  span.set_attr("targets", std::to_string(targets.size()));
  auto& registry = obs::Registry::global();
  obs::Counter& samples_counter =
      registry.counter("laces_platform_rtt_samples_total");
  obs::Histogram& rtt_histogram =
      registry.histogram("laces_platform_rtt_ms", obs::rtt_ms_buckets());

  // Availability draw: which VPs take part in this run.
  std::vector<VpState> active;
  for (std::uint32_t i = 0; i < platform.vps.size(); ++i) {
    const auto& vp = platform.vps[i];
    StableHash h(options.run_seed ^ 0xa7a5);
    h.mix(std::uint64_t{i}).mix(vp.name);
    if (h.unit() >= vp.availability) continue;
    VpState state;
    state.index = i;
    state.vp = &vp;
    state.source =
        version == net::IpVersion::kV4 ? vp.address_v4 : vp.address_v6;
    active.push_back(std::move(state));
  }
  for (const auto& s : active) results.active_vps.push_back(s.index);
  registry.gauge("laces_platform_active_vps")
      .set(static_cast<double>(active.size()));
  if (active.empty()) return results;

  // Capture handlers: each VP sees only responses to its own address.
  auto states = std::make_shared<std::vector<VpState>>(std::move(active));
  auto* results_ptr = &results;
  for (auto& state : *states) {
    VpState* sp = &state;
    state.interface_id = network.attach(
        state.source, state.vp->attach,
        [sp, results_ptr, &network, &options, &samples_counter,
         &rtt_histogram](const net::Datagram& dgram, SimTime rx) {
          const auto parsed =
              net::parse_response(dgram, options.measurement_id);
          if (!parsed) return;
          const auto it = sp->pending.find(net::hash_value(parsed->target));
          if (it == sp->pending.end()) return;
          const double rtt_ms = (rx - it->second).to_millis();
          results_ptr->samples.push_back(
              RttSample{parsed->target, sp->index, rtt_ms});
          samples_counter.add();
          rtt_histogram.observe(rtt_ms);
          sp->pending.erase(it);
          (void)network;
        });
  }

  // Chunked scheduling keeps the event queue small on large hitlists.
  const double rate = std::max(1.0, options.targets_per_second);
  const SimTime t0 = events.now();
  auto send_probe = [states, &network, &options](std::size_t vp_slot,
                                                 net::IpAddress target) {
    auto& s = (*states)[vp_slot];
    net::ProbeEncoding enc;
    enc.measurement = options.measurement_id;
    enc.worker = static_cast<net::WorkerId>(s.index);
    enc.tx_time_ns = network.now().ns();
    enc.salt = static_cast<std::uint32_t>(
        StableHash(0x5a17).mix(net::hash_value(target)).mix(std::uint64_t{s.index}).value());
    net::Datagram probe;
    switch (options.protocol) {
      case net::Protocol::kIcmp:
        probe = net::build_icmp_probe(s.source, target, enc);
        break;
      case net::Protocol::kTcp:
        probe = net::build_tcp_probe(s.source, target, enc);
        break;
      case net::Protocol::kUdpDns:
        probe = net::build_dns_probe(s.source, target, enc);
        break;
    }
    s.pending[net::hash_value(target)] = network.now();
    network.send(probe, s.vp->attach);
  };

  const std::size_t chunk_count = (targets.size() + kChunk - 1) / kChunk;
  for (std::size_t c = 0; c < chunk_count; ++c) {
    const SimTime chunk_time =
        t0 + SimDuration::from_seconds(static_cast<double>(c * kChunk) / rate);
    events.schedule_at(chunk_time, [c, &targets, states, send_probe, &events,
                                    &options, rate, t0]() {
      const std::size_t begin = c * kChunk;
      const std::size_t end = std::min(begin + kChunk, targets.size());
      for (std::size_t j = begin; j < end; ++j) {
        const SimTime base =
            t0 + SimDuration::from_seconds(static_cast<double>(j) / rate);
        for (std::size_t v = 0; v < states->size(); ++v) {
          const net::IpAddress target = targets[j];
          events.schedule_at(
              base + options.vp_offset * static_cast<std::int64_t>(v),
              [v, target, send_probe]() { send_probe(v, target); });
        }
      }
    });
  }

  network.events().run();

  for (auto& state : *states) network.detach(state.interface_id);
  results.probes_sent =
      static_cast<std::uint64_t>(states->size()) * targets.size();
  results.credits_used =
      static_cast<double>(results.probes_sent) * platform.credits_per_probe;
  registry
      .counter("laces_platform_probes_sent_total", {{"protocol", protocol}})
      .add(results.probes_sent);
  return results;
}

}  // namespace laces::platform

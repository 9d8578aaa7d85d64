// Worker: the per-site probing component (paper §4.1.1).
//
// A Worker lives at one anycast site. For each measurement it attaches the
// probe source address to the network at its site (announcing the anycast
// prefix there), sends one probe per hitlist target at its assigned offset
// slot, validates captured responses against the echoed probe encoding, and
// streams results to the Orchestrator immediately — it stores neither the
// hitlist nor results (R10).
#pragma once

#include <array>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/channel.hpp"
#include "core/measurement.hpp"
#include "obs/metrics.hpp"
#include "platform/platform.hpp"
#include "topo/network.hpp"
#include "util/flat_map.hpp"
#include "util/rng.hpp"

namespace laces::core {

class Worker {
 public:
  /// `drain` is how long the worker keeps listening after its last probe.
  Worker(std::string name, platform::Site site, topo::SimNetwork& network,
         SimDuration drain = SimDuration::seconds(3));
  ~Worker();

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// Register with the Orchestrator over `channel` (sends WorkerHello).
  /// Reconnecting mid-run is supported: the Orchestrator recognizes the
  /// worker by name and resumes the hitlist stream from the last acked
  /// chunk (StartMeasurement.resume_from).
  void connect(std::shared_ptr<Channel> channel);

  /// Simulate a site outage: closes the channel and withdraws all announced
  /// addresses (R5). Ongoing probing stops.
  void disconnect();

  const std::string& name() const { return name_; }
  const platform::Site& site() const { return site_; }
  net::WorkerId id() const { return id_; }
  bool connected() const { return channel_ && channel_->is_open(); }
  std::uint64_t probes_sent() const { return probes_sent_total_; }

  /// Probe-salt RNG state. The salt sequence advances once per probe and
  /// feeds ECMP flow hashing, so a resumed census (laces_store) must
  /// restore it to reproduce the uninterrupted run's catchments.
  std::array<std::uint64_t, 4> rng_state() const { return rng_.state(); }
  void restore_rng_state(const std::array<std::uint64_t, 4>& s) {
    rng_.set_state(s);
  }

  // --- scenario availability regimes (laces_scenario) ---
  //
  // Version skew: a bit per net::Protocol ordinal; probes of masked-out
  // protocols are suppressed (an old firmware that cannot send them).
  // Throttling: each scheduled probe is independently suppressed with
  // `skip_probability`, keyed on (salt, target, measurement) — pure packet
  // identity, so suppression replays bit-for-bit, including across
  // checkpoint/resume. Suppressed probes still count down
  // `scheduled_unsent`, so the measurement completes normally with fewer
  // packets (credit contention, not an outage). Defaults are exact no-ops.
  void set_capability_mask(std::uint8_t mask) { capability_mask_ = mask; }
  void set_throttle(double skip_probability, std::uint64_t salt) {
    throttle_skip_ = skip_probability;
    throttle_salt_ = salt;
  }
  void clear_scenario_limits() {
    capability_mask_ = 0xff;
    throttle_skip_ = 0.0;
  }
  std::uint64_t probes_suppressed() const { return probes_suppressed_total_; }

 private:
  struct Active {
    StartMeasurement start;
    net::IpAddress source;
    std::vector<std::uint64_t> interfaces;
    FlatMap64<SimTime> pending_tx;  // RTT state, touched once per probe
    std::vector<ProbeRecord> buffer;
    std::uint64_t probes_sent_delta = 0;
    std::uint64_t scheduled_unsent = 0;
    bool end_received = false;
    bool done_sent = false;
    SimTime last_probe_time;
    /// Sequenced-stream state: next stream seq to consume, plus a buffer
    /// for chunks that arrived out of order (latency-spike faults).
    std::uint64_t next_expected = 0;
    std::map<std::uint64_t, TargetChunk> ooo;
    bool end_pending = false;  // end marker seen but earlier chunks missing
    std::uint64_t end_seq = 0;
    /// Liveness: last time any orchestrator frame arrived, and the pending
    /// heartbeat tick (canceled on teardown so a dead timer can never
    /// stretch the simulated timeline).
    SimTime last_heard;
    EventId heartbeat_event = kInvalidEventId;
    // Telemetry for this measurement's protocol, resolved once at start so
    // the per-probe path is a relaxed atomic increment.
    obs::Counter* probes_counter = nullptr;
    obs::Counter* responses_counter = nullptr;
    obs::Histogram* rtt_histogram = nullptr;
  };

  void on_message(const Message& message);
  void handle_start(const StartMeasurement& start);
  void handle_chunk(const TargetChunk& chunk);
  void handle_end(const EndOfTargets& end);
  void handle_abort(net::MeasurementId measurement);
  void process_chunk(const TargetChunk& chunk);
  void drain_stream();
  void send_ack();
  void arm_heartbeat();
  void send_probe(const net::IpAddress& target);
  bool probe_allowed(const net::IpAddress& target) const;
  void on_datagram(const net::Datagram& datagram, SimTime rx_time);
  void flush_results(bool force);
  void maybe_finish();
  void teardown_active();

  std::string name_;
  platform::Site site_;
  topo::SimNetwork& network_;
  SimDuration drain_;
  std::shared_ptr<Channel> channel_;
  net::WorkerId id_ = 0;
  std::unique_ptr<Active> active_;
  Rng rng_;
  std::uint64_t probes_sent_total_ = 0;
  std::uint8_t capability_mask_ = 0xff;
  double throttle_skip_ = 0.0;
  std::uint64_t throttle_salt_ = 0;
  std::uint64_t probes_suppressed_total_ = 0;
  std::uint64_t generation_ = 0;  // invalidates scheduled probes on teardown
  /// Monotonic across measurements AND reconnects, so the CLI can discard
  /// duplicated ResultBatch frames without dropping real records.
  std::uint64_t batch_seq_ = 0;
};

}  // namespace laces::core

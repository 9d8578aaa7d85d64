// Failure injection and protocol edge cases for the control plane
// (paper R5 "robustness" beyond the happy path).
#include <gtest/gtest.h>

#include <sstream>

#include "census/output.hpp"
#include "core/classify.hpp"
#include "core/session.hpp"
#include "hitlist/hitlist.hpp"
#include "obs/metrics.hpp"
#include "platform/platform.hpp"
#include "support.hpp"

namespace laces::core {
namespace {

using laces::testing::duplicate_records;

/// Drop every frame in both directions: the link looks up but is dead —
/// the hung-peer case only heartbeat liveness can detect.
void partition_link(const std::array<std::shared_ptr<Channel>, 2>& link) {
  for (const auto& channel : link) {
    channel->set_fault_filter([](const Message&) {
      FaultDecision fate;
      fate.drop = true;
      return fate;
    });
  }
}

/// Duplicate every frame in both directions.
void duplicate_link(const std::array<std::shared_ptr<Channel>, 2>& link) {
  for (const auto& channel : link) {
    channel->set_fault_filter([](const Message&) {
      FaultDecision fate;
      fate.copies = 2;
      return fate;
    });
  }
}

class FailureTest : public ::testing::Test {
 protected:
  FailureTest() {
    topo::NetworkConfig cfg;
    cfg.loss = 0.0;
    network_ = std::make_unique<topo::SimNetwork>(
        laces::testing::shared_small_world(), events_, cfg);
    network_->set_day(1);
    platform_ = platform::make_production_deployment(world());
  }

  const topo::World& world() { return laces::testing::shared_small_world(); }

  std::vector<net::IpAddress> targets(std::size_t n) {
    return hitlist::build_ping_hitlist(world(), net::IpVersion::kV4)
        .head(n)
        .addresses();
  }

  EventQueue events_;
  std::unique_ptr<topo::SimNetwork> network_;
  platform::AnycastPlatform platform_;
};

TEST_F(FailureTest, EmptyHitlistCompletesImmediately) {
  Session session(*network_, platform_);
  MeasurementSpec spec;
  spec.id = 1;
  const auto results = session.run(spec, {});
  EXPECT_TRUE(session.cli().finished());
  EXPECT_EQ(results.records.size(), 0u);
  EXPECT_EQ(results.probes_sent, 0u);
}

TEST_F(FailureTest, AllWorkersLostStillCompletes) {
  Session session(*network_, platform_);
  MeasurementSpec spec;
  spec.id = 2;
  spec.targets_per_second = 500;  // slow: outage hits mid-run
  session.submit(spec, targets(300));
  events_.schedule_at(SimTime(0) + SimDuration::seconds(2), [&] {
    for (std::size_t i = 0; i < session.worker_count(); ++i) {
      session.worker(i).disconnect();
    }
  });
  events_.run();
  EXPECT_TRUE(session.cli().finished());
  EXPECT_EQ(session.cli().workers_lost(), 32);
}

TEST_F(FailureTest, LostWorkerResponsesRerouteToSurvivors) {
  Session session(*network_, platform_);
  MeasurementSpec spec;
  spec.id = 3;
  spec.targets_per_second = 1000;
  const auto t = targets(600);
  session.submit(spec, t);
  events_.schedule_at(SimTime(0) + SimDuration::seconds(5), [&] {
    session.worker(0).disconnect();  // Amsterdam goes dark mid-run
  });
  events_.run();
  ASSERT_TRUE(session.cli().finished());
  const auto& results = session.cli().results();
  // The survivor set keeps producing; the lost worker's id stops appearing
  // as receiver after the outage.
  const auto lost_id = session.worker(0).id();
  SimTime last_seen_lost = SimTime::epoch();
  SimTime last_seen_any = SimTime::epoch();
  for (const auto& rec : results.records) {
    if (rec.rx_worker == lost_id) {
      last_seen_lost = std::max(last_seen_lost, rec.rx_time);
    }
    last_seen_any = std::max(last_seen_any, rec.rx_time);
  }
  EXPECT_LT(last_seen_lost.ns(), last_seen_any.ns());
}

TEST_F(FailureTest, CliDisconnectAbortsMeasurement) {
  Session session(*network_, platform_);
  MeasurementSpec spec;
  spec.id = 4;
  spec.targets_per_second = 100;
  session.submit(spec, targets(400));
  events_.schedule_at(SimTime(0) + SimDuration::seconds(1),
                      [&] { session.cli().disconnect(); });
  events_.run();
  EXPECT_FALSE(session.cli().finished());
  EXPECT_FALSE(session.orchestrator().measurement_active());
  std::uint64_t sent = 0;
  for (std::size_t i = 0; i < session.worker_count(); ++i) {
    sent += session.worker(i).probes_sent();
  }
  EXPECT_LT(sent, 400u * 32u);  // probing stopped early (R3)
}

TEST_F(FailureTest, ResubmitAfterAbortWorks) {
  Session session(*network_, platform_);
  MeasurementSpec spec;
  spec.id = 5;
  spec.targets_per_second = 100;
  session.submit(spec, targets(200));
  events_.schedule_at(SimTime(0) + SimDuration::millis(1500),
                      [&] { session.cli().abort(); });
  events_.run();
  EXPECT_FALSE(session.cli().finished());

  MeasurementSpec retry;
  retry.id = 6;
  retry.targets_per_second = 50000;
  const auto results = session.run(retry, targets(200));
  EXPECT_TRUE(session.cli().finished());
  EXPECT_EQ(results.probes_sent, 200u * 32u);
}

TEST_F(FailureTest, ImpostorWorkerCannotJoin) {
  // A worker with the wrong key never registers; measurements use the
  // authentic 32 only (R8).
  Session session(*network_, platform_);
  auto [impostor_end, orch_end] =
      make_channel_pair(events_, "stolen-key", "laces-census-key");
  session.orchestrator().accept_worker(orch_end);
  impostor_end->send(WorkerHello{"impostor"});
  events_.run();
  EXPECT_EQ(session.orchestrator().connected_workers(), 32u);
  EXPECT_GE(orch_end->auth_failures(), 1u);
}

TEST_F(FailureTest, UnresponsiveOnlyHitlistYieldsNoRecords) {
  Session session(*network_, platform_);
  std::vector<net::IpAddress> dead;
  for (const auto& t : world().targets()) {
    if (t.address.is_v4() && !t.responder.icmp && !t.responder.tcp &&
        !t.responder.dns) {
      dead.push_back(t.address);
    }
  }
  ASSERT_GT(dead.size(), 10u);
  MeasurementSpec spec;
  spec.id = 7;
  spec.targets_per_second = 50000;
  const auto results = session.run(spec, dead);
  EXPECT_TRUE(session.cli().finished());
  EXPECT_EQ(results.records.size(), 0u);
  const auto classification = classify_anycast(results, dead);
  for (const auto& [prefix, obs] : classification) {
    EXPECT_EQ(obs.verdict, Verdict::kUnresponsive);
  }
}

TEST_F(FailureTest, PacketLossDegradesGracefully) {
  topo::NetworkConfig lossy;
  lossy.loss = 0.2;  // 20% loss each way
  topo::SimNetwork lossy_network(world(), events_, lossy);
  lossy_network.set_day(1);
  Session session(lossy_network, platform_);
  MeasurementSpec spec;
  spec.id = 8;
  spec.targets_per_second = 50000;
  const auto t = targets(300);
  const auto results = session.run(spec, t);
  // ~64% of probe+response pairs survive; classification still works.
  EXPECT_GT(results.records.size(), t.size() * 32 / 3);
  EXPECT_LT(results.records.size(), t.size() * 32);
  const auto classification = classify_anycast(results, t);
  EXPECT_FALSE(anycast_targets(classification).empty());
}

TEST_F(FailureTest, HungWorkerHeartbeatTimeoutDegradesRun) {
  // Unlike a closed channel, a partitioned one gives no close notification:
  // only heartbeat liveness can evict the silent worker.
  Session session(*network_, platform_);
  MeasurementSpec spec;
  spec.id = 20;
  spec.targets_per_second = 500;
  spec.deadline = SimDuration::seconds(120);
  session.submit(spec, targets(300));
  events_.schedule_at(SimTime(0) + SimDuration::seconds(2),
                      [&] { partition_link(session.worker_link(0)); });
  events_.run();  // returning at all proves the loop drained
  EXPECT_TRUE(session.cli().finished());
  EXPECT_EQ(session.cli().workers_lost(), 1);
  EXPECT_EQ(session.cli().results().status, RunStatus::kDegraded);
  EXPECT_EQ(session.cli().results().workers_lost, 1);
  EXPECT_EQ(session.cli().results().workers_participated, 32);
  EXPECT_FALSE(session.orchestrator().measurement_active());
  EXPECT_EQ(events_.pending_live(), 0u);
}

TEST_F(FailureTest, KilledWorkerResumesFromLastAckedChunk) {
  // Kill a worker mid-stream, bring it back two seconds later: the
  // orchestrator must replay from the last acked chunk and the worker must
  // contribute post-reconnect records — with no duplicates from the replay.
  //
  // Timing: chunks hold 512 targets, so 1200 targets at 200/s stream as
  // chunk 0 (acked immediately), chunk 1 at ~t=3s and chunk 2 at ~t=5.6s.
  // The crash at t=2s and reconnect at t=4s land chunk 1 in the window
  // where worker 0 is dark — exactly the item resume must replay.
  Session session(*network_, platform_);
  const auto resumed_before =
      obs::Registry::global()
          .counter("laces_orchestrator_workers_resumed_total")
          .value();
  MeasurementSpec spec;
  spec.id = 21;
  spec.targets_per_second = 200;  // slow stream: crash lands mid-stream
  const auto t = targets(1200);
  session.submit(spec, t);
  const auto down = SimTime(0) + SimDuration::seconds(2);
  const auto up = SimTime(0) + SimDuration::seconds(4);
  events_.schedule_at(down, [&] { session.worker(0).disconnect(); });
  events_.schedule_at(up, [&] { session.reconnect_worker(0); });
  events_.run();

  ASSERT_TRUE(session.cli().finished());
  const auto& results = session.cli().results();
  EXPECT_EQ(results.status, RunStatus::kCompleted);
  EXPECT_EQ(session.cli().workers_lost(), 0);
  EXPECT_EQ(results.workers_lost, 0);
  EXPECT_EQ(obs::Registry::global()
                .counter("laces_orchestrator_workers_resumed_total")
                .value(),
            resumed_before + 1);

  // The resumed worker probed targets after it came back.
  const auto id = session.worker(0).id();
  bool post_reconnect = false;
  for (const auto& rec : results.records) {
    if (rec.tx_worker == id && rec.rx_time > up) post_reconnect = true;
  }
  EXPECT_TRUE(post_reconnect);
  EXPECT_EQ(duplicate_records(results), 0u);
}

TEST_F(FailureTest, CliStallWatchdogGivesUpOnSilentOrchestrator) {
  // CLI-side watchdog: the orchestrator finishes but its completion (and
  // every result batch) is lost; the CLI must not hang forever.
  Session session(*network_, platform_);
  MeasurementSpec spec;
  spec.id = 22;
  spec.targets_per_second = 50000;
  spec.worker_offset = SimDuration::seconds(0);
  spec.deadline = SimDuration::seconds(10);
  session.submit(spec, targets(200));
  events_.schedule_at(SimTime(0) + SimDuration::millis(500),
                      [&] { partition_link(session.cli_link()); });
  events_.run();
  EXPECT_FALSE(session.cli().finished());
  EXPECT_TRUE(session.cli().aborted());
  EXPECT_TRUE(session.cli().terminated());
  EXPECT_FALSE(session.orchestrator().measurement_active());
  EXPECT_EQ(events_.pending_live(), 0u);
}

TEST_F(FailureTest, DeadlineForceCompletesWithPartialResults) {
  // A measurement that overruns its deadline ends degraded with whatever
  // was collected, instead of running arbitrarily long.
  Session session(*network_, platform_);
  MeasurementSpec spec;
  spec.id = 23;
  spec.targets_per_second = 500;
  spec.deadline = SimDuration::seconds(5);  // full run needs ~35s
  session.submit(spec, targets(300));
  events_.run();
  ASSERT_TRUE(session.cli().finished());
  const auto& results = session.cli().results();
  EXPECT_EQ(results.status, RunStatus::kDegraded);
  EXPECT_GT(results.workers_lost, 0);
  EXPECT_GT(results.records.size(), 0u);
  EXPECT_LT(results.records.size(), 300u * 32u);
  EXPECT_FALSE(session.orchestrator().measurement_active());
  EXPECT_EQ(events_.pending_live(), 0u);
}

TEST_F(FailureTest, DuplicatedFramesDoNotDuplicateRecords) {
  // Duplicate every control frame on one worker link and on the CLI link:
  // sequence numbers and batch/record dedup must absorb all of it.
  Session session(*network_, platform_);
  duplicate_link(session.worker_link(0));
  duplicate_link(session.cli_link());
  MeasurementSpec spec;
  spec.id = 24;
  spec.targets_per_second = 50000;
  spec.worker_offset = SimDuration::seconds(0);
  const auto t = targets(200);
  session.submit(spec, t);
  events_.run();
  ASSERT_TRUE(session.cli().finished());
  const auto& results = session.cli().results();
  EXPECT_EQ(results.status, RunStatus::kCompleted);
  EXPECT_EQ(results.probes_sent, 200u * 32u);  // batch dedup held
  EXPECT_EQ(duplicate_records(results), 0u);
}

TEST_F(FailureTest, SendAfterCloseIsCountedNotDelivered) {
  auto& counter = obs::Registry::global().counter(
      "laces_channel_send_after_close_total");
  const auto before = counter.value();
  auto [a, b] = make_channel_pair(events_, "k", "k");
  std::size_t delivered = 0;
  b->set_message_handler([&](const Message&) { ++delivered; });
  a->close();
  events_.run();
  a->send(Abort{1});
  events_.run();
  EXPECT_EQ(a->sends_after_close(), 1u);
  EXPECT_EQ(counter.value(), before + 1);
  EXPECT_EQ(delivered, 0u);
}

TEST_F(FailureTest, CensusRoundTripThroughPublicationFormat) {
  // write_census -> parse_census is lossless for the published fields.
  census::DailyCensus census;
  census.day = 12;
  census::PrefixRecord rec;
  rec.prefix = net::Ipv4Prefix(net::Ipv4Address(1, 2, 3, 0), 24);
  rec.anycast_based[net::Protocol::kIcmp] =
      census::ProtocolObservation{Verdict::kAnycast, 17};
  rec.anycast_based[net::Protocol::kUdpDns] =
      census::ProtocolObservation{Verdict::kUnicast, 1};
  rec.gcd_verdict = gcd::GcdVerdict::kAnycast;
  rec.gcd_site_count = 2;
  rec.gcd_locations = {*geo::find_city("Amsterdam"), *geo::find_city("Tokyo")};
  rec.partial_anycast = true;
  census.records.emplace(rec.prefix, rec);

  census::PrefixRecord v6rec;
  v6rec.prefix = net::Ipv6Prefix(net::Ipv6Address(0x20010db800990000ULL, 0), 48);
  v6rec.anycast_based[net::Protocol::kIcmp] =
      census::ProtocolObservation{Verdict::kAnycast, 5};
  census.records.emplace(v6rec.prefix, v6rec);

  std::stringstream stream;
  census::write_census(stream, census);
  const auto parsed = census::parse_census(stream);

  EXPECT_EQ(parsed.day, 12u);
  ASSERT_EQ(parsed.records.size(), 2u);
  const auto* back = parsed.find(rec.prefix);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->anycast_based.at(net::Protocol::kIcmp).vp_count, 17u);
  EXPECT_EQ(back->anycast_based.at(net::Protocol::kIcmp).verdict,
            Verdict::kAnycast);
  EXPECT_FALSE(back->anycast_based.contains(net::Protocol::kTcp));
  EXPECT_TRUE(back->gcd_confirmed());
  EXPECT_EQ(back->gcd_site_count, 2u);
  EXPECT_TRUE(back->partial_anycast);
  ASSERT_EQ(back->gcd_locations.size(), 2u);
  EXPECT_EQ(geo::city(back->gcd_locations[0]).name, "Amsterdam");
  const auto* back6 = parsed.find(v6rec.prefix);
  ASSERT_NE(back6, nullptr);
  EXPECT_EQ(back6->anycast_based.at(net::Protocol::kIcmp).vp_count, 5u);
}

TEST_F(FailureTest, ParseCensusRejectsGarbage) {
  std::stringstream bad1("not a census\n");
  EXPECT_THROW(census::parse_census(bad1), std::runtime_error);
  std::stringstream bad2("# LACeS census day 1\nwrong,header\n");
  EXPECT_THROW(census::parse_census(bad2), std::runtime_error);
  std::stringstream bad3("# LACeS census day 1\n" + census::csv_header() +
                         "\n1.2.3.0/24,anycast\n");
  EXPECT_THROW(census::parse_census(bad3), std::runtime_error);
}

TEST_F(FailureTest, V6CensusThroughSession) {
  Session session(*network_, platform_);
  const auto hl = hitlist::build_ping_hitlist(world(), net::IpVersion::kV6);
  ASSERT_GT(hl.size(), 100u);
  MeasurementSpec spec;
  spec.id = 9;
  spec.version = net::IpVersion::kV6;
  spec.targets_per_second = 50000;
  const auto results = session.run(spec, hl.addresses());
  EXPECT_GT(results.records.size(), 0u);
  for (const auto& rec : results.records) {
    EXPECT_EQ(rec.target.version(), net::IpVersion::kV6);
  }
  const auto ats =
      anycast_targets(classify_anycast(results, hl.addresses()));
  EXPECT_GT(ats.size(), 5u);
}

TEST_F(FailureTest, ChaosCensusThroughSession) {
  Session session(*network_, platform_);
  const auto ns = hitlist::build_nameserver_hitlist(world(), net::IpVersion::kV4);
  ASSERT_GT(ns.size(), 10u);
  MeasurementSpec spec;
  spec.id = 10;
  spec.protocol = net::Protocol::kUdpDns;
  spec.chaos = true;
  spec.targets_per_second = 50000;
  const auto results = session.run(spec, ns.addresses());
  std::size_t with_txt = 0;
  for (const auto& rec : results.records) {
    with_txt += rec.txt.has_value() ? 1 : 0;
  }
  EXPECT_GT(with_txt, 0u);
}

}  // namespace
}  // namespace laces::core

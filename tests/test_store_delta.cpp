// Day deltas in publication space: the merge diff over two sorted
// publications must equal a straightforward map-based diff of the two
// days' CSV lines, for random days and for the edge shapes (no previous
// day, identical days, removals only, degraded days). A follower that
// applies the delta renders the new day byte-identically, and a
// publication's csv_bytes is the size of its rendered CSV.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>

#include "census/output.hpp"
#include "store/delta.hpp"

namespace laces::store {
namespace {

net::Prefix pool_prefix(std::uint32_t i) {
  if (i % 3 == 2) {
    return net::Ipv6Prefix(net::Ipv6Address(0x20010db800000000ull + i, 0), 48);
  }
  return net::Ipv4Prefix(
      net::Ipv4Address(10, static_cast<std::uint8_t>(i / 256),
                       static_cast<std::uint8_t>(i % 256), 0),
      24);
}

/// A random record; about a quarter come out unpublished (unicast by both
/// methods), so the diff must skip them.
census::PrefixRecord random_record(const net::Prefix& prefix,
                                   std::mt19937_64& rng) {
  census::PrefixRecord rec;
  rec.prefix = prefix;
  const auto verdict = [&rng] {
    return static_cast<core::Verdict>(rng() % 3);
  };
  for (const auto protocol : {net::Protocol::kIcmp, net::Protocol::kTcp,
                              net::Protocol::kUdpDns}) {
    if (rng() % 2 == 0) {
      rec.anycast_based[protocol] = {verdict(),
                                     static_cast<std::uint32_t>(rng() % 20)};
    }
  }
  if (rng() % 2 == 0) {
    rec.gcd_verdict = static_cast<gcd::GcdVerdict>(rng() % 3);
    rec.gcd_site_count = static_cast<std::uint32_t>(rng() % 12);
    for (std::uint64_t k = rng() % 4; k > 0; --k) {
      rec.gcd_locations.push_back(static_cast<geo::CityId>(rng() % 50));
    }
  }
  rec.partial_anycast = rng() % 5 == 0;
  return rec;
}

census::DailyCensus random_day(std::uint32_t day, std::mt19937_64& rng) {
  census::DailyCensus census;
  census.day = day;
  for (std::uint32_t i = 0; i < 120; ++i) {
    if (rng() % 3 == 0) continue;
    const auto prefix = pool_prefix(i);
    census.records.emplace(prefix, random_record(prefix, rng));
  }
  return census;
}

/// `prev` with some records dropped, some re-drawn and some added.
census::DailyCensus next_day(const census::DailyCensus& prev,
                             std::mt19937_64& rng) {
  census::DailyCensus census = prev;
  census.day = prev.day + 1;
  for (std::uint32_t i = 0; i < 120; ++i) {
    const auto prefix = pool_prefix(i);
    switch (rng() % 8) {
      case 0: census.records.erase(prefix); break;
      case 1:
      case 2: census.records[prefix] = random_record(prefix, rng); break;
      default: break;
    }
  }
  return census;
}

/// Reference diff: every published line of `prev` in a map, then a pass
/// over `cur`'s published prefixes.
DayDelta reference_delta(const census::DailyCensus* prev,
                         const census::DailyCensus& cur) {
  DayDelta delta;
  delta.day = cur.day;
  delta.degraded = cur.degraded;
  delta.lost_sites = cur.lost_sites;
  delta.canary_alarms = cur.canary_alarms;
  std::map<net::Prefix, std::string> before;
  if (prev != nullptr) {
    for (const auto& prefix : prev->published_prefixes()) {
      before.emplace(prefix, census::to_csv(*prev->find(prefix)));
    }
  }
  for (const auto& prefix : cur.published_prefixes()) {
    std::string line = census::to_csv(*cur.find(prefix));
    const auto it = before.find(prefix);
    if (it == before.end() || it->second != line) {
      delta.upserts.push_back(DeltaRow{prefix, std::move(line)});
    }
    if (it != before.end()) before.erase(it);
  }
  for (const auto& [prefix, line] : before) delta.removals.push_back(prefix);
  return delta;
}

/// The merge diff equals the reference, and a follower holding `prev`
/// renders `cur` after applying it.
void expect_delta_matches(const census::DailyCensus* prev,
                          const census::DailyCensus& cur) {
  const DayDelta delta = compute_day_delta(prev, cur);
  EXPECT_EQ(delta, reference_delta(prev, cur));
  DeltaFollower follower;
  if (prev != nullptr) follower.apply(compute_day_delta(nullptr, *prev));
  follower.apply(delta);
  EXPECT_EQ(follower.render(), census::render_census(cur));
}

TEST(StoreDelta, MergeDiffMatchesReferenceOnRandomDays) {
  std::mt19937_64 rng(1017);
  for (int trial = 0; trial < 60; ++trial) {
    const auto prev = random_day(static_cast<std::uint32_t>(trial), rng);
    const auto cur = next_day(prev, rng);
    SCOPED_TRACE("trial " + std::to_string(trial));
    expect_delta_matches(&prev, cur);
  }
}

TEST(StoreDelta, NullPrevMakesEveryPublishedRowAnUpsert) {
  std::mt19937_64 rng(7);
  const auto day = random_day(1, rng);
  expect_delta_matches(nullptr, day);
  const auto delta = compute_day_delta(nullptr, day);
  EXPECT_EQ(delta.upserts.size(), day.published_prefixes().size());
  EXPECT_TRUE(delta.removals.empty());
}

TEST(StoreDelta, IdenticalDaysHaveNoRows) {
  std::mt19937_64 rng(8);
  const auto prev = random_day(4, rng);
  auto cur = prev;
  cur.day = 5;
  expect_delta_matches(&prev, cur);
  const auto delta = compute_day_delta(&prev, cur);
  EXPECT_TRUE(delta.upserts.empty());
  EXPECT_TRUE(delta.removals.empty());
}

TEST(StoreDelta, RemovalsOnly) {
  std::mt19937_64 rng(9);
  const auto prev = random_day(4, rng);
  auto cur = prev;
  cur.day = 5;
  const auto published = prev.published_prefixes();
  ASSERT_GE(published.size(), 4u);
  for (std::size_t i = 0; i < published.size(); i += 3) {
    cur.records.erase(published[i]);
  }
  expect_delta_matches(&prev, cur);
  const auto delta = compute_day_delta(&prev, cur);
  EXPECT_TRUE(delta.upserts.empty());
  EXPECT_EQ(delta.removals.size(), (published.size() + 2) / 3);
}

TEST(StoreDelta, DegradedDayCarriesItsHeader) {
  std::mt19937_64 rng(10);
  const auto prev = random_day(4, rng);
  auto cur = next_day(prev, rng);
  cur.degraded = true;
  cur.lost_sites = 3;
  cur.canary_alarms = 2;
  expect_delta_matches(&prev, cur);
  // Back to a clean day after a degraded one.
  auto after = next_day(cur, rng);
  after.degraded = false;
  after.lost_sites = 0;
  after.canary_alarms = 0;
  expect_delta_matches(&cur, after);
}

TEST(StoreDelta, CsvBytesIsTheRenderedSize) {
  std::mt19937_64 rng(11);
  auto day = random_day(3, rng);
  EXPECT_EQ(census::render_publication(day).csv_bytes(),
            census::render_census(day).size());
  day.degraded = true;
  day.lost_sites = 17;
  day.canary_alarms = 4;
  EXPECT_EQ(census::render_publication(day).csv_bytes(),
            census::render_census(day).size());
  census::DailyCensus empty;
  EXPECT_EQ(census::render_publication(empty).csv_bytes(),
            census::render_census(empty).size());
}

}  // namespace
}  // namespace laces::store

// QueryEngine edge cases: the empty archive, the single-day archive, a
// prefix that never appears, and an archive with degraded days — proving
// degraded days never enter the stability denominators.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "serve/json.hpp"
#include "store/archive.hpp"
#include "store/format.hpp"
#include "store/query.hpp"
#include "support.hpp"

namespace laces::store {
namespace {

namespace fs = std::filesystem;

using laces::testing::fresh_dir;
using laces::testing::v4;

/// Day with prefixes 10.0.<i>.0/24 for i < spread (same prefixes each day,
/// so a smaller spread makes later prefixes absent, not shifted).
census::DailyCensus make_day(std::uint32_t day, std::uint32_t spread,
                             bool degraded = false) {
  census::DailyCensus census;
  census.day = day;
  census.degraded = degraded;
  for (std::uint32_t i = 0; i < spread; ++i) {
    census::PrefixRecord rec;
    rec.prefix = v4(10, 0, static_cast<std::uint8_t>(i));
    rec.anycast_based[net::Protocol::kIcmp] = {core::Verdict::kAnycast, 5};
    rec.gcd_verdict = gcd::GcdVerdict::kAnycast;
    rec.gcd_site_count = 3;
    rec.gcd_locations = {1, 2};
    census.anycast_targets.push_back(rec.prefix);
    census.records.emplace(rec.prefix, rec);
  }
  return census;
}

TEST(StoreQueryEdge, EmptyArchiveAnswersEverythingWithZeros) {
  const auto dir = fresh_dir("query_edge_empty");
  Manifest{}.save(dir / kManifestFile);

  ArchiveReader reader(dir);
  QueryEngine query(reader);

  const auto summary = query.summary();
  EXPECT_EQ(summary.days, 0u);
  EXPECT_EQ(summary.degraded_days, 0u);
  EXPECT_EQ(summary.first_day, 0u);
  EXPECT_EQ(summary.last_day, 0u);
  EXPECT_EQ(summary.records_total, 0u);
  EXPECT_EQ(summary.compression_ratio, 0.0);
  EXPECT_EQ(summary.anycast_daily_mean, 0.0);

  EXPECT_TRUE(query.history(v4(10, 0, 0)).empty());

  const auto stability = query.stability();
  EXPECT_FALSE(stability.from_checkpoint);
  EXPECT_EQ(stability.anycast_based.days, 0u);
  EXPECT_EQ(stability.anycast_based.union_size, 0u);
  EXPECT_EQ(stability.anycast_based.every_day, 0u);
  EXPECT_EQ(stability.anycast_based.daily_mean, 0.0);
  EXPECT_TRUE(query.intermittent_anycast_based().empty());
  EXPECT_TRUE(query.intermittent_gcd().empty());

  // The JSON renderers accept the empty results too.
  EXPECT_NE(serve::json_summary(summary).find("\"days\":0"),
            std::string::npos);
  EXPECT_NE(serve::json_history(v4(10, 0, 0), query.history(v4(10, 0, 0)))
                .find("\"days\":[]"),
            std::string::npos);
}

TEST(StoreQueryEdge, SingleDayArchiveHasNoIntermittency) {
  const auto dir = fresh_dir("query_edge_single");
  ArchiveWriter(dir).append(make_day(7, 3));

  ArchiveReader reader(dir);
  QueryEngine query(reader);

  const auto summary = query.summary();
  EXPECT_EQ(summary.days, 1u);
  EXPECT_EQ(summary.first_day, 7u);
  EXPECT_EQ(summary.last_day, 7u);
  EXPECT_EQ(summary.anycast_daily_mean, 3.0);

  const auto stability = query.stability();
  EXPECT_EQ(stability.anycast_based.days, 1u);
  // One day: everything ever seen was seen every day.
  EXPECT_EQ(stability.anycast_based.union_size, 3u);
  EXPECT_EQ(stability.anycast_based.every_day, 3u);
  EXPECT_EQ(stability.anycast_based.intermittent(), 0u);
  EXPECT_EQ(stability.anycast_based.daily_mean, 3.0);
  EXPECT_TRUE(query.intermittent_anycast_based().empty());

  const auto history = query.history(v4(10, 0, 2));
  ASSERT_EQ(history.size(), 1u);
  EXPECT_EQ(history[0].day, 7u);
  EXPECT_TRUE(history[0].published);
  EXPECT_TRUE(history[0].anycast_based);
}

TEST(StoreQueryEdge, AbsentPrefixHasFullLengthUnpublishedHistory) {
  const auto dir = fresh_dir("query_edge_absent");
  {
    ArchiveWriter writer(dir);
    for (std::uint32_t day = 1; day <= 4; ++day) {
      writer.append(make_day(day, 2));
    }
  }
  ArchiveReader reader(dir);
  QueryEngine query(reader);

  // 192.0.2.0/24 was never published: one HistoryDay per archived day,
  // every field at its "absent" value — not an error, not a short vector.
  const auto history = query.history(v4(192, 0, 2));
  ASSERT_EQ(history.size(), 4u);
  for (std::size_t i = 0; i < history.size(); ++i) {
    EXPECT_EQ(history[i].day, i + 1);
    EXPECT_FALSE(history[i].published);
    EXPECT_FALSE(history[i].anycast_based);
    EXPECT_FALSE(history[i].gcd_confirmed);
    EXPECT_EQ(history[i].max_vp_count, 0u);
    EXPECT_EQ(history[i].gcd_sites, 0u);
  }
}

TEST(StoreQueryEdge, DegradedDaysStayOutOfStabilityDenominators) {
  const auto dir = fresh_dir("query_edge_degraded");
  {
    ArchiveWriter writer(dir);
    writer.append(make_day(1, 4));
    // Day 2 lost sites: only half the prefixes detected, flagged degraded.
    writer.append(make_day(2, 2, /*degraded=*/true));
    writer.append(make_day(3, 4));
  }
  ArchiveReader reader(dir);
  QueryEngine query(reader);

  const auto summary = query.summary();
  EXPECT_EQ(summary.days, 3u);
  EXPECT_EQ(summary.degraded_days, 1u);
  // Daily mean averages healthy days only: (4 + 4) / 2.
  EXPECT_EQ(summary.anycast_daily_mean, 4.0);

  const auto stability = query.stability();
  EXPECT_EQ(stability.anycast_based.days, 2u);
  EXPECT_EQ(stability.anycast_based.degraded_days, 1u);
  // Prefixes 10.0.{2,3}.0/24 are missing on the degraded day but present
  // on both healthy days: still every-day stable, never "intermittent".
  EXPECT_EQ(stability.anycast_based.union_size, 4u);
  EXPECT_EQ(stability.anycast_based.every_day, 4u);
  EXPECT_EQ(stability.anycast_based.intermittent(), 0u);
  EXPECT_TRUE(query.intermittent_anycast_based().empty());

  // The per-day history still shows the degraded day as it was recorded.
  const auto history = query.history(v4(10, 0, 3));
  ASSERT_EQ(history.size(), 3u);
  EXPECT_TRUE(history[0].published);
  EXPECT_FALSE(history[1].published);
  EXPECT_TRUE(history[1].degraded);
  EXPECT_TRUE(history[2].published);
}

TEST(StoreQueryEdge, CorruptDayThrowsNamedArchiveError) {
  const auto dir = fresh_dir("query_edge_corrupt");
  {
    ArchiveWriter writer(dir);
    writer.append(make_day(1, 2));
    writer.append(make_day(2, 2));
  }
  {
    // Flip a byte of day 2's segment so its digest check fails.
    const auto path = dir / segment_file_name(2);
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.is_open());
    file.seekg(10);
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x55);
    file.seekp(10);
    file.write(&byte, 1);
  }
  ArchiveReader reader(dir);
  QueryEngine query(reader);

  // history() walks every day, hits the corrupt segment and throws an
  // ArchiveError naming it — what `laces query` prints as its single
  // line-anchored error (with no partial stdout) before exiting nonzero.
  try {
    query.history(v4(10, 0, 0));
    FAIL() << "expected ArchiveError";
  } catch (const ArchiveError& e) {
    EXPECT_NE(std::string(e.what()).find(segment_file_name(2)),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace laces::store

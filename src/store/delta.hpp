// Day-commit delta extraction: the difference between two archived census
// days, expressed in publication-format rows.
//
// A DayDelta is what the mesh pushes to subscribers when ArchiveWriter
// commits a day: the rows that appeared or changed (upserts, carrying the
// exact §4.2.4 CSV line) and the prefixes that dropped out of publication
// (removals). A DeltaFollower applies a stream of deltas and re-renders
// any day's census *byte-identically* to census::write_census over the
// original DailyCensus — the contract the pub/sub tests pin: a subscriber
// that joined at day 0 and applied every delta owns the same bytes as
// `laces query --export-day`.
//
// Determinism argument: write_census emits published prefixes in
// std::sort order of net::Prefix (defaulted operator<=>), and the
// follower keeps rows in a std::map<net::Prefix, ...> whose iteration
// order is the same ordering — so row order never depends on how the rows
// arrived.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "census/census.hpp"
#include "census/output.hpp"

namespace laces::store {

/// One new-or-changed publication row: the prefix and its exact CSV line
/// (census::to_csv bytes for this day).
using DeltaRow = census::PublicationRow;

/// Everything that changed between day `day`-1-as-archived and `day`.
/// `prev == nullptr` (first archived day) makes every published row an
/// upsert. Upserts and removals are sorted by prefix.
struct DayDelta {
  std::uint32_t day = 0;
  bool degraded = false;
  std::uint16_t lost_sites = 0;
  std::uint32_t canary_alarms = 0;
  std::vector<DeltaRow> upserts;
  std::vector<net::Prefix> removals;
  bool operator==(const DayDelta&) const = default;
};

/// Diffs two census days in publication space. A prefix is an upsert when
/// it is published in `cur` and either absent from `prev`'s publication or
/// published with a different CSV line; a removal when published in `prev`
/// but not in `cur`. One linear merge of the two sorted row lists; nothing
/// is rendered.
DayDelta compute_day_delta(const census::Publication* prev,
                           const census::Publication& cur);

/// Renders both days, then diffs them as above.
DayDelta compute_day_delta(const census::DailyCensus* prev,
                           const census::DailyCensus& cur);

/// Applies a delta stream and re-renders any completed day's publication
/// CSV byte-identically to census::write_census. Not thread-safe.
class DeltaFollower {
 public:
  /// Applies delta rows (upserts replace/insert, removals erase) and
  /// records the day's header state. Days must arrive in non-decreasing
  /// order; several partial deltas for one day merge (chunked delivery),
  /// and re-applying a row is idempotent (map assignment). Throws
  /// std::runtime_error on a day regression — the caller's cursor logic
  /// is supposed to have deduplicated replays.
  void apply(const DayDelta& delta);

  /// Publication bytes for the most recently applied day.
  std::string render() const;

  std::uint32_t day() const { return header_.day; }
  std::size_t rows() const { return rows_.size(); }

 private:
  census::PublicationHeader header_;
  /// Ordered exactly like write_census's sorted published_prefixes().
  std::map<net::Prefix, std::string> rows_;
};

}  // namespace laces::store

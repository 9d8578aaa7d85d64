#include "store/delta.hpp"

#include <stdexcept>

namespace laces::store {

DayDelta compute_day_delta(const census::Publication* prev,
                           const census::Publication& cur) {
  DayDelta delta;
  delta.day = cur.header.day;
  delta.degraded = cur.header.degraded;
  delta.lost_sites = cur.header.lost_sites;
  delta.canary_alarms = cur.header.canary_alarms;

  // Both row lists are sorted by prefix, so one merge pass finds every
  // change, and upserts and removals come out sorted. Lines are compared,
  // not records, so a record change invisible to the CSV is (correctly)
  // not a delta.
  static const std::vector<census::PublicationRow> kNone;
  const auto& before = prev != nullptr ? prev->rows : kNone;
  const auto& after = cur.rows;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < before.size() || j < after.size()) {
    if (j == after.size() ||
        (i < before.size() && before[i].prefix < after[j].prefix)) {
      delta.removals.push_back(before[i++].prefix);
    } else if (i == before.size() || after[j].prefix < before[i].prefix) {
      delta.upserts.push_back(after[j++]);
    } else {
      if (before[i].line != after[j].line) delta.upserts.push_back(after[j]);
      ++i;
      ++j;
    }
  }
  return delta;
}

DayDelta compute_day_delta(const census::DailyCensus* prev,
                           const census::DailyCensus& cur) {
  if (prev == nullptr) {
    return compute_day_delta(nullptr, census::render_publication(cur));
  }
  const census::Publication before = census::render_publication(*prev);
  return compute_day_delta(&before, census::render_publication(cur));
}

void DeltaFollower::apply(const DayDelta& delta) {
  if (delta.day < header_.day) {
    throw std::runtime_error("delta follower: day " +
                             std::to_string(delta.day) +
                             " arrived after day " +
                             std::to_string(header_.day));
  }
  header_ = census::PublicationHeader{delta.day, delta.degraded,
                                      delta.lost_sites, delta.canary_alarms};
  for (const auto& row : delta.upserts) {
    rows_[row.prefix] = row.line;
  }
  for (const auto& prefix : delta.removals) {
    rows_.erase(prefix);
  }
}

std::string DeltaFollower::render() const {
  std::string out = census::render_header(header_);
  for (const auto& [prefix, line] : rows_) {
    out += line;
    out += '\n';
  }
  return out;
}

}  // namespace laces::store

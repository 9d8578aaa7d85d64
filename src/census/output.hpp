// Census publication format (the public Git repository of §4.2.4).
//
// One CSV-style line per published prefix:
//   prefix,icmp,icmp_vps,tcp,tcp_vps,udp,udp_vps,gcd,gcd_sites,partial,locations
// where locations is a |-separated list of "City/CC" geolocations.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "census/census.hpp"

namespace laces::census {

/// Header line of the publication format.
std::string csv_header();

/// One prefix's census line.
std::string to_csv(const PrefixRecord& record);

/// The day fields a publication's leading comment lines carry.
struct PublicationHeader {
  std::uint32_t day = 0;
  bool degraded = false;
  std::uint16_t lost_sites = 0;
  std::uint32_t canary_alarms = 0;
  bool operator==(const PublicationHeader&) const = default;
};

/// The lines before the rows: the day comment, the degraded marker on a
/// degraded day, and the column header, each ending in a newline.
std::string render_header(const PublicationHeader& header);

/// One published prefix and its exact to_csv line.
struct PublicationRow {
  net::Prefix prefix;
  std::string line;
  bool operator==(const PublicationRow&) const = default;
};

/// One day's publication, rendered once: the header fields and the
/// published rows sorted by prefix. Everything that writes or diffs a
/// day's CSV works from this.
struct Publication {
  PublicationHeader header;
  std::vector<PublicationRow> rows;

  /// Size of the rendered CSV: the header plus each line and its newline.
  std::size_t csv_bytes() const;
};

/// Renders each published prefix's line once, in sorted prefix order.
Publication render_publication(const DailyCensus& census);

/// The publication's CSV bytes.
std::string render_census(const Publication& publication);

/// Renders the whole census (published prefixes only, sorted).
std::string render_census(const DailyCensus& census);

/// Writes render_census(census) to `out`.
void write_census(std::ostream& out, const DailyCensus& census);

/// Parses a published census back (the consumer side of the public
/// repository: longitudinal tooling reads prior days' files).
/// Throws std::runtime_error on malformed input.
DailyCensus parse_census(std::istream& in);

}  // namespace laces::census

#include "census/output.hpp"

#include <charconv>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace laces::census {
namespace {

template <class T>
void append_number(std::string& line, T value) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  line.append(buf, end);
}

void append_protocol(std::string& line, const PrefixRecord& rec,
                     net::Protocol protocol) {
  const auto it = rec.anycast_based.find(protocol);
  if (it == rec.anycast_based.end()) {
    line += ",n/a,0";
    return;
  }
  line += ',';
  line += core::to_string(it->second.verdict);
  line += ',';
  append_number(line, it->second.vp_count);
}

}  // namespace

std::string csv_header() {
  return "prefix,icmp,icmp_vps,tcp,tcp_vps,udp,udp_vps,gcd,gcd_sites,"
         "partial,locations";
}

std::string to_csv(const PrefixRecord& rec) {
  std::string line;
  line.reserve(96 + 24 * rec.gcd_locations.size());
  line += rec.prefix.to_string();
  append_protocol(line, rec, net::Protocol::kIcmp);
  append_protocol(line, rec, net::Protocol::kTcp);
  append_protocol(line, rec, net::Protocol::kUdpDns);
  line += ',';
  line += rec.gcd_verdict ? gcd::to_string(*rec.gcd_verdict) : "n/a";
  line += ',';
  append_number(line, rec.gcd_site_count);
  line += rec.partial_anycast ? ",partial," : ",full,";
  for (std::size_t i = 0; i < rec.gcd_locations.size(); ++i) {
    if (i > 0) line += '|';
    const auto& city = geo::city(rec.gcd_locations[i]);
    line += city.name;
    line += '/';
    line += city.country;
  }
  return line;
}

std::string render_header(const PublicationHeader& header) {
  std::string out = "# LACeS census day ";
  append_number(out, header.day);
  out += '\n';
  if (header.degraded) {
    // Degraded days publish their (partial) records but carry the marker so
    // downstream longitudinal analysis can exclude them.
    out += "# degraded: lost_sites=";
    append_number(out, header.lost_sites);
    out += " canary_alarms=";
    append_number(out, header.canary_alarms);
    out += '\n';
  }
  out += csv_header();
  out += '\n';
  return out;
}

std::size_t Publication::csv_bytes() const {
  std::size_t bytes = render_header(header).size();
  for (const auto& row : rows) bytes += row.line.size() + 1;
  return bytes;
}

Publication render_publication(const DailyCensus& census) {
  Publication pub;
  pub.header = PublicationHeader{census.day, census.degraded,
                                 census.lost_sites, census.canary_alarms};
  const auto published = census.published_prefixes();
  pub.rows.reserve(published.size());
  for (const auto& prefix : published) {
    pub.rows.push_back(PublicationRow{prefix, to_csv(*census.find(prefix))});
  }
  return pub;
}

std::string render_census(const Publication& publication) {
  std::string out;
  out.reserve(publication.csv_bytes());
  out += render_header(publication.header);
  for (const auto& row : publication.rows) {
    out += row.line;
    out += '\n';
  }
  return out;
}

std::string render_census(const DailyCensus& census) {
  return render_census(render_publication(census));
}

void write_census(std::ostream& out, const DailyCensus& census) {
  out << render_census(census);
}

namespace {

std::vector<std::string> split(const std::string& line, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (;;) {
    const auto pos = line.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(line.substr(start));
      return out;
    }
    out.push_back(line.substr(start, pos - start));
    start = pos + 1;
  }
}

}  // namespace

namespace {

/// Errors name the 1-based line so a malformed multi-thousand-line
/// publication file points straight at the offending record.
[[noreturn]] void fail_at(std::size_t line_number, const std::string& what) {
  throw std::runtime_error("census file line " +
                           std::to_string(line_number) + ": " + what);
}

std::uint64_t parse_number(const std::string& s, std::size_t line_number,
                           const char* what) {
  std::uint64_t value = 0;
  std::size_t consumed = 0;
  try {
    value = std::stoull(s, &consumed);
  } catch (const std::exception&) {
    fail_at(line_number, std::string("bad ") + what + ": '" + s + "'");
  }
  if (consumed == 0 || (consumed < s.size() && s[consumed] != ' ')) {
    fail_at(line_number, std::string("bad ") + what + ": '" + s + "'");
  }
  return value;
}

core::Verdict parse_verdict(const std::string& s, std::size_t line_number) {
  if (s == "unicast") return core::Verdict::kUnicast;
  if (s == "anycast") return core::Verdict::kAnycast;
  if (s == "unresponsive") return core::Verdict::kUnresponsive;
  fail_at(line_number, "bad anycast-based verdict: '" + s + "'");
}

void parse_protocol_fields(PrefixRecord& rec, net::Protocol protocol,
                           const std::string& verdict, const std::string& vps,
                           std::size_t line_number) {
  if (verdict == "n/a") return;
  rec.anycast_based[protocol] = ProtocolObservation{
      parse_verdict(verdict, line_number),
      static_cast<std::uint32_t>(parse_number(vps, line_number, "VP count"))};
}

}  // namespace

DailyCensus parse_census(std::istream& in) {
  DailyCensus census;
  std::string line;
  std::size_t line_number = 0;
  const auto next_line = [&]() {
    ++line_number;
    return static_cast<bool>(std::getline(in, line));
  };
  // Comment line: "# LACeS census day N".
  if (!next_line() || line.rfind("# LACeS census day ", 0) != 0) {
    fail_at(line_number, "missing day header");
  }
  census.day = static_cast<std::uint32_t>(
      parse_number(line.substr(19), line_number, "day number"));
  if (!next_line()) fail_at(line_number, "missing column header");
  // Optional degraded-day marker: "# degraded: lost_sites=N canary_alarms=M".
  if (line.rfind("# degraded: ", 0) == 0) {
    census.degraded = true;
    const auto lost_pos = line.find("lost_sites=");
    if (lost_pos != std::string::npos) {
      census.lost_sites = static_cast<std::uint16_t>(parse_number(
          line.substr(lost_pos + 11), line_number, "lost_sites"));
    }
    const auto alarm_pos = line.find("canary_alarms=");
    if (alarm_pos != std::string::npos) {
      census.canary_alarms = static_cast<std::uint32_t>(parse_number(
          line.substr(alarm_pos + 14), line_number, "canary_alarms"));
    }
    if (!next_line()) fail_at(line_number, "missing column header");
  }
  if (line != csv_header()) fail_at(line_number, "bad column header");
  while (next_line()) {
    if (line.empty()) continue;
    const auto fields = split(line, ',');
    if (fields.size() != 11) {
      fail_at(line_number, "bad field count (want 11, got " +
                               std::to_string(fields.size()) + "): " + line);
    }
    PrefixRecord rec;
    if (const auto p4 = net::Ipv4Prefix::parse(fields[0])) {
      rec.prefix = *p4;
    } else {
      // IPv6 prefix: "<addr>/48".
      const auto slash = fields[0].find('/');
      const auto addr = net::Ipv6Address::parse(fields[0].substr(0, slash));
      if (!addr || slash == std::string::npos) {
        fail_at(line_number, "bad prefix: '" + fields[0] + "'");
      }
      rec.prefix = net::Ipv6Prefix(
          *addr, static_cast<std::uint8_t>(parse_number(
                     fields[0].substr(slash + 1), line_number,
                     "prefix length")));
    }
    parse_protocol_fields(rec, net::Protocol::kIcmp, fields[1], fields[2],
                          line_number);
    parse_protocol_fields(rec, net::Protocol::kTcp, fields[3], fields[4],
                          line_number);
    parse_protocol_fields(rec, net::Protocol::kUdpDns, fields[5], fields[6],
                          line_number);
    if (fields[7] != "n/a") {
      if (fields[7] == "anycast") {
        rec.gcd_verdict = gcd::GcdVerdict::kAnycast;
      } else if (fields[7] == "unicast") {
        rec.gcd_verdict = gcd::GcdVerdict::kUnicast;
      } else if (fields[7] == "unresponsive") {
        rec.gcd_verdict = gcd::GcdVerdict::kUnresponsive;
      } else {
        fail_at(line_number, "bad GCD verdict: '" + fields[7] + "'");
      }
    }
    rec.gcd_site_count = static_cast<std::uint32_t>(
        parse_number(fields[8], line_number, "gcd_sites"));
    if (fields[9] != "partial" && fields[9] != "full") {
      fail_at(line_number, "bad partial flag: '" + fields[9] + "'");
    }
    rec.partial_anycast = fields[9] == "partial";
    if (!fields[10].empty()) {
      for (const auto& loc : split(fields[10], '|')) {
        const auto slash = loc.find('/');
        const auto city = geo::find_city(loc.substr(0, slash));
        if (city) rec.gcd_locations.push_back(*city);
      }
    }
    if (!census.records.emplace(rec.prefix, std::move(rec)).second) {
      fail_at(line_number, "duplicate prefix: " + fields[0]);
    }
  }
  return census;
}

}  // namespace laces::census

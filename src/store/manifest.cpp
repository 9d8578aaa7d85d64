#include "store/manifest.hpp"

#include <fstream>
#include <sstream>

namespace laces::store {

const ManifestEntry* Manifest::find(std::uint32_t day) const {
  for (const auto& e : entries) {
    if (e.day == day) return &e;
  }
  return nullptr;
}

std::uint32_t Manifest::last_day() const {
  std::uint32_t last = 0;
  for (const auto& e : entries) last = std::max(last, e.day);
  return last;
}

std::uint64_t Manifest::total_segment_bytes() const {
  std::uint64_t total = 0;
  for (const auto& e : entries) total += e.segment_bytes;
  return total;
}

std::uint64_t Manifest::total_csv_bytes() const {
  std::uint64_t total = 0;
  for (const auto& e : entries) total += e.csv_bytes;
  return total;
}

std::string Manifest::render() const {
  std::ostringstream out;
  out << "# laces-store manifest v" << kFormatVersion << "\n";
  for (const auto& e : entries) {
    out << "day=" << e.day << " degraded=" << (e.degraded ? 1 : 0)
        << " records=" << e.record_count << " anycast=" << e.anycast_detected
        << " gcd=" << e.gcd_confirmed << " segment_bytes=" << e.segment_bytes
        << " csv_bytes=" << e.csv_bytes << " file=" << e.file
        << " sha256=" << e.digest_hex << "\n";
  }
  return out.str();
}

void Manifest::save(const std::filesystem::path& path) const {
  const std::string text = render();
  write_file_atomic(
      path,
      {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()},
      "manifest");
}

namespace {

/// Parses "key=value" out of a manifest token; throws naming the line.
std::string field(const std::string& token, const char* key,
                  std::size_t line_number) {
  const std::string want = std::string(key) + "=";
  if (token.rfind(want, 0) != 0) {
    throw ArchiveError("manifest line " + std::to_string(line_number) +
                       ": expected " + want + "..., got '" + token + "'");
  }
  return token.substr(want.size());
}

std::uint64_t number_field(const std::string& token, const char* key,
                           std::size_t line_number) {
  const std::string value = field(token, key, line_number);
  try {
    std::size_t consumed = 0;
    const std::uint64_t parsed = std::stoull(value, &consumed);
    if (consumed != value.size()) throw std::invalid_argument(value);
    return parsed;
  } catch (const std::exception&) {
    throw ArchiveError("manifest line " + std::to_string(line_number) +
                       ": bad " + key + ": '" + value + "'");
  }
}

}  // namespace

Manifest Manifest::parse(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::size_t line_number = 0;
  Manifest manifest;
  if (!std::getline(in, line) ||
      line != "# laces-store manifest v" + std::to_string(kFormatVersion)) {
    throw ArchiveError("manifest line 1: bad or missing header: '" + line +
                       "'");
  }
  line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    std::istringstream tokens(line);
    std::string t[9];
    for (auto& token : t) {
      if (!(tokens >> token)) {
        throw ArchiveError("manifest line " + std::to_string(line_number) +
                           ": too few fields");
      }
    }
    ManifestEntry e;
    e.day = static_cast<std::uint32_t>(number_field(t[0], "day", line_number));
    e.degraded = number_field(t[1], "degraded", line_number) != 0;
    e.record_count =
        static_cast<std::uint32_t>(number_field(t[2], "records", line_number));
    e.anycast_detected =
        static_cast<std::uint32_t>(number_field(t[3], "anycast", line_number));
    e.gcd_confirmed =
        static_cast<std::uint32_t>(number_field(t[4], "gcd", line_number));
    e.segment_bytes = number_field(t[5], "segment_bytes", line_number);
    e.csv_bytes = number_field(t[6], "csv_bytes", line_number);
    e.file = field(t[7], "file", line_number);
    e.digest_hex = field(t[8], "sha256", line_number);
    if (e.digest_hex.size() != 64) {
      throw ArchiveError("manifest line " + std::to_string(line_number) +
                         ": bad sha256 length");
    }
    if (manifest.find(e.day) != nullptr) {
      throw ArchiveError("manifest line " + std::to_string(line_number) +
                         ": duplicate day " + std::to_string(e.day));
    }
    manifest.entries.push_back(std::move(e));
  }
  return manifest;
}

Manifest Manifest::load(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ArchiveError("manifest: cannot read " + path.string());
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse(buf.str());
}

}  // namespace laces::store

#include "store/format.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "util/sha256.hpp"

namespace laces::store {

void write_file_atomic(const std::filesystem::path& path,
                       std::span<const std::uint8_t> bytes, const char* what) {
  const std::filesystem::path tmp = path.string() + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw ArchiveError(std::string(what) + ": cannot write " + tmp.string());
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  // Small files sit entirely in the stream buffer until close() flushes
  // it, so the check must follow the close, not the write.
  out.close();
  if (!out) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    throw ArchiveError(std::string(what) + ": write failed for " +
                       tmp.string());
  }
  std::filesystem::rename(tmp, path);
}

std::string segment_file_name(std::uint32_t day) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "day-%05u.seg", day);
  return buf;
}

namespace {

std::uint64_t pack_v4(const net::Ipv4Prefix& p) {
  return (static_cast<std::uint64_t>(p.address().value()) << 8) | p.length();
}

net::Ipv4Prefix unpack_v4(std::uint64_t key) {
  return net::Ipv4Prefix(
      net::Ipv4Address(static_cast<std::uint32_t>(key >> 8)),
      static_cast<std::uint8_t>(key & 0xFF));
}

/// A length the file claims but no prefix can have is corruption that
/// passed the footer check, not a broken caller contract.
void check_prefix_length(std::uint64_t length, std::uint64_t max) {
  if (length > max) {
    throw ArchiveError("prefix list: bad prefix length " +
                       std::to_string(length));
  }
}

}  // namespace

void put_prefix_list(ByteWriter& w, std::span<const net::Prefix> prefixes) {
  w.varint(prefixes.size());
  std::uint64_t prev_v4 = 0;
  std::uint64_t prev_hi = 0;
  for (const auto& p : prefixes) {
    if (p.version() == net::IpVersion::kV4) {
      w.u8(4);
      const std::uint64_t key = pack_v4(p.v4());
      w.svarint(static_cast<std::int64_t>(key - prev_v4));
      prev_v4 = key;
    } else {
      w.u8(6);
      const auto& p6 = p.v6();
      const std::uint64_t hi = p6.address().hi();
      w.svarint(static_cast<std::int64_t>(hi - prev_hi));
      prev_hi = hi;
      w.varint(p6.address().lo());
      w.varint(p6.length());
    }
  }
}

std::vector<net::Prefix> get_prefix_list(ByteReader& r) {
  // An entry takes at least two bytes: the family tag and one varint.
  const std::size_t count = r.count(r.varint(), 2);
  std::vector<net::Prefix> out;
  out.reserve(count);
  std::uint64_t prev_v4 = 0;
  std::uint64_t prev_hi = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint8_t tag = r.u8();
    if (tag == 4) {
      prev_v4 += static_cast<std::uint64_t>(r.svarint());
      check_prefix_length(prev_v4 & 0xFF, 32);
      out.push_back(unpack_v4(prev_v4));
    } else if (tag == 6) {
      prev_hi += static_cast<std::uint64_t>(r.svarint());
      const std::uint64_t lo = r.varint();
      const std::uint64_t len = r.varint();
      check_prefix_length(len, 128);
      out.push_back(net::Ipv6Prefix(net::Ipv6Address(prev_hi, lo),
                                    static_cast<std::uint8_t>(len)));
    } else {
      throw ArchiveError("prefix list: bad family tag " +
                         std::to_string(tag));
    }
  }
  return out;
}

void put_sha256_footer(ByteWriter& w) {
  const Sha256Digest digest = Sha256::hash(w.view());
  w.bytes(digest);
}

std::span<const std::uint8_t> checked_payload(
    std::span<const std::uint8_t> bytes, const char* what) {
  if (bytes.size() < sizeof(Sha256Digest)) {
    throw ArchiveError(std::string(what) + ": truncated (" +
                       std::to_string(bytes.size()) + " bytes)");
  }
  const auto payload = bytes.subspan(0, bytes.size() - sizeof(Sha256Digest));
  const auto footer = bytes.subspan(payload.size());
  Sha256Digest stored;
  std::copy(footer.begin(), footer.end(), stored.begin());
  const Sha256Digest actual = Sha256::hash(payload);
  if (!digest_equal(stored, actual)) {
    throw ArchiveError(std::string(what) +
                       ": SHA-256 footer mismatch (stored " +
                       to_hex(stored) + ", computed " + to_hex(actual) + ")");
  }
  return payload;
}

}  // namespace laces::store

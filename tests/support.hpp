// Shared fixtures for the test suite: small deterministic worlds that keep
// individual tests fast while exercising every deployment family, scratch
// directories, whole-file reads, prefixes, duplicate result records and
// hand-built archive files.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/results.hpp"
#include "scenario/fuzzer.hpp"
#include "store/format.hpp"
#include "topo/world.hpp"

namespace laces::testing {

/// A small world (~1k v4 prefixes) with every deployment family present.
inline topo::WorldConfig small_world_config(std::uint64_t seed = 7) {
  topo::WorldConfig cfg;
  cfg.seed = seed;
  cfg.as_graph.tier1_count = 8;
  cfg.as_graph.transit_count = 60;
  cfg.as_graph.stub_count = 300;
  cfg.v4_unicast = 800;
  cfg.v4_unresponsive = 100;
  cfg.v4_medium_anycast_orgs = 10;
  cfg.v4_regional_anycast = 5;
  cfg.v4_global_bgp_unicast = 40;
  cfg.v4_temporary_anycast = 5;
  cfg.v4_partial_anycast = 10;
  cfg.dns_root_like = 3;
  cfg.udp_only_anycast = 2;
  cfg.tcp_only_anycast = 3;
  cfg.v6_unicast = 200;
  cfg.v6_unresponsive = 50;
  cfg.v6_medium_anycast_orgs = 5;
  cfg.v6_regional_anycast = 2;
  cfg.v6_backing_anycast = 5;
  // Small graphs need a higher filtering fraction so the v6-filtering
  // mechanism is reliably present.
  cfg.v6_filtering_transit_fraction = 0.10;
  return cfg;
}

/// A tiny world (~100 prefixes) for tests that only need a valid substrate:
/// the scenario fuzzer's default world under `seed`.
inline topo::WorldConfig tiny_world_config(std::uint64_t seed = 3) {
  auto cfg = scenario::FuzzOptions::default_fuzz_world_config();
  cfg.seed = seed;
  return cfg;
}

/// Shared per-suite world: generated once, reused by all tests in a binary.
inline const topo::World& shared_small_world() {
  static const topo::World world = topo::World::generate(small_world_config());
  return world;
}

inline const topo::World& shared_tiny_world() {
  static const topo::World world = topo::World::generate(tiny_world_config());
  return world;
}

/// Result records that collide on (target, rx, tx, protocol) — the record
/// identity the CLI dedups on. Must be zero after any run.
inline std::size_t duplicate_records(const core::MeasurementResults& results) {
  std::set<std::tuple<std::uint64_t, std::uint16_t, std::uint16_t, int>> seen;
  std::size_t dups = 0;
  for (const auto& rec : results.records) {
    if (!rec.tx_worker) continue;
    const auto key =
        std::make_tuple(net::hash_value(rec.target), rec.rx_worker,
                        *rec.tx_worker, static_cast<int>(rec.protocol));
    if (!seen.insert(key).second) ++dups;
  }
  return dups;
}

/// A fresh per-test scratch directory (removed and recreated each call).
inline std::filesystem::path fresh_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() / ("laces_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// The whole file; empty when it cannot be read.
inline std::vector<std::uint8_t> slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

inline net::Prefix v4(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                      std::uint8_t len = 24) {
  return net::Ipv4Prefix(net::Ipv4Address(a, b, c, 0), len);
}

inline net::Prefix v6(std::uint64_t hi, std::uint8_t len = 48) {
  return net::Ipv6Prefix(net::Ipv6Address(hi, 0), len);
}

/// An archive file whose empty prefix list (count byte at `at`) now holds
/// one prefix of `family` (4 or 6) claiming `length`, written as stored,
/// under a correct footer: only the decoder can object.
inline std::vector<std::uint8_t> with_one_prefix(
    std::span<const std::uint8_t> file, std::size_t at, std::uint8_t family,
    std::uint64_t length) {
  const auto payload = file.first(file.size() - 32);
  ByteWriter w;
  w.bytes(payload.first(at));
  w.varint(1);
  w.u8(family);
  if (family == 4) {
    // 10.0.0.0, packed as (address << 8 | length).
    w.svarint(static_cast<std::int64_t>((std::uint64_t{0x0A000000} << 8) |
                                        length));
  } else {
    w.svarint(0x20010db800000000);  // high address bits
    w.varint(0);                    // low address bits
    w.varint(length);
  }
  w.bytes(payload.subspan(at + 1));
  store::put_sha256_footer(w);
  return w.take();
}

}  // namespace laces::testing

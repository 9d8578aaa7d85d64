// One wire codec for the tagged binary planes: the control channel
// (core/messages), the query server (serve/protocol) and the relay mesh
// (mesh/wire).
//
// Each message layout is written once, as a function template over an
// `io` that is either an Encoder or a Decoder:
//
//   template <class IO, net::Of<Hello> M>
//   void body(IO& io, M& m) {
//     io.u64(m.node_id);
//     io.str(m.name);
//     io.flag(m.has_feed);
//   }
//
// The Encoder runs the body to append the fields to a ByteWriter; the
// Decoder runs the same body to read them back from a ByteReader. The two
// classes have the same method names, so a layout cannot drift between
// its writer and its reader. Every method is an inline template: a body
// compiles to the straight-line code a hand-written codec would.
//
// A message is its tag (variant index + 1) and its body: encode_tagged,
// decode_tagged. Every malformed input throws DecodeError.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "net/address.hpp"
#include "util/bytes.hpp"
#include "util/contracts.hpp"

namespace laces::net {

/// `M` is `T` or `const T`: one body template serves the Encoder's
/// read-only message and the Decoder's writable one.
template <class M, class T>
concept Of = std::same_as<std::remove_const_t<M>, T>;

/// Width of a list's element count on the wire.
enum class Count : std::uint8_t { kVarint, kU32 };

/// Fewest encoded bytes of an address (family byte + IPv4) and a prefix
/// (address + length byte): list bounds for ByteReader::count.
inline constexpr std::size_t kMinAddressBytes = 5;
inline constexpr std::size_t kMinPrefixBytes = 6;

/// Writes a body's fields to a ByteWriter.
class Encoder {
 public:
  explicit Encoder(ByteWriter& w) : w_(w) {}

  template <class T>
  void u8(const T& v) {
    w_.u8(static_cast<std::uint8_t>(v));
  }
  /// A byte the Decoder checks with `valid`; written like u8(v).
  template <class T, class Valid>
  void u8(const T& v, Valid&&, const char*) {
    u8(v);
  }
  template <class T>
  void u16(const T& v) {
    w_.u16(static_cast<std::uint16_t>(v));
  }
  template <class T>
  void u32(const T& v) {
    w_.u32(static_cast<std::uint32_t>(v));
  }
  template <class T>
  void u64(const T& v) {
    w_.u64(static_cast<std::uint64_t>(v));
  }
  /// A signed integer, or a SimTime/SimDuration as its nanoseconds.
  template <class T>
  void i64(const T& v) {
    if constexpr (std::is_arithmetic_v<T>) {
      w_.i64(v);
    } else {
      w_.i64(v.ns());
    }
  }
  void f64(double v) { w_.f64(v); }
  template <class T>
  void varint(const T& v) {
    w_.varint(static_cast<std::uint64_t>(v));
  }
  /// One byte, 1 or 0.
  void flag(bool v) { w_.u8(v ? 1 : 0); }
  /// Up to eight booleans in one byte, the first in the lowest bit.
  template <class... B>
  void bits(const B&... flags) {
    static_assert(sizeof...(B) <= 8);
    std::uint8_t byte = 0;
    unsigned bit = 0;
    ((byte |= static_cast<std::uint8_t>((flags ? 1u : 0u) << bit++)), ...);
    w_.u8(byte);
  }
  /// u32 length, then the characters.
  void str(const std::string& s) { w_.str(s); }
  /// u32 length, then the bytes.
  void blob(const std::vector<std::uint8_t>& b) {
    w_.u32(static_cast<std::uint32_t>(b.size()));
    w_.bytes(b);
  }
  /// Family byte (4 or 6), then the address bits.
  void address(const IpAddress& a) {
    if (a.is_v4()) {
      v4(a.v4());
    } else {
      v6(a.v6());
    }
  }
  /// The address codec, then the length byte.
  void prefix(const Prefix& p) {
    if (p.version() == IpVersion::kV4) {
      v4(p.v4().address());
      w_.u8(p.v4().length());
    } else {
      v6(p.v6().address());
      w_.u8(p.v6().length());
    }
  }
  /// Presence flag, then the value when present.
  template <class T, class Fn>
  void opt(const std::optional<T>& v, Fn&& value) {
    flag(v.has_value());
    if (v) value(*v);
  }
  /// Element count, then each element. `min_bytes` is the fewest bytes an
  /// element encodes to; the Decoder bounds the count with it, so an
  /// element that writes fewer breaks the contract.
  template <class T, class Fn>
  void list(const std::vector<T>& v, std::size_t min_bytes, Fn&& element,
            Count count = Count::kVarint) {
    if (count == Count::kU32) {
      w_.u32(static_cast<std::uint32_t>(v.size()));
    } else {
      w_.varint(v.size());
    }
    for (const T& e : v) {
      const std::size_t before = w_.size();
      element(e);
      expects(w_.size() - before >= min_bytes, "list element >= min_bytes");
    }
  }
  void prefix_list(const std::vector<Prefix>& v) {
    list(v, kMinPrefixBytes, [this](const Prefix& p) { prefix(p); });
  }

 private:
  void v4(Ipv4Address a) {
    w_.u8(4);
    w_.u32(a.value());
  }
  void v6(const Ipv6Address& a) {
    w_.u8(6);
    w_.u64(a.hi());
    w_.u64(a.lo());
  }

  ByteWriter& w_;
};

/// Reads a body's fields from a ByteReader. Throws DecodeError.
class Decoder {
 public:
  explicit Decoder(ByteReader& r) : r_(r) {}

  template <class T>
  void u8(T& v) {
    v = static_cast<T>(r_.u8());
  }
  /// A byte that must satisfy `valid`; `what` names it in the error.
  template <class T, class Valid>
  void u8(T& v, Valid&& valid, const char* what) {
    const std::uint8_t b = r_.u8();
    if (!valid(b)) {
      throw DecodeError(std::string(what) + " " + std::to_string(b));
    }
    v = static_cast<T>(b);
  }
  template <class T>
  void u16(T& v) {
    v = static_cast<T>(r_.u16());
  }
  template <class T>
  void u32(T& v) {
    v = static_cast<T>(r_.u32());
  }
  template <class T>
  void u64(T& v) {
    v = static_cast<T>(r_.u64());
  }
  template <class T>
  void i64(T& v) {
    v = T(r_.i64());
  }
  void f64(double& v) { v = r_.f64(); }
  template <class T>
  void varint(T& v) {
    v = static_cast<T>(r_.varint());
  }
  /// Any nonzero byte reads as true.
  void flag(bool& v) { v = r_.u8() != 0; }
  /// Rejects a byte with bits set beyond the flags it carries.
  template <class... B>
  void bits(B&... flags) {
    static_assert(sizeof...(B) <= 8);
    const std::uint8_t byte = r_.u8();
    if ((byte >> sizeof...(B)) != 0) {
      throw DecodeError("unknown flag bits " + std::to_string(byte));
    }
    unsigned bit = 0;
    ((flags = ((byte >> bit++) & 1) != 0), ...);
  }
  void str(std::string& s) { s = r_.str(); }
  void blob(std::vector<std::uint8_t>& b) {
    const auto bytes = r_.bytes(r_.u32());
    b.assign(bytes.begin(), bytes.end());
  }
  void address(IpAddress& a) {
    const std::uint8_t family = r_.u8();
    if (family == 4) {
      a = Ipv4Address(r_.u32());
    } else if (family == 6) {
      const std::uint64_t hi = r_.u64();
      a = Ipv6Address(hi, r_.u64());
    } else {
      throw DecodeError("bad IP version byte " + std::to_string(family));
    }
  }
  /// Rejects a length longer than the family's address.
  void prefix(Prefix& p) {
    IpAddress a;
    address(a);
    const std::uint8_t length = r_.u8();
    if (length > (a.is_v4() ? 32 : 128)) {
      throw DecodeError("bad prefix length " + std::to_string(length));
    }
    if (a.is_v4()) {
      p = Ipv4Prefix(a.v4(), length);
    } else {
      p = Ipv6Prefix(a.v6(), length);
    }
  }
  template <class T, class Fn>
  void opt(std::optional<T>& v, Fn&& value) {
    if (r_.u8() != 0) {
      value(v.emplace());
    } else {
      v.reset();
    }
  }
  /// Checks the count against the bytes left (at least `min_bytes` per
  /// element) before reserving, then reads each element.
  template <class T, class Fn>
  void list(std::vector<T>& v, std::size_t min_bytes, Fn&& element,
            Count count = Count::kVarint) {
    const std::uint64_t n = count == Count::kU32 ? r_.u32() : r_.varint();
    v.clear();
    v.reserve(r_.count(n, min_bytes));
    for (std::uint64_t i = 0; i < n; ++i) element(v.emplace_back());
  }
  void prefix_list(std::vector<Prefix>& v) {
    list(v, kMinPrefixBytes, [this](Prefix& p) { prefix(p); });
  }

 private:
  ByteReader& r_;
};

/// The tag of alternative `T` of variant `V`: its index + 1. The message
/// variants are append-only, so every existing tag keeps its bytes.
template <class V, class T, std::size_t I = 0>
constexpr std::uint8_t tag_of() {
  static_assert(I < std::variant_size_v<V>, "T is not an alternative of V");
  if constexpr (std::is_same_v<std::variant_alternative_t<I, V>, T>) {
    return static_cast<std::uint8_t>(I + 1);
  } else {
    return tag_of<V, T, I + 1>();
  }
}

/// Tag byte of `m` as an alternative of `V`, then its body. Encodes one
/// alternative without building the variant first.
template <class V, class T, class Body>
  requires(!std::is_same_v<T, V>)
std::vector<std::uint8_t> encode_tagged(const T& m, Body&& body) {
  ByteWriter w;
  w.u8(tag_of<V, T>());
  Encoder io(w);
  body(io, m);
  return w.take();
}

template <class V, class Body>
std::vector<std::uint8_t> encode_tagged(const V& message, Body&& body) {
  return std::visit(
      [&body](const auto& m) { return encode_tagged<V>(m, body); }, message);
}

/// Inverse of encode_tagged. Throws DecodeError on an unknown tag, a
/// malformed body or trailing bytes.
template <class V, class Body>
V decode_tagged(std::span<const std::uint8_t> bytes, Body&& body) {
  ByteReader r(bytes);
  Decoder io(r);
  const std::uint8_t tag = r.u8();
  V message;
  const bool known = [&]<std::size_t... I>(std::index_sequence<I...>) {
    return ((tag == I + 1 && (body(io, message.template emplace<I>()), true)) ||
            ...);
  }(std::make_index_sequence<std::variant_size_v<V>>{});
  if (!known) throw DecodeError("unknown tag " + std::to_string(tag));
  if (!r.done()) throw DecodeError("trailing bytes");
  return message;
}

/// Runs `fn`, rethrowing a DecodeError as `Error` prefixed with `what`, so
/// a plane's callers see one exception type for a malformed payload.
template <class Error, class Fn>
auto guarded(const char* what, Fn&& fn) {
  try {
    return fn();
  } catch (const DecodeError& e) {
    throw Error(std::string(what) + ": " + e.what());
  }
}

}  // namespace laces::net

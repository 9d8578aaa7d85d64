#include <gtest/gtest.h>

#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "util/sha256.hpp"
#include "util/sha256_kernels.hpp"

namespace laces {
namespace {

// FIPS 180-4 / NIST test vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(Sha256::hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(Sha256::hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(to_hex(Sha256::hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg = "The quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.update(msg.substr(0, split));
    h.update(msg.substr(split));
    EXPECT_EQ(h.finish(), Sha256::hash(msg)) << "split at " << split;
  }
}

TEST(Sha256, ExactBlockBoundaries) {
  for (std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const std::string msg(len, 'x');
    Sha256 a;
    a.update(msg);
    // One-shot and byte-at-a-time must agree at padding boundaries.
    Sha256 b;
    for (char c : msg) b.update(std::string_view(&c, 1));
    EXPECT_EQ(a.finish(), b.finish()) << "len " << len;
  }
}

// RFC 4231 HMAC-SHA256 test vectors.
TEST(HmacSha256, Rfc4231Case1) {
  const std::string key(20, '\x0b');
  EXPECT_EQ(to_hex(hmac_sha256(key, "Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  EXPECT_EQ(to_hex(hmac_sha256("Jefe", "what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case3) {
  const std::string key(20, '\xaa');
  const std::string data(50, '\xdd');
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256, LongKeyIsHashedFirst) {
  // RFC 4231 case 6: 131-byte key.
  const std::string key(131, '\xaa');
  EXPECT_EQ(to_hex(hmac_sha256(key, "Test Using Larger Than Block-Size Key - "
                                    "Hash Key First")),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256, DifferentKeysDisagree) {
  EXPECT_NE(hmac_sha256("key-a", "payload"), hmac_sha256("key-b", "payload"));
}

TEST(DigestEqual, EqualAndUnequal) {
  const auto a = Sha256::hash("x");
  auto b = a;
  EXPECT_TRUE(digest_equal(a, b));
  b[31] ^= 1;
  EXPECT_FALSE(digest_equal(a, b));
  b[31] ^= 1;
  b[0] ^= 0x80;
  EXPECT_FALSE(digest_equal(a, b));
}

TEST(ToHex, Formatting) {
  Sha256Digest d{};
  d[0] = 0x01;
  d[1] = 0xab;
  d[31] = 0xff;
  const auto hex = to_hex(d);
  EXPECT_EQ(hex.size(), 64u);
  EXPECT_EQ(hex.substr(0, 4), "01ab");
  EXPECT_EQ(hex.substr(62, 2), "ff");
}

// --- Compression kernels: the portable kernel and SHA-NI must agree. ---

struct KernelCase {
  const char* name;
  Sha256::Kernel kernel;
  bool supported;
  friend void PrintTo(const KernelCase& c, std::ostream* os) { *os << c.name; }
};

std::vector<KernelCase> kernel_cases() {
  std::vector<KernelCase> cases{{"portable", sha256_kernels::portable, true}};
#if defined(__x86_64__)
  cases.push_back(
      {"shani", sha256_kernels::shani, sha256_kernels::shani_supported()});
#endif
  return cases;
}

Sha256Digest hash_with(Sha256::Kernel kernel, std::string_view s) {
  Sha256 h(kernel);
  h.update(s);
  return h.finish();
}

class Sha256Kernel : public ::testing::TestWithParam<KernelCase> {
 protected:
  void SetUp() override {
    if (!GetParam().supported) GTEST_SKIP() << "CPU lacks the sha extension";
  }
  Sha256::Kernel kernel() const { return GetParam().kernel; }
};

TEST_P(Sha256Kernel, NistVectors) {
  EXPECT_EQ(to_hex(hash_with(kernel(), "")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(to_hex(hash_with(kernel(), "abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      to_hex(hash_with(
          kernel(),
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  Sha256 h(kernel());
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST_P(Sha256Kernel, Rfc4231Vectors) {
  const auto bytes = [](const std::string& s) {
    return std::span(reinterpret_cast<const std::uint8_t*>(s.data()),
                     s.size());
  };
  const auto hmac = [&](const std::string& key, const std::string& data) {
    return to_hex(sha256_kernels::hmac(kernel(), bytes(key), bytes(data)));
  };
  EXPECT_EQ(hmac(std::string(20, '\x0b'), "Hi There"),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  EXPECT_EQ(hmac("Jefe", "what do ya want for nothing?"),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  EXPECT_EQ(hmac(std::string(20, '\xaa'), std::string(50, '\xdd')),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
  EXPECT_EQ(hmac(std::string(131, '\xaa'),
                 "Test Using Larger Than Block-Size Key - Hash Key First"),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST_P(Sha256Kernel, MatchesPortableOnRandomInputs) {
  std::mt19937_64 rng(20251017);
  std::string buf(4096 + 16, '\0');
  for (char& c : buf) c = static_cast<char>(rng());
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t len = rng() % 4097;
    const std::string_view msg(buf.data(), len);
    EXPECT_EQ(hash_with(kernel(), msg), hash_with(sha256_kernels::portable, msg))
        << "len " << len;
  }
  // Unaligned input: every offset 1-15 into the buffer.
  for (std::size_t offset = 1; offset < 16; ++offset) {
    const std::string_view msg(buf.data() + offset, 1000 + offset);
    EXPECT_EQ(hash_with(kernel(), msg), hash_with(sha256_kernels::portable, msg))
        << "offset " << offset;
  }
}

TEST_P(Sha256Kernel, EverySplitOfTheFirstThreeBlocks) {
  std::string msg(3 * 64 + 37, '\0');
  for (std::size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<char>(i * 131 + 7);
  }
  const auto expect = hash_with(sha256_kernels::portable, msg);
  for (std::size_t split = 0; split <= 3 * 64; ++split) {
    Sha256 h(kernel());
    h.update(std::string_view(msg).substr(0, split));
    h.update(std::string_view(msg).substr(split));
    EXPECT_EQ(h.finish(), expect) << "split at " << split;
  }
}

TEST(Sha256Kernel, DefaultUsesShaniWhenTheCpuHasIt) {
#if defined(__x86_64__)
  EXPECT_EQ(sha256_kernels::selected() == sha256_kernels::shani,
            sha256_kernels::shani_supported());
#else
  EXPECT_EQ(sha256_kernels::selected(), sha256_kernels::portable);
#endif
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, Sha256Kernel, ::testing::ValuesIn(kernel_cases()),
    [](const ::testing::TestParamInfo<KernelCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace laces

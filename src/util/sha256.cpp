#include "util/sha256.hpp"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "util/sha256_kernels.hpp"

namespace laces {
namespace {

constexpr std::array<std::uint32_t, 64> kRound = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

Sha256::Kernel pick_kernel() {
#if defined(__x86_64__)
  if (sha256_kernels::shani_supported()) return sha256_kernels::shani;
#endif
  return sha256_kernels::portable;
}

// Constant-initialized to the portable kernel, so a Sha256 built by another
// file's static initializer before this file's runs still hashes correctly;
// this file's dynamic initialization then installs the pick, once.
Sha256::Kernel g_kernel = sha256_kernels::portable;
[[maybe_unused]] const bool g_kernel_picked = (g_kernel = pick_kernel(), true);

}  // namespace

namespace sha256_kernels {

void portable(std::uint32_t* state, const std::uint8_t* blocks,
              std::size_t count) {
  std::uint32_t w[64];
  for (; count > 0; --count, blocks += 64) {
    for (int i = 0; i < 16; ++i) {
      w[i] = (std::uint32_t{blocks[4 * i]} << 24) |
             (std::uint32_t{blocks[4 * i + 1]} << 16) |
             (std::uint32_t{blocks[4 * i + 2]} << 8) |
             std::uint32_t{blocks[4 * i + 3]};
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kRound[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

bool shani_supported() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("sha");
#else
  return false;
#endif
}

#if defined(__x86_64__)
// Intel SHA extensions. The state lives in two registers as ABEF and CDGH;
// each sha256rnds2 does two rounds, and message words are scheduled four at
// a time with sha256msg1/msg2.
__attribute__((target("sha,sse4.1"))) void shani(std::uint32_t* state,
                                                 const std::uint8_t* blocks,
                                                 std::size_t count) {
  // Byte-swaps each 32-bit word: the message is big-endian.
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i state1 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);             // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);       // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);  // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);       // CDGH

  for (; count > 0; --count, blocks += 64) {
    const __m128i abef = state0;
    const __m128i cdgh = state1;
    __m128i w[4];  // message words 4g..4g+3 of group g, in w[g % 4]
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i& cur = w[g & 3];
      if (g < 4) {
        cur = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * g)),
            kByteSwap);
      } else {
        // cur holds group g-4: W[t-16] + s0(W[t-15]) + W[t-7] + s1(W[t-2]).
        const __m128i prev = w[(g - 1) & 3];
        cur = _mm_sha256msg1_epu32(cur, w[(g - 3) & 3]);
        cur = _mm_add_epi32(cur, _mm_alignr_epi8(prev, w[(g - 2) & 3], 4));
        cur = _mm_sha256msg2_epu32(cur, prev);
      }
      const __m128i wk = _mm_add_epi32(
          cur, _mm_loadu_si128(
                   reinterpret_cast<const __m128i*>(kRound.data() + 4 * g)));
      state1 = _mm_sha256rnds2_epu32(state1, state0, wk);
      state0 =
          _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(wk, 0x0E));
    }
    state0 = _mm_add_epi32(state0, abef);
    state1 = _mm_add_epi32(state1, cdgh);
  }

  tmp = _mm_shuffle_epi32(state0, 0x1B);        // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);     // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);  // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);     // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), state1);
}
#endif

Sha256::Kernel selected() { return g_kernel; }

}  // namespace sha256_kernels

Sha256::Sha256() : compress_(g_kernel) { reset(); }

void Sha256::reset() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buffered_ = 0;
  total_bytes_ = 0;
}

void Sha256::update(std::span<const std::uint8_t> data) {
  total_bytes_ += data.size();
  std::size_t pos = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    pos = take;
    if (buffered_ == 64) {
      compress_(state_.data(), buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  if (const std::size_t blocks = (data.size() - pos) / 64; blocks > 0) {
    compress_(state_.data(), data.data() + pos, blocks);
    pos += 64 * blocks;
  }
  if (pos < data.size()) {
    std::memcpy(buffer_.data(), data.data() + pos, data.size() - pos);
    buffered_ = data.size() - pos;
  }
}

Sha256Digest Sha256::finish() {
  const std::uint64_t bit_len = total_bytes_ * 8;
  const std::uint8_t pad_start = 0x80;
  update(std::span(&pad_start, 1));
  static constexpr std::uint8_t kZero[64] = {};
  while (buffered_ != 56) {
    const std::size_t need = buffered_ < 56 ? 56 - buffered_ : 64 - buffered_;
    update(std::span(kZero, need));
  }
  std::uint8_t len_be[8];
  for (int i = 0; i < 8; ++i) {
    len_be[i] = static_cast<std::uint8_t>(bit_len >> (8 * (7 - i)));
  }
  update(std::span(len_be, 8));

  Sha256Digest out{};
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Sha256Digest Sha256::hash(std::span<const std::uint8_t> data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Sha256Digest Sha256::hash(std::string_view s) {
  Sha256 h;
  h.update(s);
  return h.finish();
}

Sha256Digest sha256_kernels::hmac(Sha256::Kernel kernel,
                                  std::span<const std::uint8_t> key,
                                  std::span<const std::uint8_t> data) {
  std::array<std::uint8_t, 64> k_block{};
  if (key.size() > 64) {
    Sha256 kh(kernel);
    kh.update(key);
    const Sha256Digest kd = kh.finish();
    std::memcpy(k_block.data(), kd.data(), kd.size());
  } else {
    std::memcpy(k_block.data(), key.data(), key.size());
  }
  std::array<std::uint8_t, 64> ipad{}, opad{};
  for (int i = 0; i < 64; ++i) {
    ipad[i] = static_cast<std::uint8_t>(k_block[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(k_block[i] ^ 0x5c);
  }
  Sha256 inner(kernel);
  inner.update(ipad);
  inner.update(data);
  const Sha256Digest inner_digest = inner.finish();

  Sha256 outer(kernel);
  outer.update(opad);
  outer.update(inner_digest);
  return outer.finish();
}

Sha256Digest hmac_sha256(std::span<const std::uint8_t> key,
                         std::span<const std::uint8_t> data) {
  return sha256_kernels::hmac(g_kernel, key, data);
}

Sha256Digest hmac_sha256(std::string_view key, std::string_view data) {
  return hmac_sha256(
      std::span(reinterpret_cast<const std::uint8_t*>(key.data()), key.size()),
      std::span(reinterpret_cast<const std::uint8_t*>(data.data()),
                data.size()));
}

bool digest_equal(const Sha256Digest& a, const Sha256Digest& b) {
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) diff |= a[i] ^ b[i];
  return diff == 0;
}

std::string to_hex(const Sha256Digest& d) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (auto b : d) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

}  // namespace laces

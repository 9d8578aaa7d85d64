// SHA-256 compression kernels, exposed for the kernel-equivalence tests.
//
// Sha256 picks one kernel at static initialization: the x86-64 SHA-NI
// kernel when the CPU reports the `sha` extension, otherwise the portable
// one. Both produce the same digests; nothing outside util/ and the tests
// should need this header.
#pragma once

#include <span>

#include "util/sha256.hpp"

namespace laces::sha256_kernels {

/// Plain C++ compression, any CPU.
void portable(std::uint32_t* state, const std::uint8_t* blocks,
              std::size_t count);

/// True when this build has the SHA-NI kernel and the CPU can run it.
bool shani_supported();

#if defined(__x86_64__)
/// x86-64 SHA extensions; call only when shani_supported().
void shani(std::uint32_t* state, const std::uint8_t* blocks,
           std::size_t count);
#endif

/// The kernel Sha256's default constructor uses.
Sha256::Kernel selected();

/// HMAC-SHA256 computed with `kernel` (the public hmac_sha256 passes
/// selected()).
Sha256Digest hmac(Sha256::Kernel kernel, std::span<const std::uint8_t> key,
                  std::span<const std::uint8_t> data);

}  // namespace laces::sha256_kernels

// ChaCha20 stream cipher (RFC 8439, 96-bit nonce / 32-bit counter variant).
//
// Serves two roles: the cipher half of the ChaCha20-Poly1305 AEAD that
// encrypts every envelope and onion layer, and the core of `ChaChaRng`, the
// deterministic CSPRNG behind mix-server permutations and noise dead-drop IDs.
// Validated against the RFC 8439 §2.3.2/§2.4.2 vectors and, at every length
// up to 1100 bytes, against a scalar block-by-block oracle (tests/).
//
// One kernel computes everything: `ChaCha20Blocks4` runs 4 consecutive
// blocks (256 bytes) at once. Each of the 16 state words is a 4-lane
// `uint32_t` vector (GCC/Clang `vector_size(16)`), lane j holding that word
// of block `counter + j`; the counter lanes wrap mod 2^32 like the RFC's
// 32-bit counter. After the 20 rounds a 4x4 transpose per group of four
// words turns lanes back into blocks. The vectors are SSE2-sized and the code
// uses no intrinsics, no `-m` flags and no runtime CPU dispatch: every build
// of this file runs the same kernel. The transpose needs
// `__builtin_shufflevector` (GCC 12+ or Clang).

#ifndef VUVUZELA_SRC_CRYPTO_CHACHA20_H_
#define VUVUZELA_SRC_CRYPTO_CHACHA20_H_

#include <array>
#include <cstdint>

#include "src/util/bytes.h"

namespace vuvuzela::crypto {

inline constexpr size_t kChaCha20KeySize = 32;
inline constexpr size_t kChaCha20NonceSize = 12;
inline constexpr size_t kChaCha20BlockSize = 64;
inline constexpr size_t kChaCha20KernelBlocks = 4;
inline constexpr size_t kChaCha20KernelSize = kChaCha20KernelBlocks * kChaCha20BlockSize;

using ChaCha20Key = std::array<uint8_t, kChaCha20KeySize>;
using ChaCha20Nonce = std::array<uint8_t, kChaCha20NonceSize>;

// The kernel: writes the keystream of blocks counter, counter+1, counter+2,
// counter+3 (mod 2^32) into `out`.
void ChaCha20Blocks4(const ChaCha20Key& key, const ChaCha20Nonce& nonce, uint32_t counter,
                     uint8_t out[kChaCha20KernelSize]);

// Writes one 64-byte keystream block for (key, nonce, counter) into `out`.
void ChaCha20Block(const ChaCha20Key& key, const ChaCha20Nonce& nonce, uint32_t counter,
                   uint8_t out[kChaCha20BlockSize]);

// XORs `input` with the keystream starting at block `initial_counter` and
// writes to `output` (which may alias `input`). Sizes must match.
void ChaCha20Xor(const ChaCha20Key& key, const ChaCha20Nonce& nonce, uint32_t initial_counter,
                 util::ByteSpan input, util::MutableByteSpan output);

// output[i] = input[i] ^ keystream[i] for every i < input.size(): applies
// keystream the caller already holds (the AEAD's first kernel call).
// `output` must be input.size() bytes and may alias `input`.
void ChaCha20XorKeystream(const uint8_t* keystream, util::ByteSpan input,
                          util::MutableByteSpan output);

}  // namespace vuvuzela::crypto

#endif  // VUVUZELA_SRC_CRYPTO_CHACHA20_H_

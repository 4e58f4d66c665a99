// Poly1305 one-time authenticator (RFC 8439 §2.5).
//
// Tag half of the ChaCha20-Poly1305 AEAD. Validated against the RFC 8439
// §2.5.2 and §A.3 vectors, the AEAD vectors, and a donna-32 oracle (tests/)
// on random and carry-edge inputs.
//
// Arithmetic is poly1305-donna-64: the accumulator h and the clamped r are
// three limbs of 44, 44 and 42 bits in uint64_t, multiplied with
// `unsigned __int128` products and reduced mod 2^130 - 5 by folding the
// overflow back times 5. Whole 16-byte blocks are read straight from the
// caller's span; only a trailing partial block is buffered. One portable
// implementation, no CPU dispatch.

#ifndef VUVUZELA_SRC_CRYPTO_POLY1305_H_
#define VUVUZELA_SRC_CRYPTO_POLY1305_H_

#include <array>
#include <cstdint>

#include "src/util/bytes.h"

namespace vuvuzela::crypto {

inline constexpr size_t kPoly1305KeySize = 32;
inline constexpr size_t kPoly1305TagSize = 16;
inline constexpr size_t kPoly1305BlockSize = 16;

using Poly1305Key = std::array<uint8_t, kPoly1305KeySize>;
using Poly1305Tag = std::array<uint8_t, kPoly1305TagSize>;

// Incremental Poly1305. The key must be used for exactly one message.
class Poly1305 {
 public:
  explicit Poly1305(const Poly1305Key& key);

  void Update(util::ByteSpan data);
  Poly1305Tag Finish();

  static Poly1305Tag Compute(const Poly1305Key& key, util::ByteSpan data);

 private:
  // Absorbs `nblocks` 16-byte blocks from `m`; `hibit` is 2^128 (in limb-2
  // position) for full message blocks and 0 for the padded final block.
  void Blocks(const uint8_t* m, size_t nblocks, uint64_t hibit);

  uint64_t r_[3];
  uint64_t h_[3] = {0, 0, 0};
  uint64_t pad_[2];
  uint8_t buffer_[kPoly1305BlockSize];
  size_t buffered_ = 0;
  bool finished_ = false;
};

}  // namespace vuvuzela::crypto

#endif  // VUVUZELA_SRC_CRYPTO_POLY1305_H_

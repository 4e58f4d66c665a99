#include "src/crypto/chacha20.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace vuvuzela::crypto {

namespace {

// Keystream words are stored by copying lane vectors straight to bytes.
static_assert(std::endian::native == std::endian::little, "ChaCha20 kernel assumes little-endian");

using U32x4 = uint32_t __attribute__((vector_size(16)));
using U8x16 = uint8_t __attribute__((vector_size(16)));

template <int N>
inline U32x4 Rotl(U32x4 x) {
  return (x << N) | (x >> (32 - N));
}

inline void QuarterRound(U32x4& a, U32x4& b, U32x4& c, U32x4& d) {
  a += b;
  d = Rotl<16>(d ^ a);
  c += d;
  b = Rotl<12>(b ^ c);
  a += b;
  d = Rotl<8>(d ^ a);
  c += d;
  b = Rotl<7>(b ^ c);
}

inline U32x4 Splat(uint32_t v) { return U32x4{v, v, v, v}; }

// Lane vectors of the input state: constants, key, 4 counters, nonce.
inline void InitState(U32x4 x[16], const ChaCha20Key& key, const ChaCha20Nonce& nonce,
                      uint32_t counter) {
  x[0] = Splat(0x61707865);
  x[1] = Splat(0x3320646e);
  x[2] = Splat(0x79622d32);
  x[3] = Splat(0x6b206574);
  for (int i = 0; i < 8; ++i) {
    x[4 + i] = Splat(util::LoadLe32(key.data() + 4 * i));
  }
  x[12] = U32x4{counter, counter + 1, counter + 2, counter + 3};
  for (int i = 0; i < 3; ++i) {
    x[13 + i] = Splat(util::LoadLe32(nonce.data() + 4 * i));
  }
}

inline void Store(uint8_t* p, U32x4 v) { std::memcpy(p, &v, sizeof(v)); }

}  // namespace

void ChaCha20Blocks4(const ChaCha20Key& key, const ChaCha20Nonce& nonce, uint32_t counter,
                     uint8_t out[kChaCha20KernelSize]) {
  U32x4 x[16];
  InitState(x, key, nonce, counter);
  for (int i = 0; i < 10; ++i) {
    QuarterRound(x[0], x[4], x[8], x[12]);
    QuarterRound(x[1], x[5], x[9], x[13]);
    QuarterRound(x[2], x[6], x[10], x[14]);
    QuarterRound(x[3], x[7], x[11], x[15]);
    QuarterRound(x[0], x[5], x[10], x[15]);
    QuarterRound(x[1], x[6], x[11], x[12]);
    QuarterRound(x[2], x[7], x[8], x[13]);
    QuarterRound(x[3], x[4], x[9], x[14]);
  }
  // Re-deriving the input state is cheaper than keeping 16 more vectors live
  // through the rounds.
  U32x4 in[16];
  InitState(in, key, nonce, counter);
  for (int g = 0; g < 4; ++g) {
    // Words 4g..4g+3 of the four blocks: transpose lanes into blocks.
    U32x4 a = x[4 * g] + in[4 * g];
    U32x4 b = x[4 * g + 1] + in[4 * g + 1];
    U32x4 c = x[4 * g + 2] + in[4 * g + 2];
    U32x4 d = x[4 * g + 3] + in[4 * g + 3];
    U32x4 ab_lo = __builtin_shufflevector(a, b, 0, 4, 1, 5);
    U32x4 cd_lo = __builtin_shufflevector(c, d, 0, 4, 1, 5);
    U32x4 ab_hi = __builtin_shufflevector(a, b, 2, 6, 3, 7);
    U32x4 cd_hi = __builtin_shufflevector(c, d, 2, 6, 3, 7);
    uint8_t* p = out + 16 * g;
    Store(p + 0 * kChaCha20BlockSize, __builtin_shufflevector(ab_lo, cd_lo, 0, 1, 4, 5));
    Store(p + 1 * kChaCha20BlockSize, __builtin_shufflevector(ab_lo, cd_lo, 2, 3, 6, 7));
    Store(p + 2 * kChaCha20BlockSize, __builtin_shufflevector(ab_hi, cd_hi, 0, 1, 4, 5));
    Store(p + 3 * kChaCha20BlockSize, __builtin_shufflevector(ab_hi, cd_hi, 2, 3, 6, 7));
  }
}

void ChaCha20Block(const ChaCha20Key& key, const ChaCha20Nonce& nonce, uint32_t counter,
                   uint8_t out[kChaCha20BlockSize]) {
  uint8_t blocks[kChaCha20KernelSize];
  ChaCha20Blocks4(key, nonce, counter, blocks);
  std::memcpy(out, blocks, kChaCha20BlockSize);
}

void ChaCha20XorKeystream(const uint8_t* keystream, util::ByteSpan input,
                          util::MutableByteSpan output) {
  const size_t n = input.size();
  size_t i = 0;
  for (; i + sizeof(U8x16) <= n; i += sizeof(U8x16)) {
    U8x16 m, k;
    std::memcpy(&m, input.data() + i, sizeof(m));
    std::memcpy(&k, keystream + i, sizeof(k));
    m ^= k;
    std::memcpy(output.data() + i, &m, sizeof(m));
  }
  for (; i < n; ++i) {
    output[i] = static_cast<uint8_t>(input[i] ^ keystream[i]);
  }
}

void ChaCha20Xor(const ChaCha20Key& key, const ChaCha20Nonce& nonce, uint32_t initial_counter,
                 util::ByteSpan input, util::MutableByteSpan output) {
  if (input.size() != output.size()) {
    throw std::invalid_argument("ChaCha20Xor: size mismatch");
  }
  uint8_t keystream[kChaCha20KernelSize];
  uint32_t counter = initial_counter;
  for (size_t off = 0; off < input.size(); off += kChaCha20KernelSize) {
    ChaCha20Blocks4(key, nonce, counter, keystream);
    counter += kChaCha20KernelBlocks;
    size_t take = std::min(input.size() - off, kChaCha20KernelSize);
    ChaCha20XorKeystream(keystream, input.subspan(off, take), output.subspan(off, take));
  }
}

}  // namespace vuvuzela::crypto

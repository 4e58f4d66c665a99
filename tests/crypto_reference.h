// Scalar reference implementations of the symmetric primitives, kept as
// differential oracles for the production code in src/crypto:
//
//   * a one-block-at-a-time ChaCha20 block function and XOR (RFC 8439 §2.3,
//     §2.4), the oracle for the 4-lane kernel;
//   * poly1305-donna-32 (five 26-bit limbs), the oracle for donna-64;
//   * an AEAD built from those two with a separate MAC-key block (§2.8);
//   * ChaChaRng's byte stream, block by block, including the key ratchet
//     after 2^32 blocks.
//
// Straightforward and slow on purpose. Header-only; tests include it.

#ifndef VUVUZELA_TESTS_CRYPTO_REFERENCE_H_
#define VUVUZELA_TESTS_CRYPTO_REFERENCE_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>

#include "src/crypto/aead.h"
#include "src/util/bytes.h"

namespace vuvuzela::crypto::reference {

// --- ChaCha20 ----------------------------------------------------------------

inline uint32_t Rotl(uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

inline void QuarterRound(uint32_t& a, uint32_t& b, uint32_t& c, uint32_t& d) {
  a += b;
  d ^= a;
  d = Rotl(d, 16);
  c += d;
  b ^= c;
  b = Rotl(b, 12);
  a += b;
  d ^= a;
  d = Rotl(d, 8);
  c += d;
  b ^= c;
  b = Rotl(b, 7);
}

inline void ChaCha20Block(const ChaCha20Key& key, const ChaCha20Nonce& nonce, uint32_t counter,
                          uint8_t out[kChaCha20BlockSize]) {
  uint32_t state[16];
  state[0] = 0x61707865;
  state[1] = 0x3320646e;
  state[2] = 0x79622d32;
  state[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) {
    state[4 + i] = util::LoadLe32(key.data() + 4 * i);
  }
  state[12] = counter;
  for (int i = 0; i < 3; ++i) {
    state[13 + i] = util::LoadLe32(nonce.data() + 4 * i);
  }
  uint32_t x[16];
  std::memcpy(x, state, sizeof(x));
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
  for (int i = 0; i < 16; ++i) {
    util::StoreLe32(out + 4 * i, x[i] + state[i]);
  }
}

// Byte-at-a-time XOR with the keystream from block `counter` on; the 32-bit
// counter wraps. `output` may alias `input`.
inline void ChaCha20Xor(const ChaCha20Key& key, const ChaCha20Nonce& nonce, uint32_t counter,
                        util::ByteSpan input, util::MutableByteSpan output) {
  uint8_t block[kChaCha20BlockSize];
  for (size_t off = 0; off < input.size(); off += kChaCha20BlockSize) {
    ChaCha20Block(key, nonce, counter++, block);
    size_t take = std::min(input.size() - off, kChaCha20BlockSize);
    for (size_t i = 0; i < take; ++i) {
      output[off + i] = static_cast<uint8_t>(input[off + i] ^ block[i]);
    }
  }
}

// --- Poly1305 (donna-32) -----------------------------------------------------

class Poly1305Donna32 {
 public:
  explicit Poly1305Donna32(const Poly1305Key& key) {
    const uint8_t* k = key.data();
    r_[0] = util::LoadLe32(k + 0) & 0x03ffffff;
    r_[1] = (util::LoadLe32(k + 3) >> 2) & 0x03ffff03;
    r_[2] = (util::LoadLe32(k + 6) >> 4) & 0x03ffc0ff;
    r_[3] = (util::LoadLe32(k + 9) >> 6) & 0x03f03fff;
    r_[4] = (util::LoadLe32(k + 12) >> 8) & 0x000fffff;
    std::memcpy(pad_, k + 16, 16);
  }

  void Update(util::ByteSpan data) {
    for (uint8_t byte : data) {
      buffer_[buffered_++] = byte;
      if (buffered_ == 16) {
        uint8_t block[17];
        std::memcpy(block, buffer_, 16);
        block[16] = 1;
        ProcessBlock(block);
        buffered_ = 0;
      }
    }
  }

  Poly1305Tag Finish() {
    if (buffered_ > 0) {
      uint8_t block[17] = {0};
      std::memcpy(block, buffer_, buffered_);
      block[buffered_] = 1;
      ProcessBlock(block);
    }
    uint32_t h0 = h_[0], h1 = h_[1], h2 = h_[2], h3 = h_[3], h4 = h_[4];
    uint32_t c = h1 >> 26;
    h1 &= 0x03ffffff;
    h2 += c;
    c = h2 >> 26;
    h2 &= 0x03ffffff;
    h3 += c;
    c = h3 >> 26;
    h3 &= 0x03ffffff;
    h4 += c;
    c = h4 >> 26;
    h4 &= 0x03ffffff;
    h0 += c * 5;
    c = h0 >> 26;
    h0 &= 0x03ffffff;
    h1 += c;

    uint32_t g0 = h0 + 5;
    c = g0 >> 26;
    g0 &= 0x03ffffff;
    uint32_t g1 = h1 + c;
    c = g1 >> 26;
    g1 &= 0x03ffffff;
    uint32_t g2 = h2 + c;
    c = g2 >> 26;
    g2 &= 0x03ffffff;
    uint32_t g3 = h3 + c;
    c = g3 >> 26;
    g3 &= 0x03ffffff;
    uint32_t g4 = h4 + c - (1u << 26);

    uint32_t mask = (g4 >> 31) - 1;
    h0 = (h0 & ~mask) | (g0 & mask);
    h1 = (h1 & ~mask) | (g1 & mask);
    h2 = (h2 & ~mask) | (g2 & mask);
    h3 = (h3 & ~mask) | (g3 & mask);
    h4 = (h4 & ~mask) | (g4 & mask);

    uint32_t f0 = h0 | (h1 << 26);
    uint32_t f1 = (h1 >> 6) | (h2 << 20);
    uint32_t f2 = (h2 >> 12) | (h3 << 14);
    uint32_t f3 = (h3 >> 18) | (h4 << 8);
    uint64_t acc = static_cast<uint64_t>(f0) + util::LoadLe32(pad_ + 0);
    f0 = static_cast<uint32_t>(acc);
    acc = static_cast<uint64_t>(f1) + util::LoadLe32(pad_ + 4) + (acc >> 32);
    f1 = static_cast<uint32_t>(acc);
    acc = static_cast<uint64_t>(f2) + util::LoadLe32(pad_ + 8) + (acc >> 32);
    f2 = static_cast<uint32_t>(acc);
    acc = static_cast<uint64_t>(f3) + util::LoadLe32(pad_ + 12) + (acc >> 32);
    f3 = static_cast<uint32_t>(acc);

    Poly1305Tag tag;
    util::StoreLe32(tag.data() + 0, f0);
    util::StoreLe32(tag.data() + 4, f1);
    util::StoreLe32(tag.data() + 8, f2);
    util::StoreLe32(tag.data() + 12, f3);
    return tag;
  }

  static Poly1305Tag Compute(const Poly1305Key& key, util::ByteSpan data) {
    Poly1305Donna32 p(key);
    p.Update(data);
    return p.Finish();
  }

 private:
  // Adds the 17-byte value (block[16] carries the 2^128 coefficient) to h,
  // then h *= r mod 2^130 - 5.
  void ProcessBlock(const uint8_t block[17]) {
    uint32_t h0 = h_[0] + (util::LoadLe32(block + 0) & 0x03ffffff);
    uint32_t h1 = h_[1] + ((util::LoadLe32(block + 3) >> 2) & 0x03ffffff);
    uint32_t h2 = h_[2] + ((util::LoadLe32(block + 6) >> 4) & 0x03ffffff);
    uint32_t h3 = h_[3] + ((util::LoadLe32(block + 9) >> 6) & 0x03ffffff);
    uint32_t h4 = h_[4] + ((util::LoadLe32(block + 12) >> 8) |
                           (static_cast<uint32_t>(block[16]) << 24));
    uint64_t r0 = r_[0], r1 = r_[1], r2 = r_[2], r3 = r_[3], r4 = r_[4];
    uint64_t s1 = r1 * 5, s2 = r2 * 5, s3 = r3 * 5, s4 = r4 * 5;
    uint64_t d0 = h0 * r0 + h1 * s4 + h2 * s3 + h3 * s2 + h4 * s1;
    uint64_t d1 = h0 * r1 + h1 * r0 + h2 * s4 + h3 * s3 + h4 * s2;
    uint64_t d2 = h0 * r2 + h1 * r1 + h2 * r0 + h3 * s4 + h4 * s3;
    uint64_t d3 = h0 * r3 + h1 * r2 + h2 * r1 + h3 * r0 + h4 * s4;
    uint64_t d4 = h0 * r4 + h1 * r3 + h2 * r2 + h3 * r1 + h4 * r0;

    uint64_t c = d0 >> 26;
    h_[0] = static_cast<uint32_t>(d0) & 0x03ffffff;
    d1 += c;
    c = d1 >> 26;
    h_[1] = static_cast<uint32_t>(d1) & 0x03ffffff;
    d2 += c;
    c = d2 >> 26;
    h_[2] = static_cast<uint32_t>(d2) & 0x03ffffff;
    d3 += c;
    c = d3 >> 26;
    h_[3] = static_cast<uint32_t>(d3) & 0x03ffffff;
    d4 += c;
    c = d4 >> 26;
    h_[4] = static_cast<uint32_t>(d4) & 0x03ffffff;
    h_[0] += static_cast<uint32_t>(c * 5);
    c = h_[0] >> 26;
    h_[0] &= 0x03ffffff;
    h_[1] += static_cast<uint32_t>(c);
  }

  uint32_t r_[5];
  uint32_t h_[5] = {0, 0, 0, 0, 0};
  uint8_t pad_[16];
  uint8_t buffer_[16];
  size_t buffered_ = 0;
};

// --- AEAD --------------------------------------------------------------------

inline Poly1305Tag AeadTag(const AeadKey& key, const AeadNonce& nonce, util::ByteSpan aad,
                           util::ByteSpan ciphertext) {
  uint8_t block0[kChaCha20BlockSize];
  ChaCha20Block(key, nonce, 0, block0);
  Poly1305Key mac_key;
  std::memcpy(mac_key.data(), block0, mac_key.size());
  static constexpr uint8_t kZeroPad[16] = {0};
  Poly1305Donna32 mac(mac_key);
  mac.Update(aad);
  mac.Update(util::ByteSpan(kZeroPad, (16 - aad.size() % 16) % 16));
  mac.Update(ciphertext);
  mac.Update(util::ByteSpan(kZeroPad, (16 - ciphertext.size() % 16) % 16));
  uint8_t lengths[16];
  util::StoreLe64(lengths, aad.size());
  util::StoreLe64(lengths + 8, ciphertext.size());
  mac.Update(lengths);
  return mac.Finish();
}

inline util::Bytes AeadSeal(const AeadKey& key, const AeadNonce& nonce, util::ByteSpan aad,
                            util::ByteSpan plaintext) {
  util::Bytes out(plaintext.size() + kAeadTagSize);
  util::MutableByteSpan ciphertext(out.data(), plaintext.size());
  ChaCha20Xor(key, nonce, 1, plaintext, ciphertext);
  Poly1305Tag tag = AeadTag(key, nonce, aad, ciphertext);
  std::memcpy(out.data() + plaintext.size(), tag.data(), tag.size());
  return out;
}

inline std::optional<util::Bytes> AeadOpen(const AeadKey& key, const AeadNonce& nonce,
                                           util::ByteSpan aad, util::ByteSpan sealed) {
  if (sealed.size() < kAeadTagSize) {
    return std::nullopt;
  }
  util::ByteSpan ciphertext = sealed.first(sealed.size() - kAeadTagSize);
  if (!util::ConstantTimeEqual(AeadTag(key, nonce, aad, ciphertext),
                               sealed.subspan(ciphertext.size()))) {
    return std::nullopt;
  }
  util::Bytes plaintext(ciphertext.size());
  ChaCha20Xor(key, nonce, 1, ciphertext, plaintext);
  return plaintext;
}

// --- ChaChaRng stream --------------------------------------------------------

// ChaChaRng's output one 64-byte block at a time from block `first_block`
// on (nonce all-zero). After block 2^32 - 1 the key becomes that block's
// first 32 bytes, which are never emitted, and its last 32 bytes follow.
class ChaChaRngStream {
 public:
  ChaChaRngStream(const ChaCha20Key& seed, uint32_t first_block)
      : key_(seed), counter_(first_block) {}

  void Fill(util::MutableByteSpan out) {
    for (uint8_t& byte : out) {
      if (pos_ == kChaCha20BlockSize) {
        ChaCha20Block(key_, ChaCha20Nonce{}, counter_++, block_);
        pos_ = 0;
        if (counter_ == 0) {
          std::memcpy(key_.data(), block_, key_.size());
          pos_ = key_.size();
        }
      }
      byte = block_[pos_++];
    }
  }

 private:
  ChaCha20Key key_;
  uint32_t counter_;
  uint8_t block_[kChaCha20BlockSize];
  size_t pos_ = kChaCha20BlockSize;
};

}  // namespace vuvuzela::crypto::reference

#endif  // VUVUZELA_TESTS_CRYPTO_REFERENCE_H_

#include "src/crypto/aead.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace vuvuzela::crypto {

namespace {

// Keystream bytes the first kernel call yields past block 0.
constexpr size_t kHeadSize = kChaCha20KernelSize - kChaCha20BlockSize;

// One keystream pass per AEAD call (RFC 8439 §2.6/§2.8): the first kernel
// call yields block 0, whose first 32 bytes are the Poly1305 key, and blocks
// 1-3, which encrypt the first 192 bytes; the rest starts at block 4.
class Keystream {
 public:
  Keystream(const AeadKey& key, const AeadNonce& nonce) : key_(key), nonce_(nonce) {
    ChaCha20Blocks4(key, nonce, 0, blocks_);
  }

  Poly1305Key MacKey() const {
    Poly1305Key mac_key;
    std::memcpy(mac_key.data(), blocks_, mac_key.size());
    return mac_key;
  }

  void Xor(util::ByteSpan input, util::MutableByteSpan output) const {
    size_t head = std::min(input.size(), kHeadSize);
    ChaCha20XorKeystream(blocks_ + kChaCha20BlockSize, input.first(head), output.first(head));
    if (input.size() > head) {
      ChaCha20Xor(key_, nonce_, kChaCha20KernelBlocks, input.subspan(head), output.subspan(head));
    }
  }

 private:
  const AeadKey& key_;
  const AeadNonce& nonce_;
  uint8_t blocks_[kChaCha20KernelSize];
};

Poly1305Tag ComputeTag(const Poly1305Key& mac_key, util::ByteSpan aad, util::ByteSpan ciphertext) {
  static constexpr uint8_t kZeroPad[16] = {0};
  Poly1305 mac(mac_key);
  mac.Update(aad);
  if (aad.size() % 16 != 0) {
    mac.Update(util::ByteSpan(kZeroPad, 16 - aad.size() % 16));
  }
  mac.Update(ciphertext);
  if (ciphertext.size() % 16 != 0) {
    mac.Update(util::ByteSpan(kZeroPad, 16 - ciphertext.size() % 16));
  }
  uint8_t lengths[16];
  util::StoreLe64(lengths, aad.size());
  util::StoreLe64(lengths + 8, ciphertext.size());
  mac.Update(lengths);
  return mac.Finish();
}

}  // namespace

util::Bytes AeadSeal(const AeadKey& key, const AeadNonce& nonce, util::ByteSpan aad,
                     util::ByteSpan plaintext) {
  util::Bytes out(plaintext.size() + kAeadTagSize);
  AeadSealInto(key, nonce, aad, plaintext, out);
  return out;
}

std::optional<util::Bytes> AeadOpen(const AeadKey& key, const AeadNonce& nonce, util::ByteSpan aad,
                                    util::ByteSpan ciphertext_and_tag) {
  if (ciphertext_and_tag.size() < kAeadTagSize) {
    return std::nullopt;
  }
  util::Bytes plaintext(ciphertext_and_tag.size() - kAeadTagSize);
  if (!AeadOpenInto(key, nonce, aad, ciphertext_and_tag, plaintext)) {
    return std::nullopt;
  }
  return plaintext;
}

void AeadSealInto(const AeadKey& key, const AeadNonce& nonce, util::ByteSpan aad,
                  util::ByteSpan plaintext, util::MutableByteSpan out) {
  if (out.size() != plaintext.size() + kAeadTagSize) {
    throw std::invalid_argument("AeadSealInto: output size mismatch");
  }
  Keystream keystream(key, nonce);
  util::MutableByteSpan ciphertext = out.first(plaintext.size());
  keystream.Xor(plaintext, ciphertext);
  Poly1305Tag tag = ComputeTag(keystream.MacKey(), aad, ciphertext);
  std::memcpy(out.data() + plaintext.size(), tag.data(), tag.size());
}

bool AeadOpenInto(const AeadKey& key, const AeadNonce& nonce, util::ByteSpan aad,
                  util::ByteSpan ciphertext_and_tag, util::MutableByteSpan plaintext_out) {
  if (ciphertext_and_tag.size() < kAeadTagSize) {
    return false;
  }
  size_t ct_len = ciphertext_and_tag.size() - kAeadTagSize;
  util::ByteSpan ciphertext = ciphertext_and_tag.first(ct_len);
  util::ByteSpan tag = ciphertext_and_tag.subspan(ct_len);
  if (plaintext_out.size() != ct_len) {
    throw std::invalid_argument("AeadOpenInto: output size mismatch");
  }

  // The tag is checked before a single plaintext byte is written.
  Keystream keystream(key, nonce);
  Poly1305Tag expected = ComputeTag(keystream.MacKey(), aad, ciphertext);
  if (!util::ConstantTimeEqual(expected, tag)) {
    return false;
  }
  keystream.Xor(ciphertext, plaintext_out);
  return true;
}

AeadNonce NonceFromUint64(uint64_t counter, uint32_t domain) {
  AeadNonce nonce;
  util::StoreLe32(nonce.data(), domain);
  util::StoreLe64(nonce.data() + 4, counter);
  return nonce;
}

}  // namespace vuvuzela::crypto

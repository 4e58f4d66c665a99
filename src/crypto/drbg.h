// ChaCha20-based deterministic random bit generator.
//
// Mix servers need cryptographically strong randomness for their per-round
// shuffle permutations and noise dead-drop IDs (§4.2); tests need those
// streams to be reproducible. ChaChaRng is seeded with 32 bytes (from the OS
// or a test constant) and implements util::Rng.

#ifndef VUVUZELA_SRC_CRYPTO_DRBG_H_
#define VUVUZELA_SRC_CRYPTO_DRBG_H_

#include "src/crypto/chacha20.h"
#include "src/util/random.h"

namespace vuvuzela::crypto {

class ChaChaRng final : public util::Rng {
 public:
  // Seeds from the given 32-byte key.
  explicit ChaChaRng(const ChaCha20Key& seed);

  // Seeds from OS entropy.
  static ChaChaRng FromSystem();

  // The stream of ChaChaRng(seed) from keystream block `block` on, i.e. after
  // its first 64·block bytes. `block` must be a multiple of 4 (else
  // std::invalid_argument). Lets tests reach the 2^32-block key ratchet.
  static ChaChaRng AtBlock(const ChaCha20Key& seed, uint32_t block);

  void Fill(util::MutableByteSpan out) override;
  uint64_t NextUint64() override;

 private:
  // Refills 4 blocks (one ChaCha20 kernel call) at a time.
  void Refill();

  ChaCha20Key key_;
  ChaCha20Nonce nonce_{};  // fixed; the 32-bit block counter provides stream position
  uint32_t counter_ = 0;
  uint8_t buffer_[kChaCha20KernelSize];
  size_t available_ = 0;  // unread bytes, at the end of buffer_
};

}  // namespace vuvuzela::crypto

#endif  // VUVUZELA_SRC_CRYPTO_DRBG_H_

// ChaCha20-Poly1305 AEAD (RFC 8439 §2.8).
//
// Every fixed-size Vuvuzela envelope and onion layer is sealed with this AEAD.
// `Seal` appends a 16-byte tag; `Open` verifies in constant time and returns
// std::nullopt on forgery. Validated against the RFC 8439 §2.8.2 and A.5
// vectors.

#ifndef VUVUZELA_SRC_CRYPTO_AEAD_H_
#define VUVUZELA_SRC_CRYPTO_AEAD_H_

#include <optional>

#include "src/crypto/chacha20.h"
#include "src/crypto/poly1305.h"
#include "src/util/bytes.h"

namespace vuvuzela::crypto {

inline constexpr size_t kAeadKeySize = kChaCha20KeySize;
inline constexpr size_t kAeadNonceSize = kChaCha20NonceSize;
inline constexpr size_t kAeadTagSize = kPoly1305TagSize;

using AeadKey = ChaCha20Key;
using AeadNonce = ChaCha20Nonce;

// Encrypts `plaintext` with `aad` bound into the tag. Output layout:
// ciphertext ‖ tag (plaintext.size() + 16 bytes). A wrapper over
// AeadSealInto.
util::Bytes AeadSeal(const AeadKey& key, const AeadNonce& nonce, util::ByteSpan aad,
                     util::ByteSpan plaintext);

// Verifies and decrypts. Returns nullopt if the tag does not verify or the
// input is shorter than a tag. A wrapper over AeadOpenInto.
std::optional<util::Bytes> AeadOpen(const AeadKey& key, const AeadNonce& nonce, util::ByteSpan aad,
                                    util::ByteSpan ciphertext_and_tag);

// The allocation-free forms every AEAD call runs on: the caller owns the
// output buffer (typically a slot in a preallocated block of results), so a
// mix pass over N onions performs zero intermediate allocations. Each call
// makes one keystream pass: its first ChaCha20 kernel call yields the
// Poly1305 key (block 0) and the keystream for the first 192 bytes.
//
// `out` must be exactly plaintext.size() + kAeadTagSize bytes (else
// std::invalid_argument) and must not overlap `plaintext`.
void AeadSealInto(const AeadKey& key, const AeadNonce& nonce, util::ByteSpan aad,
                  util::ByteSpan plaintext, util::MutableByteSpan out);

// `plaintext_out` must be exactly ciphertext_and_tag.size() - kAeadTagSize
// bytes (else std::invalid_argument) and must not overlap the input. The tag
// is verified in constant time before any plaintext is written: returns
// false, leaving `plaintext_out` untouched, if the tag fails or the input is
// shorter than a tag.
bool AeadOpenInto(const AeadKey& key, const AeadNonce& nonce, util::ByteSpan aad,
                  util::ByteSpan ciphertext_and_tag, util::MutableByteSpan plaintext_out);

// Builds an AEAD nonce from a 64-bit counter (e.g. the round number). The
// remaining 4 bytes are a caller-chosen domain tag so different uses of the
// same key never collide.
AeadNonce NonceFromUint64(uint64_t counter, uint32_t domain = 0);

}  // namespace vuvuzela::crypto

#endif  // VUVUZELA_SRC_CRYPTO_AEAD_H_

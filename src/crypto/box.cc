#include "src/crypto/box.h"

#include <cstring>

#include "src/crypto/hkdf.h"

namespace vuvuzela::crypto {

AeadKey DeriveBoxKey(const X25519SharedSecret& shared, util::ByteSpan context) {
  util::Bytes key_bytes = Hkdf(/*salt=*/{}, shared, context, kAeadKeySize);
  AeadKey key;
  std::memcpy(key.data(), key_bytes.data(), key.size());
  return key;
}

util::Bytes BoxSeal(const X25519SecretKey& sender_sk, const X25519PublicKey& recipient_pk,
                    const AeadNonce& nonce, util::ByteSpan context, util::ByteSpan plaintext) {
  X25519SharedSecret shared = X25519(sender_sk, recipient_pk);
  AeadKey key = DeriveBoxKey(shared, context);
  return AeadSeal(key, nonce, /*aad=*/{}, plaintext);
}

std::optional<util::Bytes> BoxOpen(const X25519SecretKey& recipient_sk,
                                   const X25519PublicKey& sender_pk, const AeadNonce& nonce,
                                   util::ByteSpan context, util::ByteSpan ciphertext) {
  X25519SharedSecret shared = X25519(recipient_sk, sender_pk);
  AeadKey key = DeriveBoxKey(shared, context);
  return AeadOpen(key, nonce, /*aad=*/{}, ciphertext);
}

namespace {

// Sealed boxes derive their nonce from H(ephemeral_pk ‖ recipient_pk) so the
// wire format stays compact; the ephemeral key is fresh per box, making the
// (key, nonce) pair unique.
AeadNonce SealedBoxNonce(const X25519PublicKey& ephemeral_pk, const X25519PublicKey& recipient_pk) {
  Sha256 h;
  h.Update(ephemeral_pk);
  h.Update(recipient_pk);
  Sha256Digest digest = h.Finish();
  AeadNonce nonce;
  std::memcpy(nonce.data(), digest.data(), nonce.size());
  return nonce;
}

}  // namespace

util::Bytes SealedBoxSeal(const X25519PublicKey& recipient_pk, util::ByteSpan context,
                          util::ByteSpan plaintext, util::Rng& rng) {
  X25519KeyPair ephemeral = X25519KeyPair::Generate(rng);
  AeadNonce nonce = SealedBoxNonce(ephemeral.public_key, recipient_pk);
  util::Bytes boxed =
      BoxSeal(ephemeral.secret_key, recipient_pk, nonce, context, plaintext);
  util::Bytes out(kX25519KeySize + boxed.size());
  std::memcpy(out.data(), ephemeral.public_key.data(), kX25519KeySize);
  std::memcpy(out.data() + kX25519KeySize, boxed.data(), boxed.size());
  return out;
}

std::optional<util::Bytes> SealedBoxOpen(const X25519KeyPair& recipient, util::ByteSpan context,
                                         util::ByteSpan sealed) {
  if (sealed.size() < kSealedBoxOverhead) {
    return std::nullopt;
  }
  X25519PublicKey ephemeral_pk;
  std::memcpy(ephemeral_pk.data(), sealed.data(), ephemeral_pk.size());
  AeadNonce nonce = SealedBoxNonce(ephemeral_pk, recipient.public_key);
  return BoxOpen(recipient.secret_key, ephemeral_pk, nonce, context,
                 sealed.subspan(kX25519KeySize));
}

}  // namespace vuvuzela::crypto

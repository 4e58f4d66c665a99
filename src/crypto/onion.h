// Onion encryption for the Vuvuzela mixnet (Algorithm 1 step 2, Algorithm 2
// steps 1 and 4).
//
// Requests are wrapped innermost-out: for each server i (from the last to the
// first) the client generates a fresh X25519 key pair, derives a shared key
// with that server's long-term public key, and seals the inner layer. Each
// layer therefore adds 48 bytes (32-byte ephemeral public key + 16-byte tag).
// Servers retain the derived key per request so results can be re-encrypted
// on the way back (16 bytes of tag per layer, no key material on the wire).
//
// Fresh ephemeral keys per message are what the paper's §7 calls out as the
// dominant CPU cost: one DH per request per server in each direction of the
// chain traversal.

#ifndef VUVUZELA_SRC_CRYPTO_ONION_H_
#define VUVUZELA_SRC_CRYPTO_ONION_H_

#include <optional>
#include <vector>

#include "src/crypto/box.h"
#include "src/crypto/secret_cache.h"
#include "src/crypto/x25519_precomp.h"
#include "src/util/bytes.h"

namespace vuvuzela::crypto {

// Bytes added to a request payload per onion layer.
inline constexpr size_t kOnionRequestLayerOverhead = kX25519KeySize + kAeadTagSize;  // 48
// Bytes added to a response payload per layer on the return path.
inline constexpr size_t kOnionResponseLayerOverhead = kAeadTagSize;  // 16

constexpr size_t OnionRequestSize(size_t payload_size, size_t num_layers) {
  return payload_size + num_layers * kOnionRequestLayerOverhead;
}

constexpr size_t OnionResponseSize(size_t payload_size, size_t num_layers) {
  return payload_size + num_layers * kOnionResponseLayerOverhead;
}

// A client-wrapped request onion plus the per-layer keys needed to decrypt
// the response. keys[i] corresponds to the i-th server the request visits.
struct WrappedOnion {
  util::Bytes data;
  std::vector<AeadKey> layer_keys;
};

// Wraps `payload` for the chain suffix `server_pks` (ordered first→last hop).
// Mix servers call this with the suffix of the chain after themselves when
// generating noise requests (§4.2).
WrappedOnion OnionWrap(std::span<const X25519PublicKey> server_pks, uint64_t round,
                       util::ByteSpan payload, util::Rng& rng);

// One server peeling its layer. Returns the inner bytes and the derived key
// to use for the response on the way back; nullopt if the layer is malformed
// or fails authentication.
struct UnwrappedLayer {
  util::Bytes inner;
  AeadKey response_key;
};
std::optional<UnwrappedLayer> OnionUnwrapLayer(const X25519SecretKey& server_sk, uint64_t round,
                                               util::ByteSpan layer);

// Server-side response wrap with the key retained from OnionUnwrapLayer.
util::Bytes OnionSealResponse(const AeadKey& key, uint64_t round, util::ByteSpan response);

// Client-side: removes all response layers (layer_keys from OnionWrap, in
// chain order).
std::optional<util::Bytes> OnionOpenResponse(std::span<const AeadKey> layer_keys, uint64_t round,
                                             util::ByteSpan response);

// --- Batch-pass primitives --------------------------------------------------
//
// MixServer's passes are built on these. Each is byte-identical to its
// scalar counterpart above, which stays as the reference: the conformance
// suite (tests/batch_pass_test.cc) checks every batch form against it one
// onion at a time.

// The HKDF context string onion keys are derived under — exposed so a
// SecretCache can be primed (MixServer::PrimeClientSecrets) with exactly the
// keys OnionUnwrapLayer would derive.
util::ByteSpan OnionContext();

// Allocation-free unwrap for block processing. `inner_out` must be exactly
// layer.size() - kOnionRequestLayerOverhead bytes (a slot in the caller's
// preallocated results block) and must not overlap `layer`. When `cache` is
// non-null the shared-secret derivation goes through it (one DH per client
// per key epoch instead of one per onion per round); null means a direct DH,
// the scalar reference behavior. Returns false on malformed or forged
// layers, leaving `inner_out` unspecified.
bool OnionUnwrapLayerInto(const X25519SecretKey& server_sk, SecretCache* cache, uint64_t round,
                          util::ByteSpan layer, util::MutableByteSpan inner_out,
                          AeadKey& response_key);

// Allocation-free response seal: `out` must be exactly response.size() +
// kOnionResponseLayerOverhead bytes and must not overlap `response`.
void OnionSealResponseInto(const AeadKey& key, uint64_t round, util::ByteSpan response,
                           util::MutableByteSpan out);

// OnionWrap with the per-hop DH routed through precomputed comb tables for
// the (static) server public keys. Consumes the rng stream exactly like
// OnionWrap, so given the same rng state the output onion is byte-identical;
// tables[i] must have been built for server_pks[i] of the intended chain
// suffix. This is the noise-generation fast path: a mix server builds the
// tables once per key ceremony and saves a ladder multiplication per layer
// per cover onion.
WrappedOnion OnionWrapPrecomp(std::span<const X25519Precomp> server_tables, uint64_t round,
                              util::ByteSpan payload, util::Rng& rng);

// OnionWrap with caller-supplied per-layer key pairs instead of fresh
// ephemerals — how a client with a static onion identity wraps so that
// servers' secret caches hit every round. layer_keys[i] is used for
// server_pks[i]; sizes must match.
//
// Nonce-safety contract: the derived (client key, server key) AEAD key is
// reused across rounds with the round number as nonce, so a given static key
// pair must wrap at most ONE onion per (round, direction) — exactly the
// one-request-per-round shape of Vuvuzela's conversation protocol. Wrapping
// two same-round onions under one static key would reuse a nonce; use fresh
// ephemerals (plain OnionWrap) for anything outside the one-per-round model.
WrappedOnion OnionWrapWithKeys(std::span<const X25519PublicKey> server_pks,
                               std::span<const X25519KeyPair> layer_keys, uint64_t round,
                               util::ByteSpan payload);

}  // namespace vuvuzela::crypto

#endif  // VUVUZELA_SRC_CRYPTO_ONION_H_

// One Vuvuzela server (Algorithm 2).
//
// Every server peels one onion layer off each request. A server that is not
// the last additionally generates cover traffic, shuffles the round's
// requests, and forwards them; on the return path it unshuffles, strips its
// own noise, and seals each response with the per-request key it retained.
// The last server hosts the dead drops (conversation exchanges / invitation
// table).
//
// The class is deployment-agnostic: the chain driver, the TCP server wrapper
// in examples, and the benches all call the same ForwardX/BackwardX methods.
//
// Determinism contract (crash recovery): all of a round's randomness — noise
// plans, fake payloads, the shuffle, and the garbage filling dropped response
// slots — is drawn from a per-(round, pass) RNG derived by HKDF from the
// server's seed, never from RNG state carried across rounds. Every pass is
// therefore a pure function of (seed, round, input batch), so a server
// restarted from its key file replays any round bit-for-bit, whatever rounds
// it processed before the crash — which is what lets the round engine retry a
// crashed round and get output byte-identical to an uninterrupted run.
//
// Hot path: every pass has one implementation. Onions are processed in
// fixed 64-onion blocks over ThreadPool::ParallelForBlocks, each output
// buffer allocated once at its final size; per-client shared secrets are
// cached across rounds in a SecretCache (the round number only enters the
// AEAD nonce, so a hit cannot change any output byte); and noise onions are
// wrapped against precomputed comb tables for the chain suffix's static keys.
// The per-onion crypto primitives these are built from (OnionUnwrapLayer,
// OnionSealResponse, OnionWrap) are the reference the batch forms are tested
// against, and golden digests of whole rounds pin the pass bytes
// (tests/batch_pass_test.cc); the determinism contract above is what makes
// that provable rather than statistical.
//
// Threading/ownership: one MixServer runs one pass at a time — callers
// serialize passes (the hop daemon's connection loop and the chain driver
// both do). Within a pass the server fans out over util::GlobalPool();
// per-round state is touched only between fan-outs, on the calling thread.
// The secret cache is internally synchronized because pool workers hit it
// concurrently. RotateKey and ExpireRounds must not race a running pass.

#ifndef VUVUZELA_SRC_MIXNET_MIX_SERVER_H_
#define VUVUZELA_SRC_MIXNET_MIX_SERVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/crypto/drbg.h"
#include "src/crypto/onion.h"
#include "src/crypto/secret_cache.h"
#include "src/crypto/x25519.h"
#include "src/crypto/x25519_precomp.h"
#include "src/deaddrop/conversation_table.h"
#include "src/deaddrop/exchange_backend.h"
#include "src/deaddrop/invitation_table.h"
#include "src/noise/noise_gen.h"
#include "src/util/bytes.h"
#include "src/util/thread_pool.h"

namespace vuvuzela::mixnet {

struct MixServerConfig {
  // Zero-based position in the chain; the server at `chain_length - 1` hosts
  // the dead drops.
  size_t position = 0;
  size_t chain_length = 1;
  noise::NoiseConfig conversation_noise;
  noise::NoiseConfig dialing_noise;
  // When false, every pass runs on the calling thread as one block
  // (deterministic ordering for tests); output bytes are the same either way.
  bool parallel = true;
  // Shards for the last server's dead-drop exchange (partitioned by ID
  // prefix; byte-identical outcome for any value). 0 means one shard per
  // pool worker; requires `parallel`.
  size_t exchange_shards = 1;
  // A server under adversarial control may skip mixing; tests use this to
  // model compromise (§4.2 attack scenarios). Honest servers always mix.
  bool mix = true;
};

// Per-round, per-server counters surfaced to benches (Figures 9-11, §8.2
// bandwidth table).
struct ServerRoundStats {
  uint64_t requests_in = 0;
  uint64_t requests_dropped = 0;  // failed authentication / malformed
  uint64_t noise_requests_added = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t dh_ops = 0;  // X25519 operations performed this pass
};

class MixServer {
 public:
  // `chain_public_keys` is the full ordered chain (including this server);
  // noise onions are wrapped for the suffix after `config.position`.
  MixServer(const MixServerConfig& config, crypto::X25519KeyPair key_pair,
            std::vector<crypto::X25519PublicKey> chain_public_keys,
            const crypto::ChaCha20Key& rng_seed);

  const crypto::X25519PublicKey& public_key() const { return key_pair_.public_key; }
  const MixServerConfig& config() const { return config_; }
  bool is_last() const { return config_.position + 1 == config_.chain_length; }

  // Overrides the last server's dead-drop exchange backend (non-owning; the
  // backend must outlive the server). nullptr restores the default in-process
  // sharded exchange. Backends are deterministic given the same requests, so
  // swapping backends never changes a round's bytes — the exchange-partition
  // conformance suite pins that down.
  void SetExchangeBackend(deaddrop::ExchangeBackend* backend) { exchange_backend_ = backend; }
  deaddrop::ExchangeBackend* exchange_backend() const { return exchange_backend_; }

  // --- Conversation rounds ------------------------------------------------
  //
  // Every pass comes in two forms: a span form taking views over the caller's
  // buffers (the zero-copy wire path — the hop daemon passes views straight
  // into the decoded chunk storage), and a vector form that wraps it. The
  // span form only reads the views during the call; nothing is retained, so
  // the backing buffers may be freed as soon as it returns. Outputs are
  // always freshly owned Bytes.

  // Intermediate server: peel one layer from each onion, add cover traffic,
  // shuffle, and return the batch for the next hop. Stores round state for
  // the return pass.
  std::vector<util::Bytes> ForwardConversation(uint64_t round,
                                               std::span<const util::ByteSpan> batch,
                                               ServerRoundStats* stats = nullptr);
  std::vector<util::Bytes> ForwardConversation(uint64_t round, std::vector<util::Bytes> batch,
                                               ServerRoundStats* stats = nullptr);

  // Intermediate server, return pass: `responses` aligned with the batch
  // returned by ForwardConversation. Returns responses aligned with that
  // call's input batch. Clears the round state.
  std::vector<util::Bytes> BackwardConversation(uint64_t round,
                                                std::span<const util::ByteSpan> responses,
                                                ServerRoundStats* stats = nullptr);
  std::vector<util::Bytes> BackwardConversation(uint64_t round,
                                                std::vector<util::Bytes> responses,
                                                ServerRoundStats* stats = nullptr);

  // Last server: peel the final layer, run the dead-drop exchange, and seal
  // each response. Output aligned with the input batch.
  struct LastServerResult {
    std::vector<util::Bytes> responses;
    deaddrop::AccessHistogram histogram;
    uint64_t messages_exchanged = 0;
  };
  LastServerResult ProcessConversationLastHop(uint64_t round,
                                              std::span<const util::ByteSpan> batch,
                                              ServerRoundStats* stats = nullptr);
  LastServerResult ProcessConversationLastHop(uint64_t round, std::vector<util::Bytes> batch,
                                              ServerRoundStats* stats = nullptr);

  // --- Dialing rounds -----------------------------------------------------

  // Intermediate server: peel, add per-drop noise invitations, shuffle,
  // forward. Dialing has no return pass through the chain (§5.5): clients
  // download their invitation drop out-of-band.
  std::vector<util::Bytes> ForwardDialing(uint64_t round, std::span<const util::ByteSpan> batch,
                                          uint32_t num_drops,
                                          ServerRoundStats* stats = nullptr);
  std::vector<util::Bytes> ForwardDialing(uint64_t round, std::vector<util::Bytes> batch,
                                          uint32_t num_drops,
                                          ServerRoundStats* stats = nullptr);

  // Last server: peel, deposit invitations into the table, add this server's
  // own noise directly.
  deaddrop::InvitationTable ProcessDialingLastHop(uint64_t round,
                                                  std::span<const util::ByteSpan> batch,
                                                  uint32_t num_drops,
                                                  ServerRoundStats* stats = nullptr);
  deaddrop::InvitationTable ProcessDialingLastHop(uint64_t round, std::vector<util::Bytes> batch,
                                                  uint32_t num_drops,
                                                  ServerRoundStats* stats = nullptr);

  // --- Key lifecycle --------------------------------------------------------

  // Installs a new long-term key pair and invalidates every cached client
  // secret derived under the old one (a stale entry would fail the AEAD tag
  // on every onion wrapped for the new key and silently drop the batch).
  // Callers must not rotate concurrently with a running pass.
  void RotateKey(const crypto::X25519KeyPair& key_pair);

  // Warms the shared-secret cache for a known client population (the static
  // key ceremony) so the first round after startup or rotation pays no DH
  // storm inside the pass. Optional: misses during a pass derive on demand.
  void PrimeClientSecrets(std::span<const crypto::X25519PublicKey> client_pks);

  // Cache observability: hits climb once clients present static keys; a
  // rotation shows up as an epoch bump and a restart of misses.
  const crypto::SecretCache& secret_cache() const { return secret_cache_; }

  // --- Hygiene --------------------------------------------------------------

  // Number of rounds awaiting their return pass.
  size_t pending_rounds() const { return rounds_.size(); }

  // Discards state for rounds older than `newest_round - keep`. A downstream
  // server that never returns responses (a DoS, §2.3) must not pin memory
  // here forever; dead drops are ephemeral (§3.1), so expired rounds can
  // never complete anyway.
  void ExpireRounds(uint64_t newest_round, uint64_t keep);

 private:
  struct RoundState {
    // Original batch size (responses owed to the previous hop).
    size_t input_size = 0;
    // orig_index[j] = input position of the j-th valid request.
    std::vector<uint32_t> orig_index;
    // Response key retained per valid request (same order as orig_index).
    std::vector<crypto::AeadKey> response_keys;
    // Number of noise requests appended after the valid requests.
    size_t noise_count = 0;
    // Shuffle applied to (valid ‖ noise).
    std::vector<uint32_t> perm;
    // Response payload size expected from the next hop.
    size_t response_size_in = 0;
  };

  struct UnwrapBatchResult {
    std::vector<util::Bytes> inners;               // valid only, input order
    std::vector<uint32_t> orig_index;              // input position per inner
    std::vector<crypto::AeadKey> response_keys;    // per inner
    uint64_t dropped = 0;
  };
  UnwrapBatchResult UnwrapBatch(uint64_t round, std::span<const util::ByteSpan> batch);

  // The one fan-out every pass uses: fn(begin, end) over blocks of `block`
  // indices on util::GlobalPool() when config.parallel, else fn(0, n) on the
  // calling thread.
  void ForBlocks(size_t n, size_t block, const std::function<void(size_t, size_t)>& fn) const;
  // Onion-wraps cover-traffic payloads for the chain suffix, drawing one
  // per-onion DRBG seed from `rng` each (Algorithm 2 step 2).
  std::vector<util::Bytes> WrapNoise(uint64_t round, const std::vector<util::Bytes>& payloads,
                                     crypto::ChaChaRng& rng) const;
  // Appends `noise` to `inners` and shuffles the lot with `rng` (identity on a
  // non-mixing server); the permutation goes to `perm_out` when non-null.
  std::vector<util::Bytes> CombineAndShuffle(std::vector<util::Bytes> inners,
                                             std::vector<util::Bytes> noise,
                                             crypto::ChaChaRng& rng,
                                             std::vector<uint32_t>* perm_out) const;
  // Seals responses[j] (each `response_size` bytes) under keys[j] into
  // out[slots[j]] (Algorithm 2 step 4), then fills every slot still empty —
  // requests dropped on the forward pass — with random bytes from `rng` of
  // the sealed size.
  void SealResponses(uint64_t round, std::span<const util::ByteSpan> responses,
                     std::span<const uint32_t> slots, std::span<const crypto::AeadKey> keys,
                     size_t response_size, crypto::ChaChaRng& rng,
                     std::vector<util::Bytes>& out) const;

  std::span<const crypto::X25519PublicKey> ChainSuffix() const;
  size_t ResponseSizeFromNextHop() const;
  // Derives the per-(round, pass) RNG; `pass` is a domain-separation label so
  // the forward and backward passes of one round never share a stream.
  crypto::ChaChaRng RoundRng(uint8_t pass, uint64_t round) const;

  MixServerConfig config_;
  crypto::X25519KeyPair key_pair_;
  std::vector<crypto::X25519PublicKey> chain_public_keys_;
  crypto::ChaCha20Key rng_seed_;
  std::unordered_map<uint64_t, RoundState> rounds_;
  deaddrop::ExchangeBackend* exchange_backend_ = nullptr;
  // Derived-key cache for the unwrap pass; invalidated by RotateKey.
  crypto::SecretCache secret_cache_;
  // Comb tables for the chain suffix's public keys (noise-wrap fast path).
  // Empty when any suffix key failed to lift (fall back to the ladder);
  // otherwise aligned with ChainSuffix().
  std::vector<crypto::X25519Precomp> suffix_tables_;
};

}  // namespace vuvuzela::mixnet

#endif  // VUVUZELA_SRC_MIXNET_MIX_SERVER_H_

#include "src/mixnet/mix_server.h"

#include <cstring>
#include <stdexcept>

#include "src/crypto/hkdf.h"
#include "src/mixnet/shuffler.h"
#include "src/wire/messages.h"

namespace vuvuzela::mixnet {

namespace {

// Domain-separation labels for the per-round RNG derivation; distinct per
// pass kind so no two passes ever share a stream.
constexpr uint8_t kRngForwardConversation = 1;
constexpr uint8_t kRngBackwardConversation = 2;
constexpr uint8_t kRngLastConversation = 3;
constexpr uint8_t kRngForwardDialing = 4;
constexpr uint8_t kRngLastDialing = 5;

// Onions per block: the work-stealing unit of ParallelForBlocks and the reuse
// scope for per-block scratch. Blocks only schedule work, so any value yields
// identical bytes.
constexpr size_t kBatchBlock = 64;

// Builds the fixed-size plaintext of one fake exchange request (Algorithm 2
// step 2): a random dead-drop ID and a random envelope. Random bytes are
// indistinguishable from real AEAD ciphertext.
wire::ExchangeRequest FakeExchange(util::Rng& rng) {
  wire::ExchangeRequest req;
  rng.Fill(req.dead_drop);
  rng.Fill(req.envelope);
  return req;
}

std::vector<util::ByteSpan> ViewsOf(const std::vector<util::Bytes>& items) {
  return std::vector<util::ByteSpan>(items.begin(), items.end());
}

template <typename Items>
uint64_t TotalBytes(const Items& items) {
  uint64_t total = 0;
  for (const auto& item : items) {
    total += item.size();
  }
  return total;
}

}  // namespace

MixServer::MixServer(const MixServerConfig& config, crypto::X25519KeyPair key_pair,
                     std::vector<crypto::X25519PublicKey> chain_public_keys,
                     const crypto::ChaCha20Key& rng_seed)
    : config_(config),
      key_pair_(key_pair),
      chain_public_keys_(std::move(chain_public_keys)),
      rng_seed_(rng_seed) {
  if (config_.chain_length == 0 || config_.position >= config_.chain_length) {
    throw std::invalid_argument("MixServer: bad chain position");
  }
  if (chain_public_keys_.size() != config_.chain_length) {
    throw std::invalid_argument("MixServer: chain key count mismatch");
  }
  // Comb tables for the downstream servers' static keys: one-time cost per
  // key ceremony, a ~3x cheaper DH per noise-onion layer every round after.
  std::span<const crypto::X25519PublicKey> suffix = ChainSuffix();
  suffix_tables_.reserve(suffix.size());
  for (const crypto::X25519PublicKey& pk : suffix) {
    std::optional<crypto::X25519Precomp> table = crypto::X25519Precomp::Create(pk);
    if (!table) {
      // A non-curve key cannot be lifted; wrap with the ladder instead.
      suffix_tables_.clear();
      break;
    }
    suffix_tables_.push_back(std::move(*table));
  }
}

void MixServer::RotateKey(const crypto::X25519KeyPair& key_pair) {
  key_pair_ = key_pair;
  chain_public_keys_[config_.position] = key_pair.public_key;
  secret_cache_.Invalidate();
}

void MixServer::PrimeClientSecrets(std::span<const crypto::X25519PublicKey> client_pks) {
  ForBlocks(client_pks.size(), kBatchBlock, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      secret_cache_.Get(key_pair_.secret_key, client_pks[i], crypto::OnionContext());
    }
  });
}

void MixServer::ForBlocks(size_t n, size_t block,
                          const std::function<void(size_t, size_t)>& fn) const {
  if (config_.parallel) {
    util::GlobalPool().ParallelForBlocks(n, block, fn);
  } else if (n > 0) {
    fn(0, n);
  }
}

crypto::ChaChaRng MixServer::RoundRng(uint8_t pass, uint64_t round) const {
  uint8_t label[8] = {'v', 'z', '-', 'r', 'n', 'g', '/', pass};
  util::Bytes info(label, label + sizeof(label));
  for (int i = 0; i < 8; ++i) {
    info.push_back(static_cast<uint8_t>(round >> (8 * i)));
  }
  util::Bytes okm = crypto::Hkdf(/*salt=*/{}, rng_seed_, info, crypto::kChaCha20KeySize);
  crypto::ChaCha20Key key;
  std::copy(okm.begin(), okm.end(), key.begin());
  return crypto::ChaChaRng(key);
}

std::span<const crypto::X25519PublicKey> MixServer::ChainSuffix() const {
  return std::span<const crypto::X25519PublicKey>(chain_public_keys_)
      .subspan(config_.position + 1);
}

size_t MixServer::ResponseSizeFromNextHop() const {
  // Servers position+1 .. chain_length-1 each seal once on the return path.
  size_t seals = config_.chain_length - 1 - config_.position;
  return wire::kEnvelopeSize + seals * crypto::kOnionResponseLayerOverhead;
}

MixServer::UnwrapBatchResult MixServer::UnwrapBatch(uint64_t round,
                                                    std::span<const util::ByteSpan> batch) {
  const size_t n = batch.size();
  std::vector<util::Bytes> inners(n);
  std::vector<crypto::AeadKey> keys(n);
  std::vector<uint8_t> ok(n, 0);  // uint8_t: distinct indices written concurrently

  // Each block owns a contiguous run of onions, the output buffer for each is
  // allocated once at its final size, and shared-secret derivation goes
  // through the cross-round cache.
  ForBlocks(n, kBatchBlock, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      util::ByteSpan layer = batch[i];
      if (layer.size() < crypto::kOnionRequestLayerOverhead) {
        continue;
      }
      inners[i].resize(layer.size() - crypto::kOnionRequestLayerOverhead);
      ok[i] = crypto::OnionUnwrapLayerInto(key_pair_.secret_key, &secret_cache_, round, layer,
                                           inners[i], keys[i])
                  ? 1
                  : 0;
    }
  });

  UnwrapBatchResult result;
  result.inners.reserve(n);
  result.orig_index.reserve(n);
  result.response_keys.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (!ok[i]) {
      result.dropped++;
      continue;
    }
    result.inners.push_back(std::move(inners[i]));
    result.orig_index.push_back(static_cast<uint32_t>(i));
    result.response_keys.push_back(keys[i]);
  }
  return result;
}

std::vector<util::Bytes> MixServer::WrapNoise(uint64_t round,
                                              const std::vector<util::Bytes>& payloads,
                                              crypto::ChaChaRng& rng) const {
  // Each onion gets an independent DRBG seeded from the round RNG in order
  // (ChaChaRng is not thread-safe), so the fan-out cannot change a byte.
  std::vector<crypto::ChaCha20Key> seeds(payloads.size());
  for (auto& seed : seeds) {
    rng.Fill(seed);
  }
  std::span<const crypto::X25519PublicKey> suffix = ChainSuffix();
  const bool precomp = suffix_tables_.size() == suffix.size();
  std::vector<util::Bytes> onions(payloads.size());
  // One onion per block: a round's noise is often less than one kBatchBlock,
  // and each onion costs a DH per downstream hop, so coarser blocks would
  // serialise the wrap onto a few workers.
  ForBlocks(payloads.size(), /*block=*/1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      crypto::ChaChaRng task_rng(seeds[i]);
      onions[i] = precomp
                      ? crypto::OnionWrapPrecomp(suffix_tables_, round, payloads[i], task_rng).data
                      : crypto::OnionWrap(suffix, round, payloads[i], task_rng).data;
    }
  });
  return onions;
}

std::vector<util::Bytes> MixServer::CombineAndShuffle(std::vector<util::Bytes> inners,
                                                      std::vector<util::Bytes> noise,
                                                      crypto::ChaChaRng& rng,
                                                      std::vector<uint32_t>* perm_out) const {
  inners.reserve(inners.size() + noise.size());
  for (auto& onion : noise) {
    inners.push_back(std::move(onion));
  }
  Permutation perm = config_.mix ? Permutation::Random(inners.size(), rng)
                                 : Permutation::Identity(inners.size());
  if (perm_out != nullptr) {
    *perm_out = perm.indices();
  }
  return perm.Apply(std::move(inners));
}

void MixServer::SealResponses(uint64_t round, std::span<const util::ByteSpan> responses,
                              std::span<const uint32_t> slots,
                              std::span<const crypto::AeadKey> keys, size_t response_size,
                              crypto::ChaChaRng& rng, std::vector<util::Bytes>& out) const {
  const size_t sealed_size = response_size + crypto::kOnionResponseLayerOverhead;
  ForBlocks(responses.size(), kBatchBlock, [&](size_t begin, size_t end) {
    for (size_t j = begin; j < end; ++j) {
      util::Bytes& slot = out[slots[j]];
      slot.resize(sealed_size);
      crypto::OnionSealResponseInto(keys[j], round, responses[j], slot);
    }
  });
  // Requests dropped on the forward pass still owe the previous hop a
  // response slot; random bytes of the sealed size are indistinguishable
  // from a sealed response.
  for (auto& slot : out) {
    if (slot.empty()) {
      slot = rng.RandomBytes(sealed_size);
    }
  }
}

std::vector<util::Bytes> MixServer::ForwardConversation(uint64_t round,
                                                        std::vector<util::Bytes> batch,
                                                        ServerRoundStats* stats) {
  std::vector<util::ByteSpan> views = ViewsOf(batch);
  return ForwardConversation(round, std::span<const util::ByteSpan>(views), stats);
}

std::vector<util::Bytes> MixServer::ForwardConversation(uint64_t round,
                                                        std::span<const util::ByteSpan> batch,
                                                        ServerRoundStats* stats) {
  if (is_last()) {
    throw std::logic_error("ForwardConversation called on the last server");
  }
  ServerRoundStats local;
  local.requests_in = batch.size();
  local.bytes_in = TotalBytes(batch);

  UnwrapBatchResult unwrapped = UnwrapBatch(round, batch);
  local.requests_dropped = unwrapped.dropped;
  local.dh_ops += batch.size();

  RoundState state;
  state.input_size = batch.size();
  state.orig_index = std::move(unwrapped.orig_index);
  state.response_keys = std::move(unwrapped.response_keys);
  state.response_size_in = ResponseSizeFromNextHop();

  // Cover traffic (Algorithm 2 step 2): ⌈n1⌉ singles + ⌈n2/2⌉ pairs, each
  // onion-wrapped for the rest of the chain so downstream servers cannot tell
  // them from client requests. All randomness comes from the per-round RNG,
  // so a retried or replayed round reproduces the identical pass.
  crypto::ChaChaRng rng = RoundRng(kRngForwardConversation, round);
  noise::ConversationNoisePlan plan = PlanConversationNoise(config_.conversation_noise, rng);
  std::vector<util::Bytes> noise_payloads;
  noise_payloads.reserve(plan.singles + 2 * plan.pairs);
  for (uint64_t i = 0; i < plan.singles; ++i) {
    noise_payloads.push_back(FakeExchange(rng).Serialize());
  }
  for (uint64_t i = 0; i < plan.pairs; ++i) {
    wire::ExchangeRequest first = FakeExchange(rng);
    wire::ExchangeRequest second = FakeExchange(rng);
    second.dead_drop = first.dead_drop;  // the pair meets in one dead drop
    noise_payloads.push_back(first.Serialize());
    noise_payloads.push_back(second.Serialize());
  }
  std::vector<util::Bytes> noise_onions = WrapNoise(round, noise_payloads, rng);
  local.noise_requests_added = noise_onions.size();
  local.dh_ops += noise_onions.size() * ChainSuffix().size();
  state.noise_count = noise_onions.size();

  std::vector<util::Bytes> out =
      CombineAndShuffle(std::move(unwrapped.inners), std::move(noise_onions), rng, &state.perm);
  local.bytes_out = TotalBytes(out);
  rounds_[round] = std::move(state);
  if (stats) {
    *stats = local;
  }
  return out;
}

std::vector<util::Bytes> MixServer::BackwardConversation(uint64_t round,
                                                         std::vector<util::Bytes> responses,
                                                         ServerRoundStats* stats) {
  std::vector<util::ByteSpan> views = ViewsOf(responses);
  return BackwardConversation(round, std::span<const util::ByteSpan>(views), stats);
}

std::vector<util::Bytes> MixServer::BackwardConversation(uint64_t round,
                                                         std::span<const util::ByteSpan> responses,
                                                         ServerRoundStats* stats) {
  auto it = rounds_.find(round);
  if (it == rounds_.end()) {
    throw std::logic_error("BackwardConversation: unknown round");
  }
  RoundState state = std::move(it->second);
  rounds_.erase(it);

  if (responses.size() != state.perm.size()) {
    throw std::invalid_argument("BackwardConversation: response count mismatch");
  }
  // Responses are fixed-size. A downstream hop that returned one of
  // a different length would, once relayed, let a network observer pick out
  // the client receiving it; refuse the batch before sealing anything.
  for (const util::ByteSpan& response : responses) {
    if (response.size() != state.response_size_in) {
      throw std::invalid_argument("BackwardConversation: response size mismatch");
    }
  }
  ServerRoundStats local;
  local.requests_in = responses.size();
  local.bytes_in = TotalBytes(responses);

  // Instead of materializing the unshuffled batch, invert the permutation:
  // valid slot j's response sits at input position k with perm[k] == j.
  // Positions mapping past the valid requests are our own noise responses
  // and are simply never read.
  size_t num_valid = state.orig_index.size();
  std::vector<util::ByteSpan> ordered(num_valid);
  for (size_t k = 0; k < state.perm.size(); ++k) {
    if (state.perm[k] < num_valid) {
      ordered[state.perm[k]] = responses[k];
    }
  }

  // Seal each response with the key retained on the forward pass and place
  // it at the position the previous hop expects.
  std::vector<util::Bytes> out(state.input_size);
  crypto::ChaChaRng rng = RoundRng(kRngBackwardConversation, round);
  SealResponses(round, ordered, state.orig_index, state.response_keys, state.response_size_in,
                rng, out);

  local.bytes_out = TotalBytes(out);
  if (stats) {
    *stats = local;
  }
  return out;
}

MixServer::LastServerResult MixServer::ProcessConversationLastHop(uint64_t round,
                                                                  std::vector<util::Bytes> batch,
                                                                  ServerRoundStats* stats) {
  std::vector<util::ByteSpan> views = ViewsOf(batch);
  return ProcessConversationLastHop(round, std::span<const util::ByteSpan>(views), stats);
}

MixServer::LastServerResult MixServer::ProcessConversationLastHop(
    uint64_t round, std::span<const util::ByteSpan> batch, ServerRoundStats* stats) {
  if (!is_last()) {
    throw std::logic_error("ProcessConversationLastHop called on a non-last server");
  }
  ServerRoundStats local;
  local.requests_in = batch.size();
  local.bytes_in = TotalBytes(batch);

  UnwrapBatchResult unwrapped = UnwrapBatch(round, batch);
  local.dh_ops += batch.size();

  // Parse exchange requests; a valid onion with a malformed payload is
  // treated like a failed decryption.
  std::vector<wire::ExchangeRequest> requests;
  std::vector<uint32_t> orig_index;
  std::vector<crypto::AeadKey> keys;
  requests.reserve(unwrapped.inners.size());
  for (size_t j = 0; j < unwrapped.inners.size(); ++j) {
    auto parsed = wire::ExchangeRequest::Parse(unwrapped.inners[j]);
    if (!parsed) {
      unwrapped.dropped++;
      continue;
    }
    requests.push_back(*parsed);
    orig_index.push_back(unwrapped.orig_index[j]);
    keys.push_back(unwrapped.response_keys[j]);
  }
  local.requests_dropped = unwrapped.dropped;

  deaddrop::ExchangeOutcome outcome;
  if (exchange_backend_ != nullptr) {
    outcome = exchange_backend_->ExchangeConversation(round, requests);
  } else {
    size_t shards = 1;
    if (config_.parallel) {
      shards = config_.exchange_shards == 0 ? util::GlobalPool().num_threads()
                                            : config_.exchange_shards;
    }
    outcome = deaddrop::ShardedExchangeRound(requests, shards);
  }

  LastServerResult result;
  result.histogram = outcome.histogram;
  result.messages_exchanged = outcome.messages_exchanged;
  result.responses.resize(batch.size());
  std::vector<util::ByteSpan> envelopes(outcome.results.begin(), outcome.results.end());
  crypto::ChaChaRng rng = RoundRng(kRngLastConversation, round);
  SealResponses(round, envelopes, orig_index, keys, wire::kEnvelopeSize, rng, result.responses);

  local.bytes_out = TotalBytes(result.responses);
  if (stats) {
    *stats = local;
  }
  return result;
}

std::vector<util::Bytes> MixServer::ForwardDialing(uint64_t round, std::vector<util::Bytes> batch,
                                                   uint32_t num_drops, ServerRoundStats* stats) {
  std::vector<util::ByteSpan> views = ViewsOf(batch);
  return ForwardDialing(round, std::span<const util::ByteSpan>(views), num_drops, stats);
}

std::vector<util::Bytes> MixServer::ForwardDialing(uint64_t round,
                                                   std::span<const util::ByteSpan> batch,
                                                   uint32_t num_drops, ServerRoundStats* stats) {
  if (is_last()) {
    throw std::logic_error("ForwardDialing called on the last server");
  }
  ServerRoundStats local;
  local.requests_in = batch.size();
  local.bytes_in = TotalBytes(batch);

  UnwrapBatchResult unwrapped = UnwrapBatch(round, batch);
  local.requests_dropped = unwrapped.dropped;
  local.dh_ops += batch.size();

  // Per-drop noise invitations (§5.3), wrapped for the chain suffix.
  crypto::ChaChaRng rng = RoundRng(kRngForwardDialing, round);
  std::vector<uint64_t> counts = PlanDialingNoise(config_.dialing_noise, num_drops, rng);
  std::vector<util::Bytes> noise_payloads;
  for (uint32_t d = 0; d < num_drops; ++d) {
    for (uint64_t j = 0; j < counts[d]; ++j) {
      wire::DialRequest fake;
      fake.dead_drop_index = d;
      rng.Fill(fake.invitation);
      noise_payloads.push_back(fake.Serialize());
    }
  }
  std::vector<util::Bytes> noise_onions = WrapNoise(round, noise_payloads, rng);
  local.noise_requests_added = noise_onions.size();
  local.dh_ops += noise_onions.size() * ChainSuffix().size();

  std::vector<util::Bytes> out =
      CombineAndShuffle(std::move(unwrapped.inners), std::move(noise_onions), rng, nullptr);
  local.bytes_out = TotalBytes(out);
  if (stats) {
    *stats = local;
  }
  return out;
}

void MixServer::ExpireRounds(uint64_t newest_round, uint64_t keep) {
  for (auto it = rounds_.begin(); it != rounds_.end();) {
    if (it->first + keep < newest_round) {
      it = rounds_.erase(it);
    } else {
      ++it;
    }
  }
}

deaddrop::InvitationTable MixServer::ProcessDialingLastHop(uint64_t round,
                                                           std::vector<util::Bytes> batch,
                                                           uint32_t num_drops,
                                                           ServerRoundStats* stats) {
  std::vector<util::ByteSpan> views = ViewsOf(batch);
  return ProcessDialingLastHop(round, std::span<const util::ByteSpan>(views), num_drops, stats);
}

deaddrop::InvitationTable MixServer::ProcessDialingLastHop(uint64_t round,
                                                           std::span<const util::ByteSpan> batch,
                                                           uint32_t num_drops,
                                                           ServerRoundStats* stats) {
  if (!is_last()) {
    throw std::logic_error("ProcessDialingLastHop called on a non-last server");
  }
  if (num_drops == 0) {
    throw std::invalid_argument("ProcessDialingLastHop: num_drops must be positive");
  }
  ServerRoundStats local;
  local.requests_in = batch.size();
  local.bytes_in = TotalBytes(batch);

  UnwrapBatchResult unwrapped = UnwrapBatch(round, batch);
  local.dh_ops += batch.size();

  std::vector<wire::DialRequest> requests;
  requests.reserve(unwrapped.inners.size());
  for (const auto& inner : unwrapped.inners) {
    auto parsed = wire::DialRequest::Parse(inner);
    if (!parsed) {
      unwrapped.dropped++;
      continue;
    }
    parsed->dead_drop_index %= num_drops;
    requests.push_back(*parsed);
  }
  local.requests_dropped = unwrapped.dropped;

  // The last server adds its own noise directly — no wrapping needed (§5.3:
  // "every server (including the last one) must add ... noise invitations").
  // The noise bytes are drawn here, per drop in order, so every exchange
  // backend deposits the identical invitations (same RNG consumption as the
  // pre-backend AddNoise path).
  crypto::ChaChaRng rng = RoundRng(kRngLastDialing, round);
  std::vector<uint64_t> counts = PlanDialingNoise(config_.dialing_noise, num_drops, rng);
  std::vector<deaddrop::NoiseInvitation> noise;
  for (uint32_t d = 0; d < num_drops; ++d) {
    for (uint64_t j = 0; j < counts[d]; ++j) {
      deaddrop::NoiseInvitation fake;
      fake.drop = d;
      rng.Fill(fake.invitation);
      noise.push_back(fake);
    }
  }
  local.noise_requests_added = noise.size();

  deaddrop::InProcessExchangeBackend default_backend(1);
  deaddrop::ExchangeBackend& backend =
      exchange_backend_ != nullptr ? *exchange_backend_ : default_backend;
  deaddrop::InvitationTable table = backend.BuildInvitationTable(round, num_drops, requests, noise);

  if (stats) {
    *stats = local;
  }
  return table;
}

}  // namespace vuvuzela::mixnet

// Conformance suite for the batched onion hot path.
//
// MixServer has one implementation of every pass, built on the batch forms
// of the onion primitives (OnionUnwrapLayerInto with the cross-round secret
// cache, OnionSealResponseInto, OnionWrapPrecomp). Two layers pin its bytes:
//
//  - Per onion, each batch form must match its scalar reference in
//    src/crypto (OnionUnwrapLayer, OnionSealResponse, the ladder OnionWrap)
//    on the same inputs.
//  - Per round, a SHA-256 digest of every stage's output and stats must
//    match a golden value. The goldens were generated by the earlier
//    two-path MixServer, where the scalar and the batched pass agreed on
//    them at every block size; the determinism contract (every pass is a
//    pure function of seed, round and input batch) is what makes a fixed
//    digest meaningful. Each round runs with `parallel` on (64-onion blocks
//    over the pool) and off (the whole batch as one block), so the block
//    partitioning stays pinned too.
//
// Also pinned here: the secret cache must not survive a key rotation, the
// comb-table DH must agree with the Montgomery ladder (RFC 7748 vectors,
// random pairs, twist fallback), and the zero-copy wire decode must yield
// the same items as the copying decode.

#include <gtest/gtest.h>

#include "src/crypto/drbg.h"
#include "src/crypto/onion.h"
#include "src/crypto/secret_cache.h"
#include "src/crypto/sha256.h"
#include "src/crypto/x25519.h"
#include "src/crypto/x25519_precomp.h"
#include "src/mixnet/mix_server.h"
#include "src/transport/hop_wire.h"
#include "src/util/random.h"
#include "src/wire/constants.h"
#include "tests/round_digest.h"

namespace vuvuzela {
namespace {

using mixnet::MixServer;
using mixnet::MixServerConfig;
using mixnet::ServerRoundStats;
using testutil::Digest;

constexpr size_t kServers = 3;

struct TestChain {
  std::vector<std::unique_ptr<MixServer>> servers;
  std::vector<crypto::X25519PublicKey> public_keys;
};

// Key material and noise seeds are drawn from `seed` in a fixed order, so two
// chains built from the same seed are identical apart from `parallel`.
TestChain MakeChain(bool parallel, uint64_t seed, double mu) {
  util::Xoshiro256Rng rng(seed);
  std::vector<crypto::X25519KeyPair> key_pairs;
  std::vector<crypto::ChaCha20Key> rng_seeds;
  TestChain chain;
  for (size_t i = 0; i < kServers; ++i) {
    key_pairs.push_back(crypto::X25519KeyPair::Generate(rng));
    chain.public_keys.push_back(key_pairs.back().public_key);
    crypto::ChaCha20Key noise_seed;
    rng.Fill(noise_seed);
    rng_seeds.push_back(noise_seed);
  }
  for (size_t i = 0; i < kServers; ++i) {
    MixServerConfig config;
    config.position = i;
    config.chain_length = kServers;
    config.conversation_noise = {.params = {mu, mu / 4.0 + 1.0}, .deterministic = true};
    config.dialing_noise = {.params = {mu, mu / 4.0 + 1.0}, .deterministic = true};
    config.parallel = parallel;
    config.exchange_shards = 1;
    chain.servers.push_back(std::make_unique<MixServer>(config, key_pairs[i], chain.public_keys,
                                                        rng_seeds[i]));
  }
  return chain;
}

std::vector<util::Bytes> MakeBatch(const std::vector<crypto::X25519PublicKey>& pks,
                                   uint64_t round, size_t n, uint64_t seed,
                                   size_t payload_size) {
  util::Xoshiro256Rng rng(seed);
  std::vector<util::Bytes> batch;
  batch.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    util::Bytes payload = rng.RandomBytes(payload_size);
    batch.push_back(crypto::OnionWrap(pks, round, payload, rng).data);
  }
  return batch;
}

// Every stage output of one conversation round, for bit-level comparison.
struct ConversationTranscript {
  std::vector<std::vector<util::Bytes>> forward;  // after each server's pass
  std::vector<util::Bytes> last_responses;
  uint64_t messages_exchanged = 0;
  std::vector<std::vector<util::Bytes>> backward;  // after each return pass
  std::vector<ServerRoundStats> stats;             // forward, last, backward
};

ConversationTranscript RunConversation(TestChain& chain, uint64_t round,
                                       std::vector<util::Bytes> batch) {
  ConversationTranscript t;
  t.stats.resize(2 * kServers - 1);
  std::vector<util::Bytes> current = std::move(batch);
  for (size_t i = 0; i + 1 < kServers; ++i) {
    current = chain.servers[i]->ForwardConversation(round, std::move(current), &t.stats[i]);
    t.forward.push_back(current);
  }
  auto last = chain.servers.back()->ProcessConversationLastHop(round, std::move(current),
                                                              &t.stats[kServers - 1]);
  t.last_responses = last.responses;
  t.messages_exchanged = last.messages_exchanged;
  current = std::move(last.responses);
  for (size_t i = kServers - 1; i-- > 0;) {
    current = chain.servers[i]->BackwardConversation(round, std::move(current),
                                                    &t.stats[2 * kServers - 2 - i]);
    t.backward.push_back(current);
  }
  return t;
}

void ExpectIdentical(const ConversationTranscript& a, const ConversationTranscript& b) {
  ASSERT_EQ(a.forward.size(), b.forward.size());
  for (size_t i = 0; i < a.forward.size(); ++i) {
    EXPECT_EQ(a.forward[i], b.forward[i]) << "forward stage " << i;
  }
  EXPECT_EQ(a.last_responses, b.last_responses);
  EXPECT_EQ(a.messages_exchanged, b.messages_exchanged);
  ASSERT_EQ(a.backward.size(), b.backward.size());
  for (size_t i = 0; i < a.backward.size(); ++i) {
    EXPECT_EQ(a.backward[i], b.backward[i]) << "backward stage " << i;
  }
  for (size_t i = 0; i < a.stats.size(); ++i) {
    EXPECT_EQ(a.stats[i].requests_in, b.stats[i].requests_in) << "stats " << i;
    EXPECT_EQ(a.stats[i].requests_dropped, b.stats[i].requests_dropped) << "stats " << i;
    EXPECT_EQ(a.stats[i].noise_requests_added, b.stats[i].noise_requests_added) << "stats " << i;
    EXPECT_EQ(a.stats[i].bytes_out, b.stats[i].bytes_out) << "stats " << i;
    // dh_ops counts logical key derivations (serialized into reply headers),
    // so a warm cache must report the same number as a cold one.
    EXPECT_EQ(a.stats[i].dh_ops, b.stats[i].dh_ops) << "stats " << i;
  }
}

// --- Golden round digests ------------------------------------------------------

// Conversation rounds 1..`rounds` of `n` client onions each (round r's batch
// drawn from seed batch_seed + r - 1): every forward batch, the last hop's
// responses and exchange count, every backward batch, and each pass's stats.
std::string ConversationDigest(bool parallel, uint64_t chain_seed, double mu, size_t n,
                               uint64_t rounds, uint64_t batch_seed) {
  TestChain chain = MakeChain(parallel, chain_seed, mu);
  Digest digest;
  for (uint64_t round = 1; round <= rounds; ++round) {
    ConversationTranscript t = RunConversation(
        chain, round,
        MakeBatch(chain.public_keys, round, n, batch_seed + round - 1,
                  wire::kExchangeRequestSize));
    for (size_t i = 0; i + 1 < kServers; ++i) {
      digest.Add(t.forward[i]);
      digest.Add(t.stats[i]);
    }
    digest.Add(t.last_responses);
    digest.Add(t.messages_exchanged);
    digest.Add(t.stats[kServers - 1]);
    for (size_t i = 0; i + 1 < kServers; ++i) {
      digest.Add(t.backward[i]);
      digest.Add(t.stats[kServers + i]);
    }
  }
  return digest.Hex();
}

// One dialing round of `n` client onions into 5 drops: every forward batch
// and stats, then the last hop's invitation table and stats.
std::string DialingDigest(bool parallel, size_t n) {
  constexpr uint32_t kDrops = 5;
  TestChain chain = MakeChain(parallel, /*seed=*/9, /*mu=*/12);
  Digest digest;
  std::vector<util::Bytes> current =
      MakeBatch(chain.public_keys, 1, n, /*seed=*/2000, wire::kDialRequestSize);
  ServerRoundStats stats;
  for (size_t i = 0; i + 1 < kServers; ++i) {
    current = chain.servers[i]->ForwardDialing(1, std::move(current), kDrops, &stats);
    digest.Add(current);
    digest.Add(stats);
  }
  auto table = chain.servers.back()->ProcessDialingLastHop(1, std::move(current), kDrops, &stats);
  digest.Add(table.num_drops());
  for (uint32_t drop = 0; drop < table.num_drops(); ++drop) {
    digest.Add(table.Drop(drop).size());
    for (const auto& invitation : table.Drop(drop)) {
      digest.Add(util::ByteSpan(invitation));
    }
  }
  digest.Add(stats);
  return digest.Hex();
}

struct GoldenRound {
  size_t batch_size;
  const char* conversation;  // ConversationDigest(seed 7, µ 12, 2 rounds)
  const char* dialing;       // DialingDigest
};

// Batch sizes straddle the 64-onion block boundary, plus a multi-block batch.
constexpr GoldenRound kGoldenRounds[] = {
    {1, "9a09ddecc5596cfe815b5c3223ea017d1f16a40bfeb797ed7bb8aaf0e94ec984",
     "c610755d521bc301695d3e701ca00f88aa53ae290f019966dc90e75b92f1c830"},
    {63, "909a8d5445c1ae58fccf8c40437d3866d2d609874eb1e0fe830252a6f257cfef",
     "58c33daf655f98e6c1f3a20df14264bd3ee10c18c5fbd5d910f86ab1e7fa7761"},
    {64, "d1c861115ac04d34ff34707d2c47364d064a60200c01e9b0cc2f522400be4d5b",
     "5b12706d6486dee75e02be09ad61cbd81a06ec4542fbc68f11b0eea3fa4e3d66"},
    {65, "eb45a3c0e34b313957d1d6ab78d66e75a9a1760fa38c1494d12e4128e39a1075",
     "2df329e83d545d08385431cff1df9ad1d422ebbaf8ad9d2ccea3f324138cb228"},
    {160, "26c43b8b069892e7bd5fc829dc5ca0bf193dfcc39b7a55773d3d63a84352929d",
     "5552805cb7fe39d96613e94ffe8acfc7e68cacd2962f89b92ec74a3727d43853"},
};

const GoldenRound& GoldenFor(size_t n) {
  for (const GoldenRound& golden : kGoldenRounds) {
    if (golden.batch_size == n) {
      return golden;
    }
  }
  throw std::out_of_range("no golden digest for this batch size");
}

class BatchConformance : public ::testing::TestWithParam<size_t> {};

INSTANTIATE_TEST_SUITE_P(BatchSizes, BatchConformance,
                         ::testing::Values(1u, 63u, 64u, 65u, 160u));

TEST_P(BatchConformance, ConversationRoundByteIdentical) {
  const GoldenRound& golden = GoldenFor(GetParam());
  for (bool parallel : {true, false}) {
    EXPECT_EQ(ConversationDigest(parallel, /*chain_seed=*/7, /*mu=*/12, golden.batch_size,
                                 /*rounds=*/2, /*batch_seed=*/1001),
              golden.conversation)
        << "parallel=" << parallel;
  }
}

TEST_P(BatchConformance, DialingRoundByteIdentical) {
  const GoldenRound& golden = GoldenFor(GetParam());
  for (bool parallel : {true, false}) {
    EXPECT_EQ(DialingDigest(parallel, golden.batch_size), golden.dialing)
        << "parallel=" << parallel;
  }
}

// Blocks are a scheduling unit, never a semantic one: a batch that is not a
// multiple of the block size digests the same whether it runs as 64-onion
// blocks on the pool or as one block inline. The golden was generated with
// 8- and 512-onion blocks as well as the scalar path.
TEST(BatchConformanceBlocks, OddBlockSizeByteIdentical) {
  for (bool parallel : {true, false}) {
    EXPECT_EQ(ConversationDigest(parallel, /*chain_seed=*/11, /*mu=*/6, /*n=*/50, /*rounds=*/1,
                                 /*batch_seed=*/3000),
              "4744fc14dae1395ee19ef7aa8d73210b8aabe979ecc42d3b3f1c79b9ad7307fa")
        << "parallel=" << parallel;
  }
}

// --- Batch forms vs the scalar primitives, one onion at a time ---------------

TEST(OnionBatchForms, UnwrapIntoMatchesScalarWithColdAndWarmCache) {
  util::Xoshiro256Rng rng(41);
  crypto::X25519KeyPair server = crypto::X25519KeyPair::Generate(rng);
  std::vector<crypto::X25519PublicKey> chain = {server.public_key};
  std::vector<crypto::X25519KeyPair> clients;
  for (int i = 0; i < 8; ++i) {
    clients.push_back(crypto::X25519KeyPair::Generate(rng));
  }
  crypto::SecretCache cache;

  auto expect_match = [&](uint64_t round, const util::Bytes& onion, crypto::SecretCache* cache) {
    std::optional<crypto::UnwrappedLayer> scalar =
        crypto::OnionUnwrapLayer(server.secret_key, round, onion);
    util::Bytes inner(onion.size() - crypto::kOnionRequestLayerOverhead);
    crypto::AeadKey key{};
    bool ok = crypto::OnionUnwrapLayerInto(server.secret_key, cache, round, onion, inner, key);
    ASSERT_EQ(ok, scalar.has_value());
    if (ok) {
      EXPECT_EQ(inner, scalar->inner);
      EXPECT_EQ(key, scalar->response_key);
    }
  };

  // Static client keys: round 1 fills the cache (all misses), round 2 is
  // answered from it (all hits); both must agree with a direct DH.
  for (uint64_t round = 1; round <= 2; ++round) {
    for (const auto& client : clients) {
      util::Bytes onion =
          crypto::OnionWrapWithKeys(chain, std::vector<crypto::X25519KeyPair>{client}, round,
                                    rng.RandomBytes(wire::kExchangeRequestSize))
              .data;
      expect_match(round, onion, &cache);
      expect_match(round, onion, nullptr);
    }
    crypto::SecretCache::Stats stats = cache.GetStats();
    EXPECT_EQ(stats.misses, clients.size());
    EXPECT_EQ(stats.hits, (round - 1) * clients.size());
  }

  // Forged and wrong-round layers are rejected by both forms, cached or not.
  util::Bytes onion =
      crypto::OnionWrapWithKeys(chain, std::vector<crypto::X25519KeyPair>{clients[0]}, 3,
                                rng.RandomBytes(wire::kExchangeRequestSize))
          .data;
  expect_match(4, onion, &cache);
  onion.back() ^= 1;
  expect_match(3, onion, &cache);
  expect_match(3, onion, nullptr);
}

TEST(OnionBatchForms, SealIntoMatchesScalar) {
  util::Xoshiro256Rng rng(42);
  for (size_t size : {size_t{0}, size_t{1}, wire::kEnvelopeSize,
                      crypto::OnionResponseSize(wire::kEnvelopeSize, 2)}) {
    crypto::AeadKey key;
    rng.Fill(key);
    util::Bytes response = rng.RandomBytes(size);
    util::Bytes sealed(size + crypto::kOnionResponseLayerOverhead);
    crypto::OnionSealResponseInto(key, 7, response, sealed);
    EXPECT_EQ(sealed, crypto::OnionSealResponse(key, 7, response)) << "size " << size;
  }
}

TEST(OnionBatchForms, WrapPrecompMatchesLadderGivenSameRng) {
  util::Xoshiro256Rng key_rng(43);
  std::vector<crypto::X25519PublicKey> suffix;
  std::vector<crypto::X25519Precomp> tables;
  for (size_t hops = 1; hops <= kServers; ++hops) {
    suffix.push_back(crypto::X25519KeyPair::Generate(key_rng).public_key);
    std::optional<crypto::X25519Precomp> table = crypto::X25519Precomp::Create(suffix.back());
    ASSERT_TRUE(table.has_value());
    tables.push_back(std::move(*table));

    util::Bytes payload = key_rng.RandomBytes(wire::kExchangeRequestSize);
    crypto::ChaCha20Key seed;
    key_rng.Fill(seed);
    crypto::ChaChaRng ladder_rng(seed);
    crypto::ChaChaRng precomp_rng(seed);
    crypto::WrappedOnion ladder = crypto::OnionWrap(suffix, 5, payload, ladder_rng);
    crypto::WrappedOnion precomp = crypto::OnionWrapPrecomp(tables, 5, payload, precomp_rng);
    EXPECT_EQ(precomp.data, ladder.data) << hops << " hops";
    EXPECT_EQ(precomp.layer_keys, ladder.layer_keys) << hops << " hops";
    // Both consumed the same amount of the stream.
    EXPECT_EQ(precomp_rng.RandomBytes(8), ladder_rng.RandomBytes(8)) << hops << " hops";
  }
}

// --- Secret cache lifecycle --------------------------------------------------

// A client with a static key hits the cache from round 2 on; the pass output
// stays byte-identical to a cold server's.
TEST(SecretCacheConformance, WarmCacheIdenticalToCold) {
  TestChain warm = MakeChain(/*parallel=*/true, /*seed=*/21, /*mu=*/6);
  util::Xoshiro256Rng rng(77);
  std::vector<crypto::X25519KeyPair> client_keys;
  std::vector<crypto::X25519PublicKey> client_pks;
  for (int i = 0; i < 16; ++i) {
    client_keys.push_back(crypto::X25519KeyPair::Generate(rng));
    client_pks.push_back(client_keys.back().public_key);
  }
  warm.servers[0]->PrimeClientSecrets(client_pks);
  ASSERT_EQ(warm.servers[0]->secret_cache().GetStats().entries, 16u);

  for (uint64_t round = 1; round <= 3; ++round) {
    // One onion per client per round (the nonce-safety contract of
    // OnionWrapWithKeys).
    std::vector<util::Bytes> batch;
    util::Xoshiro256Rng payload_rng(round);
    for (const auto& kp : client_keys) {
      std::vector<crypto::X25519KeyPair> layer_keys(kServers, kp);
      batch.push_back(crypto::OnionWrapWithKeys(warm.public_keys, layer_keys, round,
                                                payload_rng.RandomBytes(
                                                    wire::kExchangeRequestSize))
                          .data);
    }
    // A freshly built identical chain (cold cache) must emit the same bytes.
    TestChain cold = MakeChain(/*parallel=*/true, /*seed=*/21, /*mu=*/6);
    auto a = RunConversation(warm, round, batch);
    auto b = RunConversation(cold, round, std::move(batch));
    ExpectIdentical(a, b);
  }
  // Primed entries actually answered the rounds: no growth beyond the
  // ceremony, and hits accumulated.
  auto stats = warm.servers[0]->secret_cache().GetStats();
  EXPECT_EQ(stats.entries, 16u);
  EXPECT_GE(stats.hits, 3u * 16u);
}

// Rotation must drop every cached secret: an onion wrapped for the old key
// is rejected afterwards, and an onion wrapped for the new key unwraps —
// which a stale cache entry would break (wrong derived key, AEAD tag fails).
TEST(SecretCacheConformance, RotatedKeyServesNoStaleSecrets) {
  TestChain chain = MakeChain(/*parallel=*/true, /*seed=*/31, /*mu=*/0);
  MixServer& hop = *chain.servers[0];
  util::Xoshiro256Rng rng(5);
  auto client = crypto::X25519KeyPair::Generate(rng);
  std::vector<crypto::X25519KeyPair> layer_keys(kServers, client);

  auto wrap = [&](uint64_t round, const std::vector<crypto::X25519PublicKey>& pks) {
    util::Xoshiro256Rng payload_rng(round);
    return crypto::OnionWrapWithKeys(pks, layer_keys, round,
                                     payload_rng.RandomBytes(wire::kExchangeRequestSize))
        .data;
  };

  ServerRoundStats stats;
  hop.ForwardConversation(1, std::vector<util::Bytes>{wrap(1, chain.public_keys)}, &stats);
  EXPECT_EQ(stats.requests_dropped, 0u);
  ASSERT_EQ(hop.secret_cache().GetStats().entries, 1u);
  const uint64_t epoch_before = hop.secret_cache().epoch();

  auto new_pair = crypto::X25519KeyPair::Generate(rng);
  hop.RotateKey(new_pair);
  EXPECT_EQ(hop.secret_cache().epoch(), epoch_before + 1);
  EXPECT_EQ(hop.secret_cache().GetStats().entries, 0u);

  // Old-key onion: rejected under the new key.
  hop.ForwardConversation(2, std::vector<util::Bytes>{wrap(2, chain.public_keys)}, &stats);
  EXPECT_EQ(stats.requests_dropped, 1u);

  // New-key onion from the same client: accepted — a stale cache entry for
  // this client pk (derived under the old server key) would drop it.
  std::vector<crypto::X25519PublicKey> new_chain = chain.public_keys;
  new_chain[0] = new_pair.public_key;
  hop.ForwardConversation(3, std::vector<util::Bytes>{wrap(3, new_chain)}, &stats);
  EXPECT_EQ(stats.requests_dropped, 0u);
  EXPECT_EQ(hop.secret_cache().GetStats().entries, 1u);
}

// --- Precomputed-table DH vs the ladder --------------------------------------

TEST(PrecompConformance, Rfc7748VectorAndBasePoint) {
  // RFC 7748 §5.2 test vector 1.
  const crypto::X25519SecretKey scalar = {
      0xa5, 0x46, 0xe3, 0x6b, 0xf0, 0x52, 0x7c, 0x9d, 0x3b, 0x16, 0x15,
      0x4b, 0x82, 0x46, 0x5e, 0xdd, 0x62, 0x14, 0x4c, 0x0a, 0xc1, 0xfc,
      0x5a, 0x18, 0x50, 0x6a, 0x22, 0x44, 0xba, 0x44, 0x9a, 0xc4};
  const crypto::X25519PublicKey point = {
      0xe6, 0xdb, 0x68, 0x67, 0x58, 0x30, 0x30, 0xdb, 0x35, 0x94, 0xc1,
      0xa4, 0x24, 0xb1, 0x5f, 0x7c, 0x72, 0x66, 0x24, 0xec, 0x26, 0xb3,
      0x35, 0x3b, 0x10, 0xa9, 0x03, 0xa6, 0xd0, 0xab, 0x1c, 0x4c};
  auto table = crypto::X25519Precomp::Create(point);
  ASSERT_TRUE(table.has_value());
  EXPECT_EQ(table->Mult(scalar), crypto::X25519(scalar, point));

  util::Xoshiro256Rng rng(1);
  for (int i = 0; i < 32; ++i) {
    crypto::X25519SecretKey sk;
    rng.Fill(sk);
    EXPECT_EQ(crypto::X25519BasePointFast(sk), crypto::X25519BasePoint(sk));
  }
}

TEST(PrecompConformance, RandomCurvePointsMatchLadderAndTwistFallsBack) {
  util::Xoshiro256Rng rng(2);
  size_t curve_points = 0;
  size_t twist_points = 0;
  // Honest public keys (sk·9) always lift; random u-coordinates land on the
  // twist about half the time and must return nullopt (callers fall back to
  // the ladder).
  for (int i = 0; i < 64; ++i) {
    auto kp = crypto::X25519KeyPair::Generate(rng);
    auto table = crypto::X25519Precomp::Create(kp.public_key);
    ASSERT_TRUE(table.has_value()) << "honest key failed to lift";
    for (int j = 0; j < 4; ++j) {
      crypto::X25519SecretKey sk;
      rng.Fill(sk);
      ASSERT_EQ(table->Mult(sk), crypto::X25519(sk, kp.public_key));
    }
  }
  for (int i = 0; i < 64; ++i) {
    crypto::X25519PublicKey u;
    rng.Fill(u);
    auto table = crypto::X25519Precomp::Create(u);
    if (!table.has_value()) {
      ++twist_points;
      continue;
    }
    ++curve_points;
    crypto::X25519SecretKey sk;
    rng.Fill(sk);
    EXPECT_EQ(table->Mult(sk), crypto::X25519(sk, u));
  }
  // Both populations must occur (probability of either being empty over 64
  // uniform points is ~2^-64).
  EXPECT_GT(curve_points, 0u);
  EXPECT_GT(twist_points, 0u);
}

// --- Zero-copy wire decode ---------------------------------------------------

TEST(ZeroCopyWire, DecodeMatchesCopyingDecode) {
  util::Xoshiro256Rng rng(3);
  std::vector<util::Bytes> items;
  for (int i = 0; i < 9; ++i) {
    items.push_back(rng.RandomBytes(100));
  }
  util::Bytes header = rng.RandomBytes(24);
  // Small chunk budget forces continuation frames, so the zero-copy path
  // exercises multi-chunk storage.
  auto frames = transport::EncodeBatchChunks(net::FrameType::kHopForwardConversation, 42, header,
                                             items, /*max_chunk_payload=*/256);
  ASSERT_TRUE(frames.has_value());
  ASSERT_GT(frames->size(), 1u);

  transport::BatchAssembler copy_asm(transport::kMaxBatchMessageBytes,
                                     transport::BatchAssembler::ItemMode::kCopy);
  transport::BatchAssembler zero_asm(transport::kMaxBatchMessageBytes,
                                     transport::BatchAssembler::ItemMode::kZeroCopy);
  for (size_t i = 0; i < frames->size(); ++i) {
    net::Frame frame = (*frames)[i];
    auto expected = i + 1 == frames->size() ? transport::BatchAssembler::Status::kDone
                                            : transport::BatchAssembler::Status::kNeedMore;
    ASSERT_EQ(copy_asm.Consume(frame), expected);
    ASSERT_EQ(zero_asm.Consume(std::move(frame)), expected);
  }
  transport::BatchMessage by_copy = copy_asm.Take();
  transport::BatchMessage by_view = zero_asm.Take();

  EXPECT_EQ(by_copy.op, by_view.op);
  EXPECT_EQ(by_copy.round, by_view.round);
  EXPECT_EQ(by_copy.header, by_view.header);
  EXPECT_EQ(by_copy.wire_bytes, by_view.wire_bytes);
  ASSERT_EQ(by_copy.item_count(), items.size());
  ASSERT_EQ(by_view.item_count(), items.size());
  EXPECT_TRUE(by_view.items.empty());
  EXPECT_FALSE(by_view.chunk_storage.empty());

  // Views must survive a move of the whole message (the daemon moves the
  // request around before running the pass).
  transport::BatchMessage moved = std::move(by_view);
  auto copy_spans = by_copy.ItemSpans();
  auto view_spans = moved.ItemSpans();
  for (size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(util::Bytes(copy_spans[i].begin(), copy_spans[i].end()), items[i]);
    EXPECT_EQ(util::Bytes(view_spans[i].begin(), view_spans[i].end()), items[i]);
  }
}

}  // namespace
}  // namespace vuvuzela

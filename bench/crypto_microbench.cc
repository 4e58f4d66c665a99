// TAB-DOMCOST (§8.2 "Dominant costs"): micro-benchmarks of the primitives
// that dominate round latency, plus the aggregate DH throughput figure that
// anchors the paper's 28-second lower-bound analysis (their 36-core server:
// ~340,000 Curve25519 ops/sec).

#include <benchmark/benchmark.h>

#include <chrono>

#include "bench/bench_util.h"
#include "src/crypto/aead.h"
#include "src/crypto/onion.h"
#include "src/crypto/secret_cache.h"
#include "src/crypto/sha256.h"
#include "src/crypto/x25519.h"
#include "src/crypto/x25519_precomp.h"
#include "src/sim/cost_model.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"
#include "src/wire/constants.h"

namespace {

using namespace vuvuzela;

void BM_X25519SharedSecret(benchmark::State& state) {
  util::Xoshiro256Rng rng(1);
  auto a = crypto::X25519KeyPair::Generate(rng);
  auto b = crypto::X25519KeyPair::Generate(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::X25519(a.secret_key, b.public_key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_X25519SharedSecret);

void BM_X25519KeyGen(benchmark::State& state) {
  util::Xoshiro256Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::X25519KeyPair::Generate(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_X25519KeyGen);

void BM_AeadSealEnvelope(benchmark::State& state) {
  util::Xoshiro256Rng rng(3);
  crypto::AeadKey key;
  rng.Fill(key);
  util::Bytes msg = rng.RandomBytes(wire::kMessageSize);
  uint64_t round = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::AeadSeal(key, crypto::NonceFromUint64(round++), {}, msg));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(wire::kMessageSize));
}
BENCHMARK(BM_AeadSealEnvelope);

// The two AEAD calls every conversation message makes at every hop: opening
// its request layer (hop 0 of a 3-hop chain: a 416-byte layer, i.e. 368
// plaintext bytes after the 32-byte key and the tag) and sealing its 256-byte
// response, both through the allocation-free forms the mix pass runs.
void BM_AeadOpenOnionLayer(benchmark::State& state) {
  util::Xoshiro256Rng rng(8);
  crypto::AeadKey key;
  rng.Fill(key);
  constexpr size_t kLayerSize = wire::kExchangeRequestSize + 3 * crypto::kOnionRequestLayerOverhead;
  const crypto::AeadNonce nonce = crypto::NonceFromUint64(1);
  util::Bytes inner = rng.RandomBytes(kLayerSize - crypto::kOnionRequestLayerOverhead);
  util::Bytes sealed = crypto::AeadSeal(key, nonce, {}, inner);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::AeadOpenInto(key, nonce, {}, sealed, inner));
    benchmark::DoNotOptimize(inner.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(kLayerSize));
}
BENCHMARK(BM_AeadOpenOnionLayer);

void BM_AeadSealResponse(benchmark::State& state) {
  util::Xoshiro256Rng rng(9);
  crypto::AeadKey key;
  rng.Fill(key);
  util::Bytes response = rng.RandomBytes(wire::kEnvelopeSize);
  util::Bytes sealed(response.size() + crypto::kAeadTagSize);
  uint64_t round = 0;
  for (auto _ : state) {
    crypto::AeadSealInto(key, crypto::NonceFromUint64(round++), {}, response, sealed);
    benchmark::DoNotOptimize(sealed.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(response.size()));
}
BENCHMARK(BM_AeadSealResponse);

// The two halves of the AEAD on their own, at 1 KiB.
void BM_ChaCha20Keystream(benchmark::State& state) {
  util::Xoshiro256Rng rng(10);
  crypto::ChaCha20Key key;
  rng.Fill(key);
  util::Bytes data = rng.RandomBytes(1024);
  for (auto _ : state) {
    crypto::ChaCha20Xor(key, crypto::ChaCha20Nonce{}, 1, data, data);
    benchmark::DoNotOptimize(data.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_ChaCha20Keystream);

void BM_Poly1305(benchmark::State& state) {
  util::Xoshiro256Rng rng(11);
  crypto::Poly1305Key key;
  rng.Fill(key);
  util::Bytes data = rng.RandomBytes(1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Poly1305::Compute(key, data));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_Poly1305);

void BM_Sha256DeadDropId(benchmark::State& state) {
  util::Xoshiro256Rng rng(4);
  util::Bytes input = rng.RandomBytes(40);  // secret ‖ round
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::Hash(input));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Sha256DeadDropId);

void BM_OnionWrap3Servers(benchmark::State& state) {
  util::Xoshiro256Rng rng(5);
  std::vector<crypto::X25519PublicKey> chain;
  for (int i = 0; i < 3; ++i) {
    chain.push_back(crypto::X25519KeyPair::Generate(rng).public_key);
  }
  util::Bytes payload = rng.RandomBytes(wire::kExchangeRequestSize);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::OnionWrap(chain, 1, payload, rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OnionWrap3Servers);

void BM_OnionUnwrapLayer(benchmark::State& state) {
  util::Xoshiro256Rng rng(6);
  auto server = crypto::X25519KeyPair::Generate(rng);
  std::vector<crypto::X25519PublicKey> chain = {server.public_key};
  util::Bytes payload = rng.RandomBytes(wire::kExchangeRequestSize);
  auto onion = crypto::OnionWrap(chain, 1, payload, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::OnionUnwrapLayer(server.secret_key, 1, onion.data));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OnionUnwrapLayer);

// --- Batch-vs-scalar: the primitives behind MixServer's batched pass -------
// Each scalar benchmark above has a batched counterpart here; the deltas are
// exactly what the batched pass saves per onion (see docs/PERFORMANCE.md).

// Arbitrary-point comb table vs the Montgomery ladder (same multiplication).
void BM_X25519PrecompMult(benchmark::State& state) {
  util::Xoshiro256Rng rng(1);
  auto a = crypto::X25519KeyPair::Generate(rng);
  auto b = crypto::X25519KeyPair::Generate(rng);
  auto table = crypto::X25519Precomp::Create(b.public_key);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table->Mult(a.secret_key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_X25519PrecompMult);

// Unwrap with a warm SecretCache + caller scratch (the steady-state batched
// pass) vs BM_OnionUnwrapLayer's per-onion DH + allocation.
void BM_OnionUnwrapLayerCached(benchmark::State& state) {
  util::Xoshiro256Rng rng(6);
  auto server = crypto::X25519KeyPair::Generate(rng);
  std::vector<crypto::X25519PublicKey> chain = {server.public_key};
  util::Bytes payload = rng.RandomBytes(wire::kExchangeRequestSize);
  auto onion = crypto::OnionWrap(chain, 1, payload, rng);
  crypto::SecretCache cache;
  util::Bytes inner(onion.data.size() - crypto::kOnionRequestLayerOverhead);
  crypto::AeadKey response_key;
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::OnionUnwrapLayerInto(server.secret_key, &cache, 1,
                                                          onion.data, inner, response_key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OnionUnwrapLayerCached);

// Noise wrap through precomputed chain-suffix tables (what ForwardDialing /
// ForwardConversation use for cover onions) vs BM_OnionWrap3Servers' ladder.
void BM_OnionWrapPrecomp3Servers(benchmark::State& state) {
  util::Xoshiro256Rng rng(5);
  std::vector<crypto::X25519PublicKey> chain;
  std::vector<crypto::X25519Precomp> tables;
  for (int i = 0; i < 3; ++i) {
    chain.push_back(crypto::X25519KeyPair::Generate(rng).public_key);
    tables.push_back(*crypto::X25519Precomp::Create(chain.back()));
  }
  util::Bytes payload = rng.RandomBytes(wire::kExchangeRequestSize);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::OnionWrapPrecomp(tables, 1, payload, rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OnionWrapPrecomp3Servers);

// Aggregate unwrap throughput across all cores: the server-side figure that
// corresponds to the paper's "340,000 Curve25519 ops/sec on 36 cores".
void BM_ParallelUnwrapThroughput(benchmark::State& state) {
  util::Xoshiro256Rng rng(7);
  auto server = crypto::X25519KeyPair::Generate(rng);
  std::vector<crypto::X25519PublicKey> chain = {server.public_key};
  constexpr size_t kBatch = 8192;
  std::vector<util::Bytes> onions(kBatch);
  util::GlobalPool().ParallelFor(kBatch, [&](size_t i) {
    util::Xoshiro256Rng task_rng(i);
    onions[i] =
        crypto::OnionWrap(chain, 1, task_rng.RandomBytes(wire::kExchangeRequestSize), task_rng)
            .data;
  });
  for (auto _ : state) {
    util::GlobalPool().ParallelFor(kBatch, [&](size_t i) {
      benchmark::DoNotOptimize(crypto::OnionUnwrapLayer(server.secret_key, 1, onions[i]));
    });
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kBatch));
}
BENCHMARK(BM_ParallelUnwrapThroughput)->Unit(benchmark::kMillisecond);

// Microseconds per call of `fn` over `iters` iterations (one warm-up call).
template <typename Fn>
double TimeUs(size_t iters, Fn&& fn) {
  fn();
  auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < iters; ++i) {
    fn();
  }
  auto elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return elapsed / static_cast<double>(iters) * 1e6;
}

// The batch-vs-scalar summary the CI trajectory tracks: one JSONL row pinning
// the three per-onion savings the batched MixServer pass is built on. Printed
// (and emitted to $VUVUZELA_BENCH_JSON) on every run, independently of the
// google-benchmark registry above, so the bench-trajectory job gets it from
// the same invocation that produces the human-readable table.
void PrintBatchVsScalarSection() {
  using namespace vuvuzela;
  util::Xoshiro256Rng rng(99);
  auto client = crypto::X25519KeyPair::Generate(rng);
  auto server = crypto::X25519KeyPair::Generate(rng);
  auto table = crypto::X25519Precomp::Create(server.public_key);

  constexpr size_t kLadderIters = 200;   // ~55us each
  constexpr size_t kFastIters = 2000;    // cached / comb paths

  double mult_ladder_us = TimeUs(kLadderIters, [&] {
    benchmark::DoNotOptimize(crypto::X25519(client.secret_key, server.public_key));
  });
  double mult_precomp_us = TimeUs(kLadderIters, [&] {
    benchmark::DoNotOptimize(table->Mult(client.secret_key));
  });

  std::vector<crypto::X25519PublicKey> chain = {server.public_key};
  util::Bytes payload = rng.RandomBytes(wire::kExchangeRequestSize);
  auto onion = crypto::OnionWrap(chain, 1, payload, rng);
  crypto::SecretCache cache;
  util::Bytes inner(onion.data.size() - crypto::kOnionRequestLayerOverhead);
  crypto::AeadKey response_key;
  double unwrap_scalar_us = TimeUs(kLadderIters, [&] {
    benchmark::DoNotOptimize(crypto::OnionUnwrapLayer(server.secret_key, 1, onion.data));
  });
  double unwrap_cached_us = TimeUs(kFastIters, [&] {
    benchmark::DoNotOptimize(crypto::OnionUnwrapLayerInto(server.secret_key, &cache, 1,
                                                          onion.data, inner, response_key));
  });

  std::vector<crypto::X25519PublicKey> suffix;
  std::vector<crypto::X25519Precomp> tables;
  for (int i = 0; i < 3; ++i) {
    suffix.push_back(crypto::X25519KeyPair::Generate(rng).public_key);
    tables.push_back(*crypto::X25519Precomp::Create(suffix.back()));
  }
  double wrap_ladder_us = TimeUs(kLadderIters / 2, [&] {
    benchmark::DoNotOptimize(crypto::OnionWrap(suffix, 1, payload, rng));
  });
  double wrap_precomp_us = TimeUs(kLadderIters / 2, [&] {
    benchmark::DoNotOptimize(crypto::OnionWrapPrecomp(tables, 1, payload, rng));
  });

  std::printf("\n=== TAB-DOMCOST-BATCH: batch primitives vs scalar reference ===\n");
  std::printf("  X25519 mult:  ladder %8.2f us  comb table %8.2f us  (%.2fx)\n", mult_ladder_us,
              mult_precomp_us, mult_ladder_us / mult_precomp_us);
  std::printf("  layer unwrap: scalar %8.2f us  cached+scratch %4.2f us  (%.1fx)\n",
              unwrap_scalar_us, unwrap_cached_us, unwrap_scalar_us / unwrap_cached_us);
  std::printf("  noise wrap 3: ladder %8.2f us  precomp %6.2f us  (%.2fx)\n", wrap_ladder_us,
              wrap_precomp_us, wrap_ladder_us / wrap_precomp_us);

  bench::EmitJson("tab_domcost_batch",
                  {{"mult_ladder_us", mult_ladder_us},
                   {"mult_precomp_us", mult_precomp_us},
                   {"mult_speedup", mult_ladder_us / mult_precomp_us},
                   {"unwrap_scalar_us", unwrap_scalar_us},
                   {"unwrap_cached_us", unwrap_cached_us},
                   {"unwrap_speedup", unwrap_scalar_us / unwrap_cached_us},
                   {"wrap_ladder_us", wrap_ladder_us},
                   {"wrap_precomp_us", wrap_precomp_us},
                   {"wrap_speedup", wrap_ladder_us / wrap_precomp_us}});
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  PrintBatchVsScalarSection();

  // The lower-bound analysis of §8.2, recomputed with this machine's
  // measured throughput.
  auto model = vuvuzela::sim::CostModel::Measure();
  std::printf("\n=== TAB-DOMCOST: dominant-cost lower bound (§8.2) ===\n");
  std::printf("  measured aggregate unwrap throughput: %.0f req/s (paper server: ~340,000)\n",
              model.dh_ops_per_sec);
  double lb = model.ConversationCryptoLowerBound(2'000'000, 3, 300'000);
  std::printf("  2M users, 3 servers, mu=300K: crypto lower bound %.1f s "
              "(paper: ~28 s on their hardware)\n", lb);
  double full = model.ConversationRoundLatency(2'000'000, 3, 300'000);
  std::printf("  modeled full-round latency: %.1f s -> within %.2fx of lower bound "
              "(paper: within 2x)\n", full, full / lb);
  return 0;
}

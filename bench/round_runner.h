// Shared driver: run real protocol rounds at a given scale and time them.
// Workload (client-side onion wrapping) is generated outside the timed
// region, mirroring §8.1 ("to ensure that clients are not the bottleneck").
//
// Every round runs through engine::RoundScheduler, the one round driver.
// The lock-step baseline is its K=1 case — one round in the chain at a
// time, each occupying every server for its whole duration — and the
// pipelined rows keep K rounds in flight (§8.3), which is how the deployed
// system reaches its throughput numbers. Both feed the same workload shape
// through DrivePipelinedRounds.

#ifndef VUVUZELA_BENCH_ROUND_RUNNER_H_
#define VUVUZELA_BENCH_ROUND_RUNNER_H_

#include <chrono>
#include <thread>

#include "bench/bench_util.h"
#include "src/engine/round_scheduler.h"
#include "src/mixnet/chain.h"
#include "src/sim/workload.h"
#include "src/transport/hop_chain.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"

namespace vuvuzela::bench {

struct RealRound {
  double seconds = 0.0;
  mixnet::RoundStats stats;
  uint64_t requests_at_last_server = 0;
  uint64_t messages_exchanged = 0;
};

// Multi-round run through the engine at some K.
struct MultiRound {
  uint64_t rounds = 0;
  uint64_t messages_exchanged = 0;
  double wall_seconds = 0.0;
  double messages_per_second = 0.0;
  // Mean submit→complete latency of one round (K > 1: rounds overlap, so
  // this exceeds wall_seconds / rounds; that gap is the pipelining win).
  double mean_round_seconds = 0.0;
  // Latency distribution tails (same submit→complete metric, recorded by
  // the scheduler per round). What BENCH_engine.json tracks per commit.
  double p50_round_seconds = 0.0;
  double p99_round_seconds = 0.0;
};

inline mixnet::Chain MakeBenchChain(size_t servers, double mu, uint64_t seed,
                                    double dial_mu = 0.0) {
  mixnet::ChainConfig config;
  config.num_servers = servers;
  // §8.1: "we configure servers to always add exactly µ noise, rather than
  // sampling the Laplace distribution" — same mean, less variance.
  config.conversation_noise = {.params = {mu, mu / 20.0 + 1.0}, .deterministic = true};
  config.dialing_noise = {.params = {dial_mu, dial_mu / 20.0 + 1.0}, .deterministic = true};
  config.parallel = true;
  config.exchange_shards = 0;  // one dead-drop shard per pool worker
  util::Xoshiro256Rng rng(seed);
  return mixnet::Chain::Create(config, rng);
}

// The engine at K=1 over a chain's in-process servers: lock-step rounds.
inline engine::RoundScheduler LockStepScheduler(mixnet::Chain& chain) {
  return engine::RoundScheduler(transport::MakeLocalTransports(chain.servers()),
                                {.max_in_flight = 1});
}

// Pre-wraps `rounds` per-round onion batches (round numbers 1..rounds).
// With a key ring, each user's onions use their static key every round, so
// the servers' secret caches hit (the steady-state §8.1 shape).
inline std::vector<std::vector<util::Bytes>> MakeConversationBatches(
    uint64_t users, std::span<const crypto::X25519PublicKey> chain_keys, uint64_t rounds,
    uint64_t seed, const sim::ClientKeyRing* key_ring = nullptr) {
  std::vector<std::vector<util::Bytes>> batches;
  batches.reserve(rounds);
  for (uint64_t round = 1; round <= rounds; ++round) {
    sim::WorkloadConfig workload{.num_users = users,
                                 .pairing_fraction = 1.0,
                                 .seed = seed + round,
                                 .parallel = true,
                                 .key_ring = key_ring};
    batches.push_back(sim::GenerateConversationWorkload(workload, chain_keys, round));
  }
  return batches;
}

inline RealRound RunRealConversationRound(uint64_t users, size_t servers, double mu,
                                          uint64_t seed) {
  mixnet::Chain chain = MakeBenchChain(servers, mu, seed);
  sim::WorkloadConfig workload{.num_users = users, .pairing_fraction = 1.0, .seed = seed,
                               .parallel = true};
  std::vector<util::Bytes> onions =
      sim::GenerateConversationWorkload(workload, chain.public_keys(), 1);

  engine::RoundScheduler scheduler = LockStepScheduler(chain);
  auto start = std::chrono::steady_clock::now();
  auto result = scheduler.SubmitConversation(1, std::move(onions)).get();
  double seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  RealRound out;
  out.seconds = seconds;
  out.stats = std::move(result.stats);
  out.requests_at_last_server = out.stats.forward.back().requests_in;
  out.messages_exchanged = result.messages_exchanged;
  return out;
}

// Shared body of every multi-round driver: feed pre-wrapped per-round
// batches through the engine over `hops` with K = `max_in_flight`, drain,
// and aggregate throughput/latency. `collection_window_seconds` models the
// per-round client-submission epoch (§3.1: the first server "announces the
// round and collects requests" for a fixed window before closing the batch).
// The round being collected holds one of the K slots, so round r's window
// opens once round r-K has left the pipeline: at K=1 the chain sits idle
// through every window (lock-step); at larger K the window overlaps the
// passes of the K-1 rounds ahead of it — "while the first server is
// collecting messages for one round, other servers process previous rounds"
// (§8.3).
inline MultiRound DrivePipelinedRounds(std::vector<std::unique_ptr<transport::HopTransport>> hops,
                                       size_t max_in_flight,
                                       std::vector<std::vector<util::Bytes>> batches,
                                       double collection_window_seconds) {
  engine::RoundScheduler scheduler(std::move(hops),
                                   {.max_in_flight = max_in_flight, .record_latencies = true});
  MultiRound out;
  out.rounds = batches.size();
  std::vector<std::future<mixnet::Chain::ConversationResult>> futures;
  futures.reserve(batches.size());
  auto start = std::chrono::steady_clock::now();
  for (uint64_t round = 1; round <= batches.size(); ++round) {
    if (round > max_in_flight) {
      futures[round - 1 - max_in_flight].wait();
    }
    if (collection_window_seconds > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(collection_window_seconds));
    }
    futures.push_back(scheduler.SubmitConversation(round, std::move(batches[round - 1])));
  }
  scheduler.Drain();
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  for (auto& f : futures) {
    out.messages_exchanged += f.get().messages_exchanged;
  }
  out.messages_per_second = out.messages_exchanged / out.wall_seconds;
  auto stats = scheduler.stats();
  out.mean_round_seconds =
      stats.conversation_rounds_completed > 0
          ? stats.total_conversation_latency_seconds / stats.conversation_rounds_completed
          : 0.0;
  out.p50_round_seconds = Percentile(stats.conversation_latencies, 50);
  out.p99_round_seconds = Percentile(std::move(stats.conversation_latencies), 99);
  return out;
}

// In-process driver: K rounds in flight through the engine, K=1 being the
// lock-step baseline.
inline MultiRound RunPipelinedConversationRounds(uint64_t users, size_t servers, double mu,
                                                 uint64_t rounds, size_t max_in_flight,
                                                 uint64_t seed,
                                                 double collection_window_seconds = 0.0) {
  mixnet::Chain chain = MakeBenchChain(servers, mu, seed);
  sim::ClientKeyRing key_ring(users, seed);
  chain.PrimeSecretCaches(key_ring.public_keys());  // key ceremony, untimed
  auto batches = MakeConversationBatches(users, chain.public_keys(), rounds, seed, &key_ring);
  return DrivePipelinedRounds(transport::MakeLocalTransports(chain.servers()), max_in_flight,
                              std::move(batches), collection_window_seconds);
}

// TCP-transport driver: the same engine and workload shape, but every stage
// is a TcpTransport speaking to a loopback HopDaemon — the wire cost of the
// multi-process (§7) deployment, isolated from network latency. Mirrors
// RunPipelinedConversationRounds so the two are directly comparable.
inline MultiRound RunTcpPipelinedConversationRounds(uint64_t users, size_t servers, double mu,
                                                    uint64_t rounds, size_t max_in_flight,
                                                    uint64_t seed,
                                                    double collection_window_seconds = 0.0) {
  mixnet::ChainConfig config;
  config.num_servers = servers;
  config.conversation_noise = {.params = {mu, mu / 20.0 + 1.0}, .deterministic = true};
  config.parallel = true;
  config.exchange_shards = 0;
  auto chain = transport::LoopbackChain::Start(config, seed);
  if (!chain) {
    return {};
  }

  sim::ClientKeyRing key_ring(users, seed);
  chain->PrimeSecretCaches(key_ring.public_keys());  // key ceremony, untimed
  auto batches = MakeConversationBatches(users, chain->public_keys(), rounds, seed, &key_ring);

  auto transports = chain->ConnectTransports();
  if (transports.empty()) {
    return {};
  }
  return DrivePipelinedRounds(std::move(transports), max_in_flight, std::move(batches),
                              collection_window_seconds);
}

inline RealRound RunRealDialingRound(uint64_t users, size_t servers, double mu,
                                     uint32_t total_drops, double dial_fraction, uint64_t seed) {
  mixnet::Chain chain = MakeBenchChain(servers, /*mu=*/1.0, seed, /*dial_mu=*/mu);
  dialing::RoundConfig dial_config{.num_real_drops = total_drops - 1};
  sim::WorkloadConfig workload{.num_users = users, .pairing_fraction = 1.0, .seed = seed,
                               .parallel = true};
  std::vector<util::Bytes> onions =
      sim::GenerateDialingWorkload(workload, chain.public_keys(), 1, dial_config, dial_fraction);

  engine::RoundScheduler scheduler = LockStepScheduler(chain);
  auto start = std::chrono::steady_clock::now();
  auto result = scheduler.SubmitDialing(1, std::move(onions), total_drops).get();
  double seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  RealRound out;
  out.seconds = seconds;
  out.stats = std::move(result.stats);
  out.requests_at_last_server = out.stats.forward.back().requests_in;
  return out;
}

}  // namespace vuvuzela::bench

#endif  // VUVUZELA_BENCH_ROUND_RUNNER_H_

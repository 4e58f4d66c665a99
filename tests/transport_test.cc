// Hop transport subsystem tests: backend conformance (LocalTransport vs
// loopback TcpTransport must produce byte-identical rounds), dead-hop
// timeout behavior, daemon robustness, and the multi-process coordinator.

#include <gtest/gtest.h>

#include <future>
#include <thread>

#include "src/coord/coordinator.h"
#include "src/engine/round_scheduler.h"
#include "src/sim/workload.h"
#include "src/transport/coord_daemon.h"
#include "src/transport/hop_chain.h"
#include "src/util/random.h"

namespace vuvuzela::transport {
namespace {

mixnet::ChainConfig TestChainConfig() {
  mixnet::ChainConfig config;
  config.num_servers = 3;
  config.conversation_noise = {.params = {3.0, 1.0}, .deterministic = true};
  config.dialing_noise = {.params = {2.0, 1.0}, .deterministic = true};
  config.parallel = false;
  config.exchange_shards = 1;
  return config;
}

constexpr uint64_t kKeySeed = 0x5eed;
constexpr uint64_t kConversationRounds = 4;
constexpr uint64_t kUsers = 10;
constexpr uint32_t kDialDrops = 2;
// Small chunk budget so the conformance workload exercises multi-chunk
// streaming on every pass, not just the single-frame fast path.
constexpr size_t kTestChunkPayload = 2048;

struct Workload {
  std::vector<std::vector<util::Bytes>> conversation_batches;
  std::vector<util::Bytes> dial_batch;
};

Workload MakeWorkload() {
  Workload workload;
  auto keys = DeriveChainKeys(kKeySeed, TestChainConfig().num_servers);
  for (uint64_t round = 1; round <= kConversationRounds; ++round) {
    sim::WorkloadConfig config{
        .num_users = kUsers, .pairing_fraction = 1.0, .seed = 7 + round, .parallel = false};
    workload.conversation_batches.push_back(
        sim::GenerateConversationWorkload(config, keys.public_keys, round));
  }
  sim::WorkloadConfig config{
      .num_users = kUsers, .pairing_fraction = 1.0, .seed = 99, .parallel = false};
  dialing::RoundConfig dial_config{.num_real_drops = kDialDrops - 1};
  workload.dial_batch = sim::GenerateDialingWorkload(
      config, keys.public_keys, coord::kDialingRoundBase, dial_config, 0.5);
  return workload;
}

// Everything adversary- and client-visible about a run: used to assert two
// backends are byte-identical.
struct RunOutcome {
  std::vector<std::vector<util::Bytes>> responses;
  std::vector<uint64_t> singles, pairs, exchanged;
  std::vector<uint64_t> dial_drop_sizes;
  std::vector<std::vector<wire::Invitation>> dial_drops;
};

RunOutcome RunThroughScheduler(std::vector<std::unique_ptr<HopTransport>> hops,
                               const Workload& workload) {
  engine::RoundScheduler scheduler(std::move(hops), {.max_in_flight = 3});
  std::vector<std::future<mixnet::Chain::ConversationResult>> futures;
  for (uint64_t round = 1; round <= kConversationRounds; ++round) {
    futures.push_back(
        scheduler.SubmitConversation(round, workload.conversation_batches[round - 1]));
  }
  auto dial_future =
      scheduler.SubmitDialing(coord::kDialingRoundBase, workload.dial_batch, kDialDrops);
  scheduler.Drain();

  RunOutcome outcome;
  for (auto& future : futures) {
    mixnet::Chain::ConversationResult result = future.get();
    outcome.responses.push_back(std::move(result.responses));
    outcome.singles.push_back(result.histogram.singles);
    outcome.pairs.push_back(result.histogram.pairs);
    outcome.exchanged.push_back(result.messages_exchanged);
  }
  mixnet::Chain::DialingResult dial_result = dial_future.get();
  outcome.dial_drop_sizes = dial_result.table.DropSizes();
  for (uint32_t i = 0; i < dial_result.table.num_drops(); ++i) {
    outcome.dial_drops.push_back(dial_result.table.Drop(i));
  }
  return outcome;
}

enum class Backend { kLocal, kTcp };

RunOutcome RunBackend(Backend backend, const Workload& workload) {
  if (backend == Backend::kLocal) {
    auto servers = BuildMixServers(TestChainConfig(), DeriveChainKeys(kKeySeed, 3));
    return RunThroughScheduler(MakeLocalTransports(servers), workload);
  }
  auto chain = LoopbackChain::Start(TestChainConfig(), kKeySeed, kTestChunkPayload);
  EXPECT_NE(chain, nullptr);
  auto transports = chain->ConnectTransports(/*recv_timeout_ms=*/10000);
  EXPECT_EQ(transports.size(), 3u);
  return RunThroughScheduler(std::move(transports), workload);
}

class TransportConformanceTest : public ::testing::TestWithParam<Backend> {};

TEST_P(TransportConformanceTest, RunsPipelinedWorkload) {
  Workload workload = MakeWorkload();
  RunOutcome outcome = RunBackend(GetParam(), workload);
  ASSERT_EQ(outcome.responses.size(), kConversationRounds);
  for (uint64_t round = 0; round < kConversationRounds; ++round) {
    // Every client gets exactly one onion-sealed response back.
    EXPECT_EQ(outcome.responses[round].size(), kUsers);
    // All users are paired, so at least every real message is exchanged
    // (colliding noise requests can add to the count).
    EXPECT_GE(outcome.exchanged[round], kUsers);
    EXPECT_GE(outcome.pairs[round], kUsers / 2);
  }
  EXPECT_EQ(outcome.dial_drop_sizes.size(), kDialDrops);
}

INSTANTIATE_TEST_SUITE_P(Backends, TransportConformanceTest,
                         ::testing::Values(Backend::kLocal, Backend::kTcp),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           return info.param == Backend::kLocal ? "Local" : "LoopbackTcp";
                         });

TEST(TransportConformance, BackendsAreByteIdentical) {
  Workload workload = MakeWorkload();
  RunOutcome local = RunBackend(Backend::kLocal, workload);
  RunOutcome tcp = RunBackend(Backend::kTcp, workload);

  // Same key ceremony, same noise-RNG seeds, same stage ordering: the TCP
  // chain must reproduce the in-process chain bit for bit — responses,
  // observable histograms, exchange counts, and invitation drops.
  EXPECT_EQ(local.responses, tcp.responses);
  EXPECT_EQ(local.singles, tcp.singles);
  EXPECT_EQ(local.pairs, tcp.pairs);
  EXPECT_EQ(local.exchanged, tcp.exchanged);
  EXPECT_EQ(local.dial_drop_sizes, tcp.dial_drop_sizes);
  EXPECT_EQ(local.dial_drops, tcp.dial_drops);
}

// A hop that accepts the connection and consumes requests but never answers:
// the transport's receive deadline must fail the stage (and the round) with
// HopTimeoutError instead of wedging the stage worker forever.
TEST(TcpTransportFailure, DeadHopTimesOutTheRound) {
  auto listener = net::TcpListener::Listen(0);
  ASSERT_TRUE(listener.has_value());
  std::thread black_hole([&] {
    auto conn = listener->Accept();
    if (!conn) {
      return;
    }
    while (conn->RecvFrame()) {
    }
  });

  TcpTransportConfig config;
  config.port = listener->port();
  config.recv_timeout_ms = 100;
  auto transport = TcpTransport::Connect(config);
  ASSERT_NE(transport, nullptr);

  std::vector<std::unique_ptr<HopTransport>> hops;
  hops.push_back(std::move(transport));
  engine::RoundScheduler scheduler(std::move(hops), {.max_in_flight = 2});
  auto future = scheduler.SubmitConversation(1, {util::Bytes(16, 0xab)});
  try {
    future.get();
    FAIL() << "round against a dead hop completed";
  } catch (const HopTimeoutError&) {
  }
  scheduler.Drain();
  EXPECT_EQ(scheduler.stats().rounds_failed, 1u);
  // Shutdown (not Close) is the only listener call safe while the black-hole
  // thread may still be inside Accept; the destructor closes after the join.
  listener->Shutdown();
  black_hole.join();
}

// A hop that disappears (EOF) is a different error from one that stalls.
TEST(TcpTransportFailure, ClosedHopIsNotATimeout) {
  auto listener = net::TcpListener::Listen(0);
  ASSERT_TRUE(listener.has_value());
  std::thread closer([&] {
    auto conn = listener->Accept();
    // Close immediately: the transport sees EOF, not a deadline.
  });

  TcpTransportConfig config;
  config.port = listener->port();
  config.recv_timeout_ms = 2000;
  auto transport = TcpTransport::Connect(config);
  ASSERT_NE(transport, nullptr);
  closer.join();
  try {
    transport->ForwardConversation(1, {util::Bytes(16, 0xcd)}, nullptr);
    FAIL() << "forward pass against a closed hop succeeded";
  } catch (const HopTimeoutError&) {
    FAIL() << "EOF misreported as a timeout";
  } catch (const HopError&) {
  }
  // The connection is poisoned: later calls fail fast.
  EXPECT_FALSE(transport->connected());
}

// One malformed request must not take the hop daemon down: it reports
// kHopError and keeps serving the next coordinator connection.
TEST(HopDaemonRobustness, SurvivesMalformedBatchMessage) {
  auto chain = LoopbackChain::Start(TestChainConfig(), kKeySeed);
  ASSERT_NE(chain, nullptr);

  {
    auto raw = net::TcpConnection::Connect("127.0.0.1", chain->port(0));
    ASSERT_TRUE(raw.has_value());
    // A hop-op frame whose chunk payload is garbage.
    raw->SendFrame(net::Frame{net::FrameType::kHopForwardConversation, 3, {0xff, 0xff, 0xff}});
    auto reply = raw->RecvFrame();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->type, net::FrameType::kHopError);
  }

  // The daemon accepts a fresh connection and serves a real pass.
  auto transports = chain->ConnectTransports();
  ASSERT_EQ(transports.size(), 3u);
  Workload workload = MakeWorkload();
  auto batch =
      transports[0]->ForwardConversation(1, workload.conversation_batches[0], nullptr);
  EXPECT_GT(batch.size(), 0u);
}

// The coordinator process drives a synthetic multi-process deployment:
// conversation rounds interleaved with dialing rounds, K in flight, over
// loopback hop daemons.
TEST(CoordinatorDaemon, DrivesInterleavedRoundsOverLoopbackHops) {
  auto chain = LoopbackChain::Start(TestChainConfig(), kKeySeed);
  ASSERT_NE(chain, nullptr);

  CoordDaemonConfig config;
  for (size_t i = 0; i < chain->size(); ++i) {
    config.hops.push_back({"127.0.0.1", chain->port(i)});
  }
  config.scheduler.max_in_flight = 3;
  config.schedule.conversation_rounds_per_dialing_round = 3;
  config.total_rounds = 7;
  config.hop_timeout_ms = 10000;
  config.synthetic_users = 12;
  config.key_seed = kKeySeed;

  CoordinatorDaemon coordinator(std::move(config));
  ASSERT_TRUE(coordinator.Start());
  CoordDaemonResult result = coordinator.Run();
  EXPECT_EQ(result.conversation_rounds_completed + result.dialing_rounds_completed, 7u);
  EXPECT_GE(result.dialing_rounds_completed, 1u);
  EXPECT_EQ(result.rounds_abandoned, 0u);
  EXPECT_GT(result.messages_exchanged, 0u);
}

// Regression: the admission-window dedup map is keyed by round and must be
// pruned by round *expiry*, not round completion — with a dead hop abandoning
// every round, a long-running coordinator would otherwise accumulate one
// dedup record per announced round forever.
TEST(CoordinatorDaemon, PrunesAdmissionDedupForAbandonedRounds) {
  mixnet::ChainConfig config1 = TestChainConfig();
  config1.num_servers = 1;
  auto keys = DeriveChainKeys(kKeySeed, 1);

  // The only hop is a black hole: every announced round is abandoned.
  auto dead = net::TcpListener::Listen(0);
  ASSERT_TRUE(dead.has_value());
  std::thread black_hole([&] {
    while (auto conn = dead->Accept()) {
      while (conn->RecvFrame()) {
      }
    }
  });

  constexpr uint64_t kTotalRounds = 16;
  constexpr size_t kInFlight = 2;
  CoordDaemonConfig config;
  config.hops.push_back({"127.0.0.1", dead->port()});
  config.scheduler.max_in_flight = kInFlight;
  config.schedule.conversation_rounds_per_dialing_round = 1000;  // conversation only
  config.total_rounds = kTotalRounds;
  config.admission_window_seconds = 0.2;  // closes early once the client contributed
  config.hop_timeout_ms = 100;
  config.num_clients = 1;
  config.key_seed = kKeySeed;
  // This test is about dedup pruning under abandonment, not recovery: pin
  // the legacy abandon-on-first-failure policy so every round fails once.
  config.max_round_attempts = 1;
  config.reconnect.max_call_attempts = 1;

  CoordinatorDaemon coordinator(std::move(config));
  ASSERT_TRUE(coordinator.Start());

  // One client that answers every announcement with a (garbage) onion — it
  // only needs to exercise the admission window, not survive the mix chain.
  std::thread client([&] {
    auto conn = net::TcpConnection::Connect("127.0.0.1", coordinator.client_port());
    if (!conn) {
      return;
    }
    while (auto frame = conn->RecvFrame()) {
      if (frame->type == net::FrameType::kShutdown) {
        return;
      }
      if (frame->type != net::FrameType::kRoundAnnouncement) {
        continue;
      }
      auto announcement = wire::RoundAnnouncement::Parse(frame->payload);
      if (!announcement) {
        continue;
      }
      net::FrameType type = announcement->type == wire::RoundType::kConversation
                                ? net::FrameType::kConversationRequest
                                : net::FrameType::kDialRequest;
      conn->SendFrame(net::Frame{type, announcement->round, util::Bytes(416, 0xab)});
    }
  });

  CoordDaemonResult result = coordinator.Run();
  client.join();
  EXPECT_EQ(result.rounds_abandoned, kTotalRounds);

  // Despite every round being abandoned, dedup records are bounded by the
  // expiry window (the scheduler's derived keep = 2K + 2), not by the number
  // of rounds announced.
  constexpr uint64_t kKeep = 2 * kInFlight + 2;
  EXPECT_LE(coordinator.admission_dedup_rounds(), kKeep + 1);
  EXPECT_LT(coordinator.admission_dedup_rounds(), kTotalRounds);

  dead->Shutdown();
  black_hole.join();
}

// A dead hop in the chain: every round that reaches it is abandoned — counted,
// reclaimed, and the coordinator finishes instead of hanging.
TEST(CoordinatorDaemon, AbandonsRoundsStuckOnDeadHop) {
  // Hops 0 and 1 of a 3-server chain run for real; the last hop is a black
  // hole that accepts batches and never answers.
  mixnet::ChainConfig config3 = TestChainConfig();
  auto keys = DeriveChainKeys(kKeySeed, config3.num_servers);
  std::vector<std::unique_ptr<HopDaemon>> live;
  std::vector<std::thread> serve_threads;
  for (size_t i = 0; i < 2; ++i) {
    live.push_back(HopDaemon::Create({}, BuildMixServer(config3, keys, i)));
    ASSERT_NE(live.back(), nullptr);
    serve_threads.emplace_back([daemon = live.back().get()] { daemon->Serve(); });
  }

  auto dead = net::TcpListener::Listen(0);
  ASSERT_TRUE(dead.has_value());
  std::thread black_hole([&] {
    while (auto conn = dead->Accept()) {
      while (conn->RecvFrame()) {
      }
    }
  });

  CoordDaemonConfig config;
  config.hops.push_back({"127.0.0.1", live[0]->port()});
  config.hops.push_back({"127.0.0.1", live[1]->port()});
  config.hops.push_back({"127.0.0.1", dead->port()});  // last hop never answers
  config.scheduler.max_in_flight = 2;
  config.total_rounds = 3;
  config.hop_timeout_ms = 150;
  config.synthetic_users = 6;
  config.key_seed = kKeySeed;
  // Bounded abandonment is the subject here: disable recovery so each round
  // fails exactly once (the recovery paths get their own suite).
  config.max_round_attempts = 1;
  config.reconnect.max_call_attempts = 1;

  CoordinatorDaemon coordinator(std::move(config));
  ASSERT_TRUE(coordinator.Start());
  CoordDaemonResult result = coordinator.Run();
  EXPECT_EQ(result.rounds_abandoned, 3u);
  EXPECT_EQ(result.conversation_rounds_completed, 0u);

  dead->Shutdown();  // wakes the blocked Accept; safe cross-thread, Close is not
  black_hole.join();
  for (auto& daemon : live) {
    daemon->Stop();
  }
  for (auto& thread : serve_threads) {
    thread.join();
  }
}

}  // namespace
}  // namespace vuvuzela::transport

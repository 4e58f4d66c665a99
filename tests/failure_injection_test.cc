// Failure injection: adversarial and broken inputs pushed through the whole
// system. §2.3 allows clients to misbehave arbitrarily — servers must stay
// available and honest clients must stay correct and private.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <thread>

#include "src/conversation/protocol.h"
#include "src/crypto/onion.h"
#include "src/crypto/sha256.h"
#include "src/sim/workload.h"
#include "src/dialing/protocol.h"
#include "src/engine/round_scheduler.h"
#include "src/mixnet/chain.h"
#include "src/transport/coord_daemon.h"
#include "src/transport/hop_chain.h"
#include "src/util/random.h"
#include "tests/lock_step.h"

namespace vuvuzela::mixnet {
namespace {

using conversation::Session;

ChainConfig Config(size_t servers, double mu = 2.0) {
  ChainConfig config;
  config.num_servers = servers;
  config.conversation_noise = {.params = {mu, 1.0}, .deterministic = true};
  config.dialing_noise = {.params = {mu, 1.0}, .deterministic = true};
  config.parallel = false;
  return config;
}

class FailureInjectionTest : public ::testing::Test {
 protected:
  util::Xoshiro256Rng rng_{4242};
  Chain chain_ = Chain::Create(Config(3), rng_);
  crypto::X25519KeyPair alice_ = crypto::X25519KeyPair::Generate(rng_);
  crypto::X25519KeyPair bob_ = crypto::X25519KeyPair::Generate(rng_);

  util::Bytes WrapExchange(uint64_t round, const wire::ExchangeRequest& request) {
    return crypto::OnionWrap(chain_.public_keys(), round, request.Serialize(), rng_).data;
  }
};

TEST_F(FailureInjectionTest, AllGarbageRoundCompletes) {
  std::vector<util::Bytes> onions;
  for (int i = 0; i < 10; ++i) {
    onions.push_back(rng_.RandomBytes(416));
  }
  auto result = testutil::LockStepConversation(chain_, 1, std::move(onions));
  EXPECT_EQ(result.responses.size(), 10u);
  EXPECT_EQ(result.stats.forward[0].requests_dropped, 10u);
}

TEST_F(FailureInjectionTest, ZeroLengthAndOversizedOnions) {
  Session session = Session::Derive(alice_, bob_.public_key);
  auto good = WrapExchange(2, conversation::BuildExchangeRequest(session, 2, {}));
  std::vector<util::Bytes> onions;
  onions.push_back({});                      // empty
  onions.push_back(rng_.RandomBytes(10));    // far too short
  onions.push_back(rng_.RandomBytes(4096));  // far too long
  onions.push_back(good);
  auto result = testutil::LockStepConversation(chain_, 2, std::move(onions));
  ASSERT_EQ(result.responses.size(), 4u);
  // The honest request still echoes back correctly.
  auto keys = crypto::OnionWrap(chain_.public_keys(), 99, util::Bytes(1), rng_);
  (void)keys;
}

TEST_F(FailureInjectionTest, ValidOnionGarbagePayloadDroppedAtLastHop) {
  // An onion that unwraps fine at every hop but contains a payload that is
  // not a well-formed ExchangeRequest.
  util::Bytes junk = rng_.RandomBytes(wire::kExchangeRequestSize - 5);
  auto onion = crypto::OnionWrap(chain_.public_keys(), 3, junk, rng_);
  auto result = testutil::LockStepConversation(chain_, 3, {onion.data});
  EXPECT_EQ(result.stats.forward.back().requests_dropped, 1u);
  EXPECT_EQ(result.responses.size(), 1u);
}

TEST_F(FailureInjectionTest, ReplayedOnionWithinRoundHitsSameDropTwice) {
  // An adversary replaying Alice's onion in the same round creates a crowded
  // drop; Alice's exchange must still complete with one of the copies and
  // the server must not crash.
  Session alice_session = Session::Derive(alice_, bob_.public_key);
  Session bob_session = Session::Derive(bob_, alice_.public_key);
  auto alice_onion =
      WrapExchange(4, conversation::BuildExchangeRequest(alice_session, 4, {}));
  auto bob_onion = WrapExchange(4, conversation::BuildExchangeRequest(bob_session, 4, {}));

  auto result = testutil::LockStepConversation(chain_, 4, {alice_onion, alice_onion, bob_onion});
  EXPECT_EQ(result.responses.size(), 3u);
  EXPECT_EQ(result.histogram.crowded, 1u);  // 3 accesses on one drop
}

TEST_F(FailureInjectionTest, ReplayAcrossRoundsRejected) {
  // Round binding in the onion nonce: a request recorded in round 5 and
  // replayed in round 6 fails at the first hop.
  Session session = Session::Derive(alice_, bob_.public_key);
  auto onion = WrapExchange(5, conversation::BuildExchangeRequest(session, 5, {}));
  auto result5 = testutil::LockStepConversation(chain_, 5, {onion});
  EXPECT_EQ(result5.stats.forward[0].requests_dropped, 0u);

  auto result6 = testutil::LockStepConversation(chain_, 6, {onion});
  EXPECT_EQ(result6.stats.forward[0].requests_dropped, 1u);
}

TEST_F(FailureInjectionTest, AdversarialDialIndexesCannotFaultServer) {
  dialing::RoundConfig dial_config{.num_real_drops = 2};
  std::vector<util::Bytes> onions;
  for (uint32_t index : {0u, 1u, 2u, 3u, 1000000u, UINT32_MAX}) {
    wire::DialRequest request;
    request.dead_drop_index = index;  // includes far out-of-range values
    rng_.Fill(request.invitation);
    onions.push_back(
        crypto::OnionWrap(chain_.public_keys(), 7, request.Serialize(), rng_).data);
  }
  auto result = testutil::LockStepDialing(chain_, 7, std::move(onions), dial_config.total_drops());
  // All deposits landed (mod total_drops); none crashed the table.
  uint64_t total = 0;
  for (uint64_t size : result.table.DropSizes()) {
    total += size;
  }
  // 6 deposits + deterministic noise 2 per drop per server (3 drops × 3
  // servers... only servers add noise: 2 per drop per non-last × 2 + last).
  EXPECT_GE(total, 6u);
}

TEST_F(FailureInjectionTest, EmptyRoundStillProducesNoise) {
  // Even with zero clients connected, the servers exchange a full noise
  // round — the cover traffic does not depend on load (§6.4).
  auto result = testutil::LockStepConversation(chain_, 8, {});
  EXPECT_EQ(result.responses.size(), 0u);
  // Each non-last server adds 2 singles + 1 pair = 4 requests.
  EXPECT_EQ(result.stats.forward.back().requests_in, 8u);
  EXPECT_GT(result.histogram.singles + result.histogram.pairs, 0u);
}

TEST_F(FailureInjectionTest, MismatchedResponseCountThrows) {
  auto onion = WrapExchange(9, conversation::BuildFakeExchangeRequest(alice_, 9, rng_));
  auto out = chain_.server(0).ForwardConversation(9, {onion});
  std::vector<util::Bytes> bad(out.size() + 1, util::Bytes(16));
  EXPECT_THROW(chain_.server(0).BackwardConversation(9, std::move(bad)),
               std::invalid_argument);
}

TEST_F(FailureInjectionTest, MismatchedResponseSizeThrows) {
  // Responses are fixed-size. A compromised downstream hop that changes one
  // response's length would have the honest hop relay it, and a network
  // observer could see which client receives the odd-sized reply; the pass
  // must refuse the batch instead of sealing it.
  const size_t expected = crypto::OnionResponseSize(wire::kEnvelopeSize, chain_.size() - 1);
  uint64_t round = 20;
  for (size_t odd_size : {expected - 1, expected + 1, size_t{0}}) {
    auto onion = WrapExchange(round, conversation::BuildFakeExchangeRequest(alice_, round, rng_));
    auto out = chain_.server(0).ForwardConversation(round, {onion});
    std::vector<util::Bytes> responses(out.size(), util::Bytes(expected));
    responses.back().resize(odd_size);
    EXPECT_THROW(chain_.server(0).BackwardConversation(round, std::move(responses)),
                 std::invalid_argument)
        << "size " << odd_size;
    ++round;
  }
  // The same batch at the fixed size is accepted.
  auto onion = WrapExchange(round, conversation::BuildFakeExchangeRequest(alice_, round, rng_));
  auto out = chain_.server(0).ForwardConversation(round, {onion});
  std::vector<util::Bytes> responses(out.size(), util::Bytes(expected));
  EXPECT_EQ(chain_.server(0).BackwardConversation(round, std::move(responses)).size(), 1u);
}

TEST_F(FailureInjectionTest, TamperedResponsesDegradeToGarbage) {
  // A malicious middle server that flips bits in responses cannot forge
  // plaintexts: the client sees undecryptable garbage, never corrupted text.
  Session alice_session = Session::Derive(alice_, bob_.public_key);
  Session bob_session = Session::Derive(bob_, alice_.public_key);
  util::Bytes text = {'s', 'e', 'c', 'r', 'e', 't'};
  auto alice_request = conversation::BuildExchangeRequest(alice_session, 10, text);
  auto alice_wrapped =
      crypto::OnionWrap(chain_.public_keys(), 10, alice_request.Serialize(), rng_);
  auto bob_request = conversation::BuildExchangeRequest(bob_session, 10, {});
  auto bob_wrapped =
      crypto::OnionWrap(chain_.public_keys(), 10, bob_request.Serialize(), rng_);

  auto result = testutil::LockStepConversation(chain_, 10, {alice_wrapped.data, bob_wrapped.data});

  // Untampered: Bob reads Alice's text.
  auto clean = crypto::OnionOpenResponse(bob_wrapped.layer_keys, 10, result.responses[1]);
  ASSERT_TRUE(clean.has_value());
  wire::Envelope envelope;
  ASSERT_EQ(clean->size(), envelope.size());
  std::copy(clean->begin(), clean->end(), envelope.begin());
  auto opened = conversation::OpenExchangeResponse(bob_session, 10, envelope);
  EXPECT_EQ(opened.kind, conversation::ResponseKind::kPartnerMessage);
  EXPECT_EQ(opened.text, text);

  // Tampered anywhere: the response fails authentication outright.
  util::Bytes tampered = result.responses[1];
  tampered[tampered.size() / 2] ^= 0x80;
  EXPECT_FALSE(crypto::OnionOpenResponse(bob_wrapped.layer_keys, 10, tampered).has_value());
}

TEST(FailureInjectionChains, TwoServerChainToleratesHalfGarbage) {
  util::Xoshiro256Rng rng(77);
  Chain chain = Chain::Create(Config(2, 3.0), rng);
  auto user = crypto::X25519KeyPair::Generate(rng);
  std::vector<util::Bytes> onions;
  for (int i = 0; i < 8; ++i) {
    if (i % 2 == 0) {
      auto request = conversation::BuildFakeExchangeRequest(user, 1, rng);
      onions.push_back(
          crypto::OnionWrap(chain.public_keys(), 1, request.Serialize(), rng).data);
    } else {
      onions.push_back(rng.RandomBytes(368));
    }
  }
  auto result = testutil::LockStepConversation(chain, 1, std::move(onions));
  EXPECT_EQ(result.responses.size(), 8u);
  EXPECT_EQ(result.stats.forward[0].requests_dropped, 4u);
}

// --- Exchange-partition failures --------------------------------------------
//
// A dead vuvuzela-exchanged shard server must cost exactly the rounds whose
// dead drops route to it: rounds confined to surviving shards keep
// completing, and the failure surfaces through the round future like a dead
// hop (the PR 2 accounting).

class ExchangePartitionFailure : public ::testing::Test {
 protected:
  // A 1-server chain (the last hop alone) with a 2-way partitioned exchange:
  // the first ID byte selects the shard (0x00.. → shard 0, 0x80.. → shard 1).
  void SetUp() override {
    config_.num_servers = 1;
    config_.conversation_noise = {.params = {1.0, 1.0}, .deterministic = true};
    config_.dialing_noise = {.params = {1.0, 1.0}, .deterministic = true};
    config_.parallel = false;
    keys_ = transport::DeriveChainKeys(9, 1);
    server_ = transport::BuildMixServer(config_, keys_, 0);
  }

  util::Bytes Onion(uint64_t round, uint8_t id_first_byte) {
    wire::ExchangeRequest request;
    rng_.Fill(request.dead_drop);
    rng_.Fill(request.envelope);
    request.dead_drop[0] = id_first_byte;
    return crypto::OnionWrap(keys_.public_keys, round, request.Serialize(), rng_).data;
  }

  ChainConfig config_;
  transport::ChainKeyMaterial keys_;
  std::unique_ptr<MixServer> server_;
  util::Xoshiro256Rng rng_{515};
};

TEST_F(ExchangePartitionFailure, KilledPartitionAbandonsOnlyRoundsTouchingItsShard) {
  auto group = transport::ExchangePartitionGroup::Start(2);
  ASSERT_NE(group, nullptr);
  auto router = transport::ExchangeRouter::Connect(group->RouterConfig(/*recv_timeout_ms=*/500));
  ASSERT_NE(router, nullptr);
  server_->SetExchangeBackend(router.get());

  std::vector<std::unique_ptr<transport::HopTransport>> hops;
  hops.push_back(std::make_unique<transport::LocalTransport>(*server_));
  engine::RoundScheduler scheduler(std::move(hops), {.max_in_flight = 1});

  // Round 1 spans both shards and completes.
  auto round1 = scheduler.SubmitConversation(1, {Onion(1, 0x00), Onion(1, 0xff)});
  EXPECT_EQ(round1.get().responses.size(), 2u);

  // Kill shard 0's server mid-deployment.
  group->Kill(0);

  // Rounds confined to shard 1 still complete...
  auto round2 = scheduler.SubmitConversation(2, {Onion(2, 0xff), Onion(2, 0xcc)});
  EXPECT_EQ(round2.get().responses.size(), 2u);

  // ...a round routing to the dead shard is abandoned (its future throws)...
  auto round3 = scheduler.SubmitConversation(3, {Onion(3, 0x00), Onion(3, 0xff)});
  EXPECT_THROW(round3.get(), transport::HopError);

  // ...and later shard-1-only rounds are unaffected by the earlier failure.
  auto round4 = scheduler.SubmitConversation(4, {Onion(4, 0x80)});
  EXPECT_EQ(round4.get().responses.size(), 1u);

  scheduler.Drain();
  EXPECT_EQ(scheduler.stats().rounds_failed, 1u);
  EXPECT_EQ(scheduler.stats().conversation_rounds_completed, 3u);
}

TEST_F(ExchangePartitionFailure, BlackHolePartitionTimesOutMidRoundWhileOthersComplete) {
  // Shard 0 is a black hole — it accepts the slice and never answers — which
  // models a shard server dying *mid-round* rather than refusing connections.
  auto black_hole_listener = net::TcpListener::Listen(0);
  ASSERT_TRUE(black_hole_listener.has_value());
  std::thread black_hole([&] {
    while (auto conn = black_hole_listener->Accept()) {
      while (conn->RecvFrame()) {
      }
    }
  });
  transport::ExchangedConfig shard1_config;
  shard1_config.shard_index = 1;
  shard1_config.num_shards = 2;
  auto shard1 = transport::ExchangedDaemon::Create(shard1_config);
  ASSERT_NE(shard1, nullptr);
  std::thread shard1_thread([&] { shard1->Serve(); });

  transport::ExchangeRouterConfig router_config;
  router_config.partitions = {{"127.0.0.1", black_hole_listener->port()},
                              {"127.0.0.1", shard1->port()}};
  router_config.recv_timeout_ms = 300;
  auto router = transport::ExchangeRouter::Connect(router_config);
  ASSERT_NE(router, nullptr);
  server_->SetExchangeBackend(router.get());

  std::vector<std::unique_ptr<transport::HopTransport>> hops;
  hops.push_back(std::make_unique<transport::LocalTransport>(*server_));
  engine::RoundScheduler scheduler(std::move(hops), {.max_in_flight = 2});

  // Two rounds in flight: round 1 touches the black hole, round 2 does not.
  auto round1 = scheduler.SubmitConversation(1, {Onion(1, 0x00), Onion(1, 0xff)});
  auto round2 = scheduler.SubmitConversation(2, {Onion(2, 0xff)});
  EXPECT_THROW(round1.get(), transport::HopTimeoutError);
  EXPECT_EQ(round2.get().responses.size(), 1u);

  scheduler.Drain();
  EXPECT_EQ(scheduler.stats().rounds_failed, 1u);
  EXPECT_EQ(scheduler.stats().conversation_rounds_completed, 1u);

  black_hole_listener->Shutdown();
  black_hole.join();
  shard1->Stop();
  shard1_thread.join();
}

// --- Crash recovery ----------------------------------------------------------
//
// The fault-tolerant round lifecycle: a hop (or exchange shard) killed and
// restarted mid-schedule must cost latency, never messages — recovered
// rounds' outputs byte-identical to an uninterrupted run — and a hop that
// never comes back must still degrade to the old bounded-abandonment
// behavior. Idempotent hop replay (the daemons' reply cache) is what makes
// post-reconnect re-sends safe; it gets its own direct test.

class CrashRecovery : public ::testing::Test {
 protected:
  static mixnet::ChainConfig RecoveryChainConfig() {
    mixnet::ChainConfig config;
    config.num_servers = 3;
    config.conversation_noise = {.params = {2.0, 1.0}, .deterministic = true};
    config.dialing_noise = {.params = {2.0, 1.0}, .deterministic = true};
    config.parallel = false;
    return config;
  }

  static transport::CoordDaemonConfig CoordConfig(const transport::LoopbackChain& chain,
                                                  uint64_t total_rounds) {
    transport::CoordDaemonConfig config;
    for (size_t i = 0; i < chain.size(); ++i) {
      config.hops.push_back({"127.0.0.1", chain.port(i)});
    }
    config.scheduler.max_in_flight = 3;
    config.schedule.conversation_rounds_per_dialing_round = 10;
    config.total_rounds = total_rounds;
    config.admission_window_seconds = 0.02;  // paces synthetic rounds
    config.hop_timeout_ms = 2000;
    config.connect_timeout_ms = 500;
    config.synthetic_users = 8;
    config.key_seed = kRecoverySeed;
    config.workload_seed = 77;
    config.record_responses = true;
    // Generous budget so a ~200 ms outage can never exhaust it; the
    // never-returns test pins the bounded end of the spectrum.
    config.max_round_attempts = 8;
    config.reconnect.max_call_attempts = 3;
    config.reconnect.backoff_initial_ms = 20;
    config.reconnect.backoff_max_ms = 100;
    config.supervisor_interval_ms = 50;
    return config;
  }

  // Uninterrupted reference: same seed, same schedule, no failures. An
  // empty result (reported via ADD_FAILURE) means the deployment could not
  // start — callers' equality assertions then fail cleanly.
  static transport::CoordDaemonResult ReferenceRun(uint64_t total_rounds,
                                                   size_t exchange_partitions = 0) {
    std::unique_ptr<transport::ExchangePartitionGroup> group;
    transport::ExchangeRouterConfig exchange;
    if (exchange_partitions > 0) {
      group = transport::ExchangePartitionGroup::Start(exchange_partitions);
      if (group == nullptr) {
        ADD_FAILURE() << "reference exchange partitions failed to start";
        return {};
      }
      exchange = group->RouterConfig();
    }
    auto chain = transport::LoopbackChain::Start(RecoveryChainConfig(), kRecoverySeed,
                                                 transport::kDefaultChunkPayload, exchange);
    if (chain == nullptr) {
      ADD_FAILURE() << "reference chain failed to start";
      return {};
    }
    transport::CoordinatorDaemon coordinator(CoordConfig(*chain, total_rounds));
    EXPECT_TRUE(coordinator.Start());
    return coordinator.Run();
  }

  static constexpr uint64_t kRecoverySeed = 0xfa117;
};

// Idempotent hop replay, directly: the same forward pass sent twice (the
// coordinator cannot know whether a lost connection ate the reply or the
// request) returns byte-identical bytes from the daemon's cache without
// running the mix twice, and the round's backward pass still works after.
TEST_F(CrashRecovery, ReplayedForwardPassIsServedOnceAndByteIdentical) {
  auto chain = transport::LoopbackChain::Start(RecoveryChainConfig(), kRecoverySeed);
  ASSERT_NE(chain, nullptr);
  transport::TcpTransportConfig transport_config;
  transport_config.port = chain->port(0);
  auto hop = transport::TcpTransport::Connect(transport_config);
  ASSERT_NE(hop, nullptr);

  util::Xoshiro256Rng rng(7);
  auto keys = transport::DeriveChainKeys(kRecoverySeed, 3);
  std::vector<util::Bytes> batch;
  for (int i = 0; i < 4; ++i) {
    wire::ExchangeRequest request;
    rng.Fill(request.dead_drop);
    rng.Fill(request.envelope);
    batch.push_back(crypto::OnionWrap(keys.public_keys, 1, request.Serialize(), rng).data);
  }

  auto first = hop->ForwardConversation(1, batch, nullptr);
  EXPECT_EQ(chain->daemon(0)->replay_hits(), 0u);
  auto replayed = hop->ForwardConversation(1, batch, nullptr);
  EXPECT_EQ(chain->daemon(0)->replay_hits(), 1u);
  EXPECT_EQ(first, replayed);

  // The replay did not consume the round state: the backward pass works, and
  // replaying *it* (state-consuming at the server!) is also idempotent.
  // Hop 0 of three gets responses sealed by the two hops after it.
  size_t response_size = crypto::OnionResponseSize(wire::kEnvelopeSize, 2);
  std::vector<util::Bytes> responses;
  for (size_t i = 0; i < first.size(); ++i) {
    responses.push_back(rng.RandomBytes(response_size));
  }
  auto back1 = hop->BackwardConversation(1, responses, nullptr);
  auto back2 = hop->BackwardConversation(1, responses, nullptr);
  EXPECT_EQ(chain->daemon(0)->replay_hits(), 2u);
  EXPECT_EQ(back1, back2);
  EXPECT_EQ(back1.size(), batch.size());

  // Different input under a replayed round/op is NOT served from the cache:
  // the daemon reprocesses (and here fails, because the state was consumed).
  std::vector<util::Bytes> tampered = responses;
  tampered[0][0] ^= 1;
  EXPECT_THROW(hop->BackwardConversation(1, tampered, nullptr), transport::HopRemoteError);
}

// A hop killed and restarted mid-schedule: zero lost onions, zero abandoned
// rounds, and every recovered round's response batch byte-identical to the
// uninterrupted reference run.
TEST_F(CrashRecovery, HopdKilledAndRestartedMidScheduleIsLossless) {
  constexpr uint64_t kRounds = 60;
  transport::CoordDaemonResult reference = ReferenceRun(kRounds);
  ASSERT_EQ(reference.rounds_abandoned, 0u);

  auto chain = transport::LoopbackChain::Start(RecoveryChainConfig(), kRecoverySeed);
  ASSERT_NE(chain, nullptr);
  transport::CoordDaemonConfig config = CoordConfig(*chain, kRounds);
  // A short in-call reconnect window (~2 × 50 ms) against a long outage
  // forces failures through the round-level re-submission path instead of
  // being silently bridged inside one RPC.
  config.reconnect.max_call_attempts = 2;
  config.reconnect.backoff_max_ms = 50;
  transport::CoordinatorDaemon coordinator(std::move(config));
  ASSERT_TRUE(coordinator.Start());

  transport::CoordDaemonResult result;
  std::thread runner([&] { result = coordinator.Run(); });

  // Kill the middle hop once the schedule is visibly moving, hold it down
  // long enough that in-call reconnects alone cannot bridge the gap (the
  // round-level re-submission path must engage), then restart it.
  while (coordinator.lifecycle().counters().completed < 5) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  chain->Kill(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  ASSERT_TRUE(chain->Restart(1));
  runner.join();

  EXPECT_EQ(result.rounds_abandoned, 0u);
  EXPECT_GT(result.rounds_retried, 0u);  // recovery actually engaged
  EXPECT_EQ(result.conversation_rounds_completed, reference.conversation_rounds_completed);
  EXPECT_EQ(result.dialing_rounds_completed, reference.dialing_rounds_completed);
  EXPECT_EQ(result.messages_exchanged, reference.messages_exchanged);
  // Byte-identity, round by round: recovery left no fingerprint in the data.
  ASSERT_EQ(result.responses.size(), reference.responses.size());
  for (const auto& [round, responses] : reference.responses) {
    auto it = result.responses.find(round);
    ASSERT_NE(it, result.responses.end()) << "round " << round << " missing";
    EXPECT_EQ(it->second, responses) << "round " << round << " diverged";
  }
}

// Same discipline for an exchange shard server: vuvuzela-exchanged is
// stateless across rounds, so kill + restart costs only the rounds in
// flight on it — which the coordinator re-submits.
TEST_F(CrashRecovery, ExchangedKilledAndRestartedMidScheduleIsLossless) {
  constexpr uint64_t kRounds = 30;
  constexpr size_t kPartitions = 2;
  transport::CoordDaemonResult reference = ReferenceRun(kRounds, kPartitions);
  ASSERT_EQ(reference.rounds_abandoned, 0u);

  auto group = transport::ExchangePartitionGroup::Start(kPartitions);
  ASSERT_NE(group, nullptr);
  auto chain = transport::LoopbackChain::Start(RecoveryChainConfig(), kRecoverySeed,
                                               transport::kDefaultChunkPayload,
                                               group->RouterConfig());
  ASSERT_NE(chain, nullptr);
  transport::CoordinatorDaemon coordinator(CoordConfig(*chain, kRounds));
  ASSERT_TRUE(coordinator.Start());

  transport::CoordDaemonResult result;
  std::thread runner([&] { result = coordinator.Run(); });

  while (coordinator.lifecycle().counters().completed < 5) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  group->Kill(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  ASSERT_TRUE(group->Restart(0));
  runner.join();

  EXPECT_EQ(result.rounds_abandoned, 0u);
  EXPECT_EQ(result.conversation_rounds_completed, reference.conversation_rounds_completed);
  EXPECT_EQ(result.messages_exchanged, reference.messages_exchanged);
  ASSERT_EQ(result.responses.size(), reference.responses.size());
  for (const auto& [round, responses] : reference.responses) {
    EXPECT_EQ(result.responses.at(round), responses) << "round " << round << " diverged";
  }
}

// The bounded end of the spectrum: a hop that never comes back exhausts the
// per-round retry budget and the deployment degrades to the pre-recovery
// accounting — every round abandoned, the coordinator terminates.
TEST_F(CrashRecovery, HopThatNeverReturnsDegradesToBoundedAbandonment) {
  constexpr uint64_t kRounds = 4;
  auto chain = transport::LoopbackChain::Start(RecoveryChainConfig(), kRecoverySeed);
  ASSERT_NE(chain, nullptr);

  transport::CoordDaemonConfig config = CoordConfig(*chain, kRounds);
  config.record_responses = false;
  config.hop_timeout_ms = 200;
  config.max_round_attempts = 2;  // one retry each, then abandon
  transport::CoordinatorDaemon coordinator(std::move(config));
  ASSERT_TRUE(coordinator.Start());
  chain->Kill(1);  // dies before any round and never restarts

  transport::CoordDaemonResult result = coordinator.Run();
  EXPECT_EQ(result.rounds_abandoned, kRounds);
  EXPECT_EQ(result.conversation_rounds_completed, 0u);
  EXPECT_EQ(result.rounds_retried, kRounds * 1u);
  EXPECT_EQ(coordinator.lifecycle().counters().abandoned, kRounds);
}

// --- Noise-plan determinism across crash/restart (adversarial privacy
// suite). The ε/δ accounting assumes every server adds its planned cover
// traffic every round — including rounds served by a hop that was killed and
// rebuilt from the key ceremony. The noise-sensitive observables of a
// conversation round are the access histogram (user pairs plus every
// server's singles/pairs plan) and the exchange count; digesting them per
// round gives a noise-plan fingerprint two runs can be compared by.
// Both noise backends are pinned: deterministic plans (⌈µ⌉, §8.1) and
// sampled plans, whose per-round RNG derivation from the ceremony seed must
// make a restarted hop redraw the identical plan.
TEST_F(CrashRecovery, RestartedHopReproducesNoisePlanDigest) {
  constexpr uint64_t kRounds = 6;
  constexpr uint64_t kCrashAfter = 3;
  constexpr uint64_t kUsers = 8;

  for (bool deterministic : {true, false}) {
    SCOPED_TRACE(deterministic ? "deterministic" : "sampled");
    mixnet::ChainConfig chain_config = RecoveryChainConfig();
    chain_config.conversation_noise = {.params = {6.0, 2.0}, .deterministic = deterministic};
    chain_config.dialing_noise = {.params = {6.0, 2.0}, .deterministic = deterministic};

    auto keys = transport::DeriveChainKeys(kRecoverySeed, chain_config.num_servers);
    std::vector<std::vector<util::Bytes>> batches(kRounds + 1);
    for (uint64_t round = 1; round <= kRounds; ++round) {
      sim::WorkloadConfig workload{
          .num_users = kUsers, .pairing_fraction = 1.0, .seed = 300 + round, .parallel = false};
      batches[round] = sim::GenerateConversationWorkload(workload, keys.public_keys, round);
    }

    // Runs rounds [from, to] over fresh transports (a restarted hop's old
    // connection is gone, as after a real crash) and appends each round's
    // noise-sensitive observables to the digest.
    auto run_rounds = [&](transport::LoopbackChain& chain, uint64_t from, uint64_t to,
                          crypto::Sha256& digest,
                          std::vector<std::vector<util::Bytes>>& responses) {
      auto transports = chain.ConnectTransports();
      ASSERT_EQ(transports.size(), chain_config.num_servers);
      engine::RoundScheduler scheduler(std::move(transports), {.max_in_flight = 1});
      for (uint64_t round = from; round <= to; ++round) {
        Chain::ConversationResult result =
            scheduler.SubmitConversation(round, batches[round]).get();
        uint64_t observables[4] = {round, result.histogram.singles, result.histogram.pairs,
                                   result.messages_exchanged};
        digest.Update(util::ByteSpan(reinterpret_cast<const uint8_t*>(observables),
                                     sizeof observables));
        responses.push_back(std::move(result.responses));
      }
      scheduler.Drain();
    };

    // Uninterrupted reference.
    auto reference_chain = transport::LoopbackChain::Start(chain_config, kRecoverySeed);
    ASSERT_NE(reference_chain, nullptr);
    crypto::Sha256 reference_digest;
    std::vector<std::vector<util::Bytes>> reference_responses;
    run_rounds(*reference_chain, 1, kRounds, reference_digest, reference_responses);

    // Same deployment, middle hop killed and rebuilt mid-schedule.
    auto chain = transport::LoopbackChain::Start(chain_config, kRecoverySeed);
    ASSERT_NE(chain, nullptr);
    crypto::Sha256 crashed_digest;
    std::vector<std::vector<util::Bytes>> crashed_responses;
    run_rounds(*chain, 1, kCrashAfter, crashed_digest, crashed_responses);
    chain->Kill(1);
    ASSERT_TRUE(chain->Restart(1));
    run_rounds(*chain, kCrashAfter + 1, kRounds, crashed_digest, crashed_responses);

    EXPECT_EQ(reference_digest.Finish(), crashed_digest.Finish());
    EXPECT_EQ(reference_responses, crashed_responses);
  }
}

}  // namespace
}  // namespace vuvuzela::mixnet

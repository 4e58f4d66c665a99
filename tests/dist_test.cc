// Invitation-distribution subsystem tests (§5.5): conformance between the
// in-process InvitationDistributor and the sharded DistRouter →
// vuvuzela-distd path (byte-identical buckets for shard counts {1,2,4}),
// wire-header robustness, the engine's Distribute stage, the client-side
// DialingFetcher end to end, failure injection (a dead dist shard costs only
// the dialing rounds routed to it and rejoins after restart), and concurrent
// bucket downloads against one shard fleet.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <thread>

#include "src/client/dialing_fetcher.h"
#include "src/transport/coord_daemon.h"
#include "src/coord/coordinator.h"
#include "src/coord/distributor.h"
#include "src/engine/round_lifecycle.h"
#include "src/engine/round_scheduler.h"
#include "src/mixnet/chain.h"
#include "src/sim/deployment.h"
#include "src/sim/workload.h"
#include "src/transport/dist_router.h"
#include "src/transport/hop_chain.h"
#include "src/util/random.h"
#include "tests/lock_step.h"

namespace vuvuzela::transport {
namespace {

// A table with structured per-bucket contents: counts[i] invitations in
// bucket i, each unique (derived from round/bucket/slot), so a byte-level
// comparison catches misrouted, reordered, or truncated buckets.
deaddrop::InvitationTable MakeTable(uint32_t num_drops, const std::vector<uint64_t>& counts,
                                    uint64_t seed) {
  deaddrop::InvitationTable table(num_drops);
  util::Xoshiro256Rng rng(seed);
  for (uint32_t drop = 0; drop < num_drops; ++drop) {
    for (uint64_t j = 0; j < counts[drop]; ++j) {
      wire::Invitation invitation;
      rng.Fill(invitation);
      table.Add(drop, invitation);
    }
  }
  return table;
}

deaddrop::InvitationTable CopyTable(const deaddrop::InvitationTable& table) {
  deaddrop::InvitationTable copy(table.num_drops());
  for (uint32_t drop = 0; drop < table.num_drops(); ++drop) {
    for (const auto& invitation : table.Drop(drop)) {
      copy.Add(drop, invitation);
    }
  }
  return copy;
}

TEST(DistConformance, RouterByteIdenticalToInProcessForShardCounts124) {
  const uint32_t kNumDrops = 7;
  for (size_t num_shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(num_shards));
    auto group = DistGroup::Start(num_shards);
    ASSERT_NE(group, nullptr);
    auto router = DistRouter::Connect(group->RouterConfig());
    ASSERT_NE(router, nullptr);
    coord::InvitationDistributor local;

    // Two rounds with distinct shapes, including an empty bucket (size zero
    // is an observable variable and must round-trip).
    const std::vector<std::vector<uint64_t>> shapes = {{3, 0, 5, 1, 2, 7, 4},
                                                       {1, 2, 3, 4, 5, 6, 0}};
    for (size_t r = 0; r < shapes.size(); ++r) {
      uint64_t round = coord::kDialingRoundBase + r;
      deaddrop::InvitationTable table = MakeTable(kNumDrops, shapes[r], 1000 + r);
      local.Publish(round, CopyTable(table));
      router->Publish(round, std::move(table));
      EXPECT_TRUE(local.HasRound(round));
      EXPECT_TRUE(router->HasRound(round));
    }

    for (size_t r = 0; r < shapes.size(); ++r) {
      uint64_t round = coord::kDialingRoundBase + r;
      for (uint32_t drop = 0; drop < kNumDrops; ++drop) {
        std::vector<wire::Invitation> expect = local.Fetch(round, drop);
        std::vector<wire::Invitation> got = router->Fetch(round, drop);
        ASSERT_EQ(got.size(), expect.size()) << "round " << r << " bucket " << drop;
        EXPECT_EQ(got, expect) << "round " << r << " bucket " << drop;
      }
    }
    // Identical downloads cost identical bytes on both backends.
    EXPECT_EQ(router->bytes_served(), local.bytes_served());
    EXPECT_EQ(router->downloads_served(), local.downloads_served());

    // Unknown rounds fail identically.
    EXPECT_THROW(local.Fetch(42, 0), std::out_of_range);
    EXPECT_THROW(router->Fetch(42, 0), std::out_of_range);
    EXPECT_FALSE(router->HasRound(42));

    router->SendShutdown();
  }
}

TEST(DistConformance, PublishOverExistingRoundReplacesOnBothBackends) {
  auto group = DistGroup::Start(2);
  ASSERT_NE(group, nullptr);
  auto router = DistRouter::Connect(group->RouterConfig());
  ASSERT_NE(router, nullptr);
  coord::InvitationDistributor local;

  const uint64_t round = coord::kDialingRoundBase;
  deaddrop::InvitationTable first = MakeTable(4, {2, 2, 2, 2}, 7);
  deaddrop::InvitationTable second = MakeTable(4, {1, 3, 0, 5}, 8);
  local.Publish(round, CopyTable(first));
  router->Publish(round, std::move(first));
  local.Publish(round, CopyTable(second));
  router->Publish(round, CopyTable(second));

  for (uint32_t drop = 0; drop < 4; ++drop) {
    EXPECT_EQ(local.Fetch(round, drop), second.Drop(drop));
    EXPECT_EQ(router->Fetch(round, drop), second.Drop(drop));
  }
}

TEST(DistConformance, ExpiryDropsOldRoundsOnRouterAndShards) {
  auto group = DistGroup::Start(2);
  ASSERT_NE(group, nullptr);
  DistRouterConfig config = group->RouterConfig();
  config.keep_rounds = 2;  // shards hold at most 2 publications
  auto router = DistRouter::Connect(config);
  ASSERT_NE(router, nullptr);

  for (uint64_t r = 0; r < 4; ++r) {
    router->Publish(coord::kDialingRoundBase + r, MakeTable(4, {1, 1, 1, 1}, r));
    router->Expire(2);  // what the engine's Distribute stage drives
  }
  // Router-side map: only the newest two rounds route.
  EXPECT_FALSE(router->HasRound(coord::kDialingRoundBase + 1));
  EXPECT_THROW(router->Fetch(coord::kDialingRoundBase + 1, 0), std::out_of_range);
  EXPECT_TRUE(router->HasRound(coord::kDialingRoundBase + 3));
  EXPECT_EQ(router->Fetch(coord::kDialingRoundBase + 3, 0).size(), 1u);

  // Shard-side: a direct fetch (no router map in the way) confirms the
  // publish-piggybacked horizon evicted the old slice.
  client::DialingFetcher fetcher(group->FetcherConfig());
  EXPECT_THROW(fetcher.FetchBucket(coord::kDialingRoundBase + 1, 0, 4), HopRemoteError);
  EXPECT_EQ(fetcher.FetchBucket(coord::kDialingRoundBase + 2, 0, 4).size(), 1u);
}

// The epoll-reactor serve path (config.reactor = true — the default, so every
// DistGroup test above already runs against it) must be observationally
// identical to the thread-per-connection path it replaced. Both answer through
// the same HandleRequest core and the same chunk builder, so identity should
// hold by construction; this test checks it empirically at the wire level:
// multi-chunk bucket fetches and every error-reply class compare byte for
// byte between a reactor daemon and a --threaded daemon holding the same
// published table.
TEST(DistConformance, ReactorByteIdenticalToThreadedServePath) {
  const uint32_t kNumDrops = 6;
  const uint64_t kRound = coord::kDialingRoundBase;
  // A small chunk budget forces multi-chunk replies through both encoders.
  const size_t kChunk = 256;

  struct ServePath {
    std::unique_ptr<DistDaemon> daemon;
    std::thread serve;
  };
  auto start = [&](bool reactor) {
    DistDaemonConfig config;
    config.reactor = reactor;
    config.chunk_payload = kChunk;
    ServePath path;
    path.daemon = DistDaemon::Create(config);
    if (path.daemon != nullptr) {
      path.serve = std::thread([daemon = path.daemon.get()] { daemon->Serve(); });
    }
    return path;
  };
  ServePath reactor = start(/*reactor=*/true);
  ServePath threaded = start(/*reactor=*/false);
  ASSERT_NE(reactor.daemon, nullptr);
  ASSERT_NE(threaded.daemon, nullptr);

  // Publish the same table to both through the router's wire path.
  deaddrop::InvitationTable table = MakeTable(kNumDrops, {3, 0, 5, 1, 2, 7}, 99);
  for (DistDaemon* daemon : {reactor.daemon.get(), threaded.daemon.get()}) {
    DistRouterConfig config;
    config.shards.push_back({"127.0.0.1", daemon->port()});
    config.chunk_payload = kChunk;
    auto router = DistRouter::Connect(config);
    ASSERT_NE(router, nullptr);
    router->Publish(kRound, CopyTable(table));
  }
  ASSERT_EQ(reactor.daemon->rounds_held(), 1u);
  ASSERT_EQ(threaded.daemon->rounds_held(), 1u);

  auto connect = [](uint16_t port) {
    auto conn = net::TcpConnection::Connect("127.0.0.1", port);
    EXPECT_TRUE(conn.has_value());
    if (conn) {
      conn->SetRecvTimeout(10000);
    }
    return conn;
  };
  auto reactor_conn = connect(reactor.daemon->port());
  auto threaded_conn = connect(threaded.daemon->port());
  ASSERT_TRUE(reactor_conn.has_value() && threaded_conn.has_value());

  // Every bucket — including the empty one — fetched over both paths, on one
  // persistent connection each (the fetcher's access pattern). The same
  // `peer_label` makes thrown error strings comparable below.
  for (uint32_t drop = 0; drop < kNumDrops; ++drop) {
    util::Bytes header =
        EncodeInvitationFetchHeader({/*shard_index=*/0, /*num_shards=*/1, kNumDrops, drop});
    BatchMessage from_reactor =
        CallBatchRpc(*reactor_conn, "shard", net::FrameType::kInvitationFetch, kRound, header, {},
                     kChunk);
    BatchMessage from_threaded =
        CallBatchRpc(*threaded_conn, "shard", net::FrameType::kInvitationFetch, kRound, header, {},
                     kChunk);
    EXPECT_EQ(from_reactor.op, from_threaded.op) << "bucket " << drop;
    EXPECT_EQ(from_reactor.round, from_threaded.round) << "bucket " << drop;
    EXPECT_EQ(from_reactor.header, from_threaded.header) << "bucket " << drop;
    EXPECT_EQ(from_reactor.items, from_threaded.items) << "bucket " << drop;
    EXPECT_EQ(from_reactor.items.size(), table.Drop(drop).size()) << "bucket " << drop;
  }
  EXPECT_EQ(reactor.daemon->fetches_served(), threaded.daemon->fetches_served());
  EXPECT_EQ(reactor.daemon->bytes_served(), threaded.daemon->bytes_served());

  // Error replies carry the same report on both paths: unknown round, a
  // partition-shape mismatch, and a non-dist op as the opening frame.
  auto remote_error = [&](net::TcpConnection& conn, net::FrameType op, uint64_t round,
                          util::ByteSpan header) -> std::string {
    try {
      CallBatchRpc(conn, "shard", op, round, header, {}, kChunk);
    } catch (const HopRemoteError& e) {
      return e.what();
    }
    return "(no error)";
  };
  util::Bytes fetch0 = EncodeInvitationFetchHeader({0, 1, kNumDrops, 0});
  std::string unknown_reactor =
      remote_error(*reactor_conn, net::FrameType::kInvitationFetch, kRound + 7, fetch0);
  EXPECT_EQ(unknown_reactor,
            remote_error(*threaded_conn, net::FrameType::kInvitationFetch, kRound + 7, fetch0));
  EXPECT_NE(unknown_reactor.find(kDistUnknownRoundError), std::string::npos);

  util::Bytes mismatched = EncodeInvitationFetchHeader({1, 2, kNumDrops, kNumDrops - 1});
  EXPECT_EQ(remote_error(*reactor_conn, net::FrameType::kInvitationFetch, kRound, mismatched),
            remote_error(*threaded_conn, net::FrameType::kInvitationFetch, kRound, mismatched));

  EXPECT_EQ(remote_error(*reactor_conn, net::FrameType::kDialAck, kRound, {}),
            remote_error(*threaded_conn, net::FrameType::kDialAck, kRound, {}));

  for (ServePath* path : {&reactor, &threaded}) {
    path->daemon->Stop();
    path->serve.join();
  }
}

TEST(DistWire, HeaderCodecsRejectMalformedInput) {
  InvitationPublishHeader publish{1, 2, 8, 4};
  util::Bytes publish_bytes = EncodeInvitationPublishHeader(publish);
  auto publish_parsed = ParseInvitationPublishHeader(publish_bytes);
  ASSERT_TRUE(publish_parsed.has_value());
  EXPECT_EQ(publish_parsed->shard_index, 1u);
  EXPECT_EQ(publish_parsed->keep_latest, 4u);

  util::Bytes truncated(publish_bytes.begin(), publish_bytes.end() - 1);
  EXPECT_FALSE(ParseInvitationPublishHeader(truncated).has_value());
  util::Bytes trailing = publish_bytes;
  trailing.push_back(0);
  EXPECT_FALSE(ParseInvitationPublishHeader(trailing).has_value());
  EXPECT_FALSE(ParseInvitationPublishHeader(
                   EncodeInvitationPublishHeader({2, 2, 8, 4}))  // shard out of range
                   .has_value());
  EXPECT_FALSE(ParseInvitationPublishHeader(
                   EncodeInvitationPublishHeader({0, 0, 8, 4}))  // zero shards
                   .has_value());
  EXPECT_FALSE(ParseInvitationPublishHeader(
                   EncodeInvitationPublishHeader({0, 1, 0, 4}))  // zero drops
                   .has_value());
  EXPECT_FALSE(ParseInvitationPublishHeader(
                   EncodeInvitationPublishHeader({0, 1, 8, 0}))  // keep_latest zero
                   .has_value());

  InvitationFetchHeader fetch{0, 2, 8, 5};
  util::Bytes fetch_bytes = EncodeInvitationFetchHeader(fetch);
  auto fetch_parsed = ParseInvitationFetchHeader(fetch_bytes);
  ASSERT_TRUE(fetch_parsed.has_value());
  EXPECT_EQ(fetch_parsed->drop_index, 5u);
  EXPECT_FALSE(ParseInvitationFetchHeader(
                   EncodeInvitationFetchHeader({0, 2, 8, 8}))  // bucket out of range
                   .has_value());
  EXPECT_FALSE(
      ParseInvitationFetchHeader(util::Bytes(fetch_bytes.begin(), fetch_bytes.end() - 2))
          .has_value());
}

// --- Engine Distribute stage -------------------------------------------------

mixnet::Chain MakeChain(util::Rng& rng, size_t servers = 3) {
  mixnet::ChainConfig config;
  config.num_servers = servers;
  config.conversation_noise = {.params = {3.0, 1.0}, .deterministic = true};
  config.dialing_noise = {.params = {2.0, 1.0}, .deterministic = true};
  config.parallel = false;
  return mixnet::Chain::Create(config, rng);
}

std::vector<util::Bytes> DialBatch(const mixnet::Chain& chain, uint64_t round, uint64_t users,
                                   uint64_t seed) {
  sim::WorkloadConfig workload{
      .num_users = users, .pairing_fraction = 1.0, .seed = seed, .parallel = false};
  dialing::RoundConfig dial_config{.num_real_drops = 3};
  return sim::GenerateDialingWorkload(workload, chain.public_keys(), round, dial_config, 0.5);
}

std::vector<util::Bytes> ConversationBatch(const mixnet::Chain& chain, uint64_t round,
                                           uint64_t users, uint64_t seed) {
  sim::WorkloadConfig workload{
      .num_users = users, .pairing_fraction = 1.0, .seed = seed, .parallel = false};
  return sim::GenerateConversationWorkload(workload, chain.public_keys(), round);
}

TEST(EngineDistribute, DistributeStagePublishesTableAndCompletesRound) {
  util::Xoshiro256Rng rng(31);
  mixnet::Chain chain = MakeChain(rng);
  coord::InvitationDistributor distributor;
  engine::RoundLifecycle lifecycle;
  std::vector<engine::RoundPhase> phases;
  std::mutex phases_mutex;
  engine::RoundLifecycle observed([&](const engine::RoundStatus& status) {
    std::lock_guard<std::mutex> lock(phases_mutex);
    phases.push_back(status.phase);
  });

  engine::SchedulerConfig config;
  config.max_in_flight = 2;
  config.distribution = &distributor;
  config.distribution_keep = 2;
  config.lifecycle = &observed;
  engine::RoundScheduler scheduler(testutil::LocalHops(chain), config);

  uint64_t round = coord::kDialingRoundBase;
  auto future = scheduler.SubmitDialing(round, DialBatch(chain, round, 8, 5), /*num_drops=*/4);
  mixnet::Chain::DialingResult result = future.get();

  // The invitations moved into the backend; the result keeps the bucket
  // count only.
  EXPECT_EQ(result.table.num_drops(), 4u);
  for (uint32_t drop = 0; drop < 4; ++drop) {
    EXPECT_TRUE(result.table.Drop(drop).empty());
  }
  ASSERT_TRUE(distributor.HasRound(round));
  uint64_t published = 0;
  for (uint32_t drop = 0; drop < 4; ++drop) {
    published += distributor.Fetch(round, drop).size();
  }
  EXPECT_GT(published, 0u);  // noise alone guarantees deposits
  EXPECT_EQ(scheduler.stats().invitation_tables_distributed, 1u);

  // The round crossed the Distributing phase on its way to Complete.
  std::lock_guard<std::mutex> lock(phases_mutex);
  EXPECT_NE(std::find(phases.begin(), phases.end(), engine::RoundPhase::kDistributing),
            phases.end());
  EXPECT_EQ(phases.back(), engine::RoundPhase::kComplete);
}

TEST(EngineDistribute, PublishedTableByteIdenticalToUndistributedRun) {
  // Two chains from the same seed run the same dialing round; one engine
  // returns the table in the result (no backend), the other publishes it
  // through the Distribute stage. Bucket-for-bucket the bytes must match —
  // distribution must not perturb the round.
  util::Xoshiro256Rng rng_a(77);
  mixnet::Chain chain_a = MakeChain(rng_a);
  util::Xoshiro256Rng rng_b(77);
  mixnet::Chain chain_b = MakeChain(rng_b);

  uint64_t round = coord::kDialingRoundBase + 3;
  std::vector<util::Bytes> batch = DialBatch(chain_a, round, 10, 9);

  engine::RoundScheduler plain(testutil::LocalHops(chain_a), {.max_in_flight = 1});
  deaddrop::InvitationTable expect = plain.SubmitDialing(round, batch, 4).get().table;

  coord::InvitationDistributor distributor;
  engine::SchedulerConfig config;
  config.max_in_flight = 1;
  config.distribution = &distributor;
  engine::RoundScheduler distributed(testutil::LocalHops(chain_b), config);
  distributed.SubmitDialing(round, batch, 4).get();

  for (uint32_t drop = 0; drop < 4; ++drop) {
    EXPECT_EQ(distributor.Fetch(round, drop), expect.Drop(drop)) << "bucket " << drop;
  }
}

// --- Failure injection -------------------------------------------------------

TEST(DistFailure, DeadShardFailsOnlyDialingRoundsAndRejoinsAfterRestart) {
  util::Xoshiro256Rng rng(513);
  mixnet::Chain chain = MakeChain(rng);
  auto group = DistGroup::Start(2);
  ASSERT_NE(group, nullptr);
  DistRouterConfig router_config = group->RouterConfig(/*recv_timeout_ms=*/2000);
  router_config.connect_timeout_ms = 1000;
  auto router = DistRouter::Connect(router_config);
  ASSERT_NE(router, nullptr);

  engine::SchedulerConfig config;
  config.max_in_flight = 2;
  config.distribution = router.get();
  engine::RoundScheduler scheduler(testutil::LocalHops(chain), config);

  // Healthy baseline: one dialing round distributes fine.
  uint64_t dial0 = coord::kDialingRoundBase;
  scheduler.SubmitDialing(dial0, DialBatch(chain, dial0, 6, 1), 4).get();
  ASSERT_TRUE(router->HasRound(dial0));

  group->Kill(1);

  // A dialing round now fails in its Distribute stage (shard 1 owns buckets
  // 2..3 of 4) — and only dialing: conversation rounds never touch the dist
  // tier.
  uint64_t dial1 = dial0 + 1;
  auto failed = scheduler.SubmitDialing(dial1, DialBatch(chain, dial1, 6, 2), 4);
  EXPECT_THROW(failed.get(), HopError);
  EXPECT_FALSE(router->HasRound(dial1));

  auto conversation = scheduler.SubmitConversation(1, ConversationBatch(chain, 1, 6, 3));
  EXPECT_NO_THROW(conversation.get());

  // Buckets of the already-published round split by ownership: the live
  // shard keeps serving its half, the dead shard's half fails.
  EXPECT_NO_THROW(router->Fetch(dial0, 0));
  EXPECT_THROW(router->Fetch(dial0, 3), HopError);

  // The restarted shard rejoins on the next dialing round with no recovery
  // protocol (it comes back empty; the next publish repopulates it).
  ASSERT_TRUE(group->Restart(1));
  uint64_t dial2 = dial0 + 2;
  EXPECT_NO_THROW(scheduler.SubmitDialing(dial2, DialBatch(chain, dial2, 6, 4), 4).get());
  EXPECT_TRUE(router->HasRound(dial2));
  EXPECT_NO_THROW(router->Fetch(dial2, 3));

  router->SendShutdown();
}

// --- Client-side DialingFetcher ---------------------------------------------

TEST(DialingFetcher, BucketsByteIdenticalToRouterFetch) {
  auto group = DistGroup::Start(4);
  ASSERT_NE(group, nullptr);
  auto router = DistRouter::Connect(group->RouterConfig());
  ASSERT_NE(router, nullptr);

  const uint32_t kNumDrops = 6;
  uint64_t round = coord::kDialingRoundBase + 9;
  router->Publish(round, MakeTable(kNumDrops, {4, 1, 0, 9, 2, 3}, 21));

  client::DialingFetcher fetcher(group->FetcherConfig());
  uint64_t expect_bytes = 0;
  for (uint32_t drop = 0; drop < kNumDrops; ++drop) {
    std::vector<wire::Invitation> bucket = fetcher.FetchBucket(round, drop, kNumDrops);
    EXPECT_EQ(bucket, router->Fetch(round, drop)) << "bucket " << drop;
    // bytes_fetched counts true wire bytes, framing included. Each bucket
    // reply here fits one chunk: length prefix + frame header, then the
    // chunk payload — flags byte, header_len (empty header), item_count,
    // and a length-prefixed invitation per item.
    expect_bytes += 4 + net::kFrameHeaderBytes + 1 + 4 + 4 +
                    bucket.size() * (4 + wire::kInvitationSize);
  }
  EXPECT_EQ(fetcher.buckets_fetched(), kNumDrops);
  EXPECT_EQ(fetcher.bytes_fetched(), expect_bytes);
}

TEST(DialingFetcher, SurfacesIncomingCallEndToEnd) {
  // Full stack: a caller dials through the mixnet, the deployment publishes
  // the round's table through the sharded backend, and the callee — offline
  // during the round — downloads its bucket with the client fetcher and
  // discovers the call.
  auto group = DistGroup::Start(2);
  ASSERT_NE(group, nullptr);
  auto router = DistRouter::Connect(group->RouterConfig());
  ASSERT_NE(router, nullptr);

  sim::DeploymentConfig config;
  config.num_servers = 2;
  config.conversation_noise = {.params = {2.0, 1.0}, .deterministic = true};
  config.dialing_noise = {.params = {2.0, 1.0}, .deterministic = true};
  config.seed = 99;
  sim::Deployment deployment(config);
  deployment.SetDistributionBackend(router.get());
  size_t alice = deployment.AddClient();
  size_t bob = deployment.AddClient();

  deployment.client(alice).Dial(deployment.client(bob).public_key());
  deployment.SetClientOnline(bob, false);  // bob misses the round's delivery
  auto outcome = deployment.RunDialingRound();

  client::DialingFetcher fetcher(group->FetcherConfig());
  size_t scanned =
      fetcher.FetchFor(deployment.client(bob), outcome.round, deployment.dial_config());
  EXPECT_GT(scanned, 0u);
  auto calls = deployment.client(bob).TakeIncomingCalls();
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0].caller, deployment.client(alice).public_key());
}

TEST(CoordinatorProxy, ServesClientBucketFetchesOverTcp) {
  // The coordinator's kInvitationFetch proxy: a TCP client with no direct
  // dist-fleet route asks the coordinator for its bucket after each dialing
  // round's ack, and gets the bucket bytes (kInvitationDrop) — or an error
  // report for a round the distribution tier no longer holds.
  const uint64_t kSeed = 4242;
  mixnet::ChainConfig chain_config;
  chain_config.num_servers = 2;
  chain_config.conversation_noise = {.params = {2.0, 1.0}, .deterministic = true};
  chain_config.dialing_noise = {.params = {2.0, 1.0}, .deterministic = true};
  chain_config.parallel = false;
  auto chain = LoopbackChain::Start(chain_config, kSeed);
  ASSERT_NE(chain, nullptr);

  CoordDaemonConfig config;
  for (size_t i = 0; i < chain->size(); ++i) {
    config.hops.push_back({"127.0.0.1", chain->port(i)});
  }
  config.scheduler.max_in_flight = 2;
  config.schedule.conversation_rounds_per_dialing_round = 1;  // alternate C/D
  // 3 conversation + 2 dialing; ending on a conversation round keeps the
  // coordinator serving while the second dialing round's fetch is in flight
  // (a fetch racing teardown would be dropped, flaking the count below).
  config.total_rounds = 5;
  config.admission_window_seconds = 0.2;  // closes early once the client contributed
  config.hop_timeout_ms = 2000;
  config.num_clients = 1;
  config.key_seed = kSeed;
  config.shutdown_hops_on_exit = true;

  CoordinatorDaemon coordinator(std::move(config));
  ASSERT_TRUE(coordinator.Start());

  std::atomic<int> buckets_received{0};
  std::atomic<int> ragged_buckets{0};
  std::atomic<int> error_replies{0};
  std::thread client([&] {
    auto conn = net::TcpConnection::Connect("127.0.0.1", coordinator.client_port());
    if (!conn) {
      return;
    }
    bool probed_unknown_round = false;
    while (auto frame = conn->RecvFrame()) {
      if (frame->type == net::FrameType::kShutdown) {
        return;
      }
      if (frame->type == net::FrameType::kRoundAnnouncement) {
        auto announcement = wire::RoundAnnouncement::Parse(frame->payload);
        if (!announcement) {
          continue;
        }
        // Garbage onions exercise the round plumbing only; the chain drops
        // them and the dialing table still carries its noise invitations.
        net::FrameType type = announcement->type == wire::RoundType::kConversation
                                  ? net::FrameType::kConversationRequest
                                  : net::FrameType::kDialRequest;
        conn->SendFrame(net::Frame{type, announcement->round, util::Bytes(416, 0xab)});
      } else if (frame->type == net::FrameType::kDialAck) {
        // The ack means the round completed AND its table was distributed:
        // download bucket 0 through the coordinator.
        util::Bytes index(4, 0);
        conn->SendFrame(net::Frame{net::FrameType::kInvitationFetch, frame->round, index});
        if (!probed_unknown_round) {
          probed_unknown_round = true;
          conn->SendFrame(
              net::Frame{net::FrameType::kInvitationFetch, frame->round + 999, index});
        }
      } else if (frame->type == net::FrameType::kInvitationDrop) {
        ++buckets_received;
        // Deterministic mu=2 noise guarantees a non-empty bucket of whole
        // invitations.
        if (frame->payload.empty() || frame->payload.size() % wire::kInvitationSize != 0) {
          ++ragged_buckets;
        }
      } else if (frame->type == net::FrameType::kHopError) {
        ++error_replies;
      }
    }
  });

  CoordDaemonResult result = coordinator.Run();
  client.join();

  EXPECT_EQ(result.dialing_rounds_completed, 2u);
  EXPECT_EQ(result.rounds_abandoned, 0u);
  EXPECT_EQ(buckets_received.load(), 2);  // one proxied download per dialing round
  EXPECT_EQ(ragged_buckets.load(), 0);
  EXPECT_EQ(error_replies.load(), 1);  // the unknown-round probe was refused
  EXPECT_EQ(result.dialing_fetches, 2u);
  EXPECT_GT(result.dialing_fetch_bytes, 0u);
  // Client-proxied fetches never raise `expected` — a client mistake must
  // not read as a coordinator failure.
  EXPECT_EQ(result.dialing_fetches_expected, 0u);
}

TEST(DistDaemon, ServesConcurrentDownloadersWhilePublishing) {
  // A dist shard is a broadcast server: the router's publish connection and
  // many client downloads run concurrently. Hammer one fleet from several
  // fetchers while new rounds publish, and require every download to be
  // internally consistent (all-or-nothing bucket bytes).
  auto group = DistGroup::Start(2);
  ASSERT_NE(group, nullptr);
  DistRouterConfig router_config = group->RouterConfig();
  router_config.keep_rounds = 16;  // keep the hammered round resident throughout
  auto router = DistRouter::Connect(router_config);
  ASSERT_NE(router, nullptr);

  const uint32_t kNumDrops = 4;
  const uint64_t base = coord::kDialingRoundBase + 50;
  router->Publish(base, MakeTable(kNumDrops, {5, 5, 5, 5}, 1));

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> fetched{0};
  std::vector<std::thread> downloaders;
  for (int t = 0; t < 4; ++t) {
    downloaders.emplace_back([&, t] {
      client::DialingFetcher fetcher(group->FetcherConfig());
      uint32_t drop = static_cast<uint32_t>(t) % kNumDrops;
      while (!stop.load()) {
        std::vector<wire::Invitation> bucket = fetcher.FetchBucket(base, drop, kNumDrops);
        ASSERT_EQ(bucket.size(), 5u);
        fetched.fetch_add(1);
      }
    });
  }
  for (uint64_t r = 1; r <= 8; ++r) {
    router->Publish(base + r, MakeTable(kNumDrops, {r, r, r, r}, r));
    router->Expire(16);
  }
  stop.store(true);
  for (auto& thread : downloaders) {
    thread.join();
  }
  EXPECT_GT(fetched.load(), 0u);
  router->SendShutdown();
}

}  // namespace
}  // namespace vuvuzela::transport

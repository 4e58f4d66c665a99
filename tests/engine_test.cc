// RoundScheduler engine tests: state expiry for rounds abandoned
// mid-pipeline, failure isolation, scheduler configuration, and the
// coord::RoundSchedule-driven conversation/dialing interleave.

#include <gtest/gtest.h>

#include <future>

#include "src/coord/coordinator.h"
#include "src/engine/round_scheduler.h"
#include "src/mixnet/chain.h"
#include "src/sim/workload.h"
#include "src/util/random.h"
#include "tests/lock_step.h"

namespace vuvuzela::engine {
namespace {

mixnet::Chain MakeChain(util::Rng& rng, size_t servers = 3, bool parallel = false) {
  mixnet::ChainConfig config;
  config.num_servers = servers;
  config.conversation_noise = {.params = {3.0, 1.0}, .deterministic = true};
  config.dialing_noise = {.params = {2.0, 1.0}, .deterministic = true};
  config.parallel = parallel;
  return mixnet::Chain::Create(config, rng);
}

std::vector<util::Bytes> ConversationBatch(const mixnet::Chain& chain, uint64_t round,
                                           uint64_t users, uint64_t seed) {
  sim::WorkloadConfig workload{
      .num_users = users, .pairing_fraction = 1.0, .seed = seed, .parallel = false};
  return sim::GenerateConversationWorkload(workload, chain.public_keys(), round);
}

TEST(RoundScheduler, RejectsBadConfig) {
  util::Xoshiro256Rng rng(1);
  mixnet::Chain chain = MakeChain(rng);
  EXPECT_THROW(RoundScheduler(testutil::LocalHops(chain), {.max_in_flight = 0}),
               std::invalid_argument);
  EXPECT_THROW(RoundScheduler(testutil::LocalHops(chain), {.max_in_flight = 8, .expire_keep = 2}),
               std::invalid_argument);
}

TEST(RoundScheduler, ExpiresRoundsAbandonedMidPipeline) {
  util::Xoshiro256Rng rng(2);
  mixnet::Chain chain = MakeChain(rng);

  // Strand round 1 at server 0: its forward pass ran but the rest of the
  // chain never saw it (a crashed downstream hop). Its return-pass state is
  // now pinned in server 0's memory.
  chain.server(0).ForwardConversation(1, ConversationBatch(chain, 1, 4, 11));
  ASSERT_EQ(chain.server(0).pending_rounds(), 1u);

  RoundScheduler scheduler(testutil::LocalHops(chain), {.max_in_flight = 2, .expire_keep = 3});
  std::vector<std::future<mixnet::Chain::ConversationResult>> futures;
  for (uint64_t round = 2; round <= 10; ++round) {
    futures.push_back(
        scheduler.SubmitConversation(round, ConversationBatch(chain, round, 4, round)));
  }
  scheduler.Drain();
  for (auto& f : futures) {
    f.get();
  }

  // Rounds driven by the scheduler cleared their own state on the return
  // pass; the abandoned round was expired as newer rounds flowed through.
  EXPECT_EQ(chain.server(0).pending_rounds(), 0u);
  EXPECT_EQ(chain.server(1).pending_rounds(), 0u);
}

TEST(RoundScheduler, ExpiryKeepsRecentRoundsAlive) {
  util::Xoshiro256Rng rng(3);
  mixnet::Chain chain = MakeChain(rng);

  // A round just behind the pipeline window must NOT be expired: with
  // expire_keep = 8, round 4's state survives rounds 5..10.
  chain.server(0).ForwardConversation(4, ConversationBatch(chain, 4, 4, 21));

  RoundScheduler scheduler(testutil::LocalHops(chain), {.max_in_flight = 2, .expire_keep = 8});
  std::vector<std::future<mixnet::Chain::ConversationResult>> futures;
  for (uint64_t round = 5; round <= 10; ++round) {
    futures.push_back(
        scheduler.SubmitConversation(round, ConversationBatch(chain, round, 4, round)));
  }
  scheduler.Drain();
  for (auto& f : futures) {
    f.get();
  }
  EXPECT_EQ(chain.server(0).pending_rounds(), 1u);  // round 4 still waiting
}

TEST(RoundScheduler, GapInRoundNumbersDoesNotKillInFlightRounds) {
  util::Xoshiro256Rng rng(7);
  mixnet::Chain chain = MakeChain(rng);
  RoundScheduler scheduler(testutil::LocalHops(chain), {.max_in_flight = 3, .expire_keep = 3});

  // Rounds 1 and 2 are still in flight when round 1000 is admitted; expiry
  // is measured from the oldest live round, so the gap must not expire them.
  std::vector<std::future<mixnet::Chain::ConversationResult>> futures;
  for (uint64_t round : {1ull, 2ull, 1000ull}) {
    futures.push_back(
        scheduler.SubmitConversation(round, ConversationBatch(chain, round, 4, round)));
  }
  scheduler.Drain();
  for (auto& f : futures) {
    EXPECT_NO_THROW(f.get());
  }
  EXPECT_EQ(scheduler.stats().rounds_failed, 0u);
}

TEST(RoundScheduler, FailedRoundReleasesItsSlot) {
  util::Xoshiro256Rng rng(4);
  mixnet::Chain chain = MakeChain(rng);
  RoundScheduler scheduler(testutil::LocalHops(chain), {.max_in_flight = 2});

  // num_drops = 0 faults at the last hop (InvitationTable rejects it); the
  // failure must surface through the future, count in stats, and free the
  // pipeline slot for later rounds.
  auto bad = scheduler.SubmitDialing(coord::kDialingRoundBase, {}, /*num_drops=*/0);
  EXPECT_THROW(bad.get(), std::invalid_argument);

  auto good = scheduler.SubmitConversation(1, ConversationBatch(chain, 1, 4, 31));
  EXPECT_EQ(good.get().stats.forward.size(), chain.size());

  auto stats = scheduler.stats();
  EXPECT_EQ(stats.rounds_failed, 1u);
  EXPECT_EQ(stats.conversation_rounds_completed, 1u);
  EXPECT_EQ(scheduler.in_flight(), 0u);
}

TEST(RoundScheduler, SingleServerChainCompletesRounds) {
  util::Xoshiro256Rng rng(5);
  mixnet::Chain chain = MakeChain(rng, /*servers=*/1);
  RoundScheduler scheduler(testutil::LocalHops(chain), {.max_in_flight = 3});
  std::vector<std::future<mixnet::Chain::ConversationResult>> futures;
  for (uint64_t round = 1; round <= 5; ++round) {
    futures.push_back(
        scheduler.SubmitConversation(round, ConversationBatch(chain, round, 4, round)));
  }
  scheduler.Drain();
  for (auto& f : futures) {
    auto result = f.get();
    EXPECT_EQ(result.responses.size(), 4u);
    EXPECT_GE(result.messages_exchanged, 4u);
  }
}

TEST(RoundScheduler, ScheduleAnnouncementsInterleaveDialingRounds) {
  util::Xoshiro256Rng rng(6);
  mixnet::Chain chain = MakeChain(rng);
  RoundScheduler scheduler(testutil::LocalHops(chain), {.max_in_flight = 3});

  coord::ScheduleConfig schedule_config;
  schedule_config.conversation_rounds_per_dialing_round = 3;
  schedule_config.dial_dead_drops = 2;
  coord::RoundSchedule schedule(schedule_config);

  // Each announcement's batch goes to the matching Submit*, K in flight.
  dialing::RoundConfig dial_config{.num_real_drops = 1};
  std::vector<std::future<mixnet::Chain::ConversationResult>> conversations;
  std::vector<std::future<mixnet::Chain::DialingResult>> dialings;
  for (int i = 0; i < 8; ++i) {
    wire::RoundAnnouncement announcement = schedule.Next();
    sim::WorkloadConfig config{
        .num_users = 4, .pairing_fraction = 1.0, .seed = announcement.round, .parallel = false};
    if (announcement.type == wire::RoundType::kConversation) {
      conversations.push_back(scheduler.SubmitConversation(
          announcement.round,
          sim::GenerateConversationWorkload(config, chain.public_keys(), announcement.round)));
    } else {
      dialings.push_back(scheduler.SubmitDialing(
          announcement.round,
          sim::GenerateDialingWorkload(config, chain.public_keys(), announcement.round,
                                       dial_config, /*dial_fraction=*/0.5),
          announcement.num_dial_dead_drops));
    }
  }
  scheduler.Drain();

  // Every 4th announcement is a dialing round: 8 rounds = 6 conversation + 2
  // dialing.
  EXPECT_EQ(conversations.size(), 6u);
  EXPECT_EQ(dialings.size(), 2u);
  uint64_t messages_exchanged = 0;
  for (auto& f : conversations) {
    messages_exchanged += f.get().messages_exchanged;
  }
  for (auto& f : dialings) {
    EXPECT_EQ(f.get().table.num_drops(), schedule_config.dial_dead_drops);
  }
  EXPECT_GT(messages_exchanged, 0u);
  EXPECT_EQ(schedule.conversation_rounds_announced(), 6u);
  EXPECT_EQ(schedule.dialing_rounds_announced(), 2u);

  auto stats = scheduler.stats();
  EXPECT_EQ(stats.conversation_rounds_completed, 6u);
  EXPECT_EQ(stats.dialing_rounds_completed, 2u);
  EXPECT_EQ(stats.rounds_failed, 0u);
  EXPECT_GT(stats.total_conversation_latency_seconds, 0.0);
}

}  // namespace
}  // namespace vuvuzela::engine

// The round driver: engine::RoundScheduler over HopTransports runs every
// round, and lock-step is its K=1 case.
//
// Pinned here:
//  - Golden digests. A K=1 scheduler over LocalTransports reproduces, byte
//    for byte, what the earlier lock-step chain driver produced for the same
//    seeds: a two-round 3-hop conversation (responses, histogram, exchange
//    count, pass stats), a dialing round (invitation table, pass stats), and
//    a quickstart-shaped sim::Deployment run (published invitations, the
//    calls found, every round's responses and every delivered payload). The
//    goldens were generated by that driver before it was retired.
//  - The tapping transport (transport::TapTransport). A tapped scheduler
//    produces the same rounds as an untapped one, and the tap reports each
//    position's exact pass input and output, one dead-drop view per
//    conversation round, and dialing forward passes only.

#include <gtest/gtest.h>

#include <mutex>
#include <string>

#include "src/coord/coordinator.h"
#include "src/engine/round_scheduler.h"
#include "src/mixnet/chain.h"
#include "src/sim/deployment.h"
#include "src/sim/workload.h"
#include "src/transport/tap_transport.h"
#include "src/util/random.h"
#include "tests/lock_step.h"
#include "tests/round_digest.h"

namespace vuvuzela {
namespace {

using testutil::Digest;

mixnet::Chain GoldenChain(uint64_t seed) {
  mixnet::ChainConfig config;
  config.num_servers = 3;
  config.conversation_noise = {.params = {12.0, 3.0}, .deterministic = false};
  config.dialing_noise = {.params = {8.0, 2.0}, .deterministic = false};
  util::Xoshiro256Rng rng(seed);
  return mixnet::Chain::Create(config, rng);
}

std::vector<util::Bytes> ConversationOnions(const mixnet::Chain& chain, uint64_t round) {
  sim::WorkloadConfig workload{.num_users = 90, .pairing_fraction = 0.6, .seed = 40 + round};
  return sim::GenerateConversationWorkload(workload, chain.public_keys(), round);
}

constexpr uint64_t kDialRound = coord::kDialingRoundBase;
const dialing::RoundConfig kDialConfig{.num_real_drops = 4};

std::vector<util::Bytes> DialingOnions(const mixnet::Chain& chain) {
  sim::WorkloadConfig workload{.num_users = 80, .seed = 50};
  return sim::GenerateDialingWorkload(workload, chain.public_keys(), kDialRound, kDialConfig,
                                      /*dial_fraction=*/0.4);
}

void AddRoundStats(Digest& digest, const mixnet::RoundStats& stats) {
  for (const auto& s : stats.forward) {
    digest.Add(s);
  }
  for (const auto& s : stats.backward) {
    digest.Add(s);
  }
}

void AddConversation(Digest& digest, const mixnet::Chain::ConversationResult& result) {
  digest.Add(result.responses);
  digest.Add(result.histogram.singles);
  digest.Add(result.histogram.pairs);
  digest.Add(result.histogram.crowded);
  digest.Add(result.messages_exchanged);
  AddRoundStats(digest, result.stats);
}

void AddDialing(Digest& digest, const mixnet::Chain::DialingResult& result) {
  digest.Add(result.table.num_drops());
  for (uint32_t drop = 0; drop < result.table.num_drops(); ++drop) {
    digest.Add(result.table.Drop(drop).size());
    for (const auto& invitation : result.table.Drop(drop)) {
      digest.Add(util::ByteSpan(invitation));
    }
  }
  AddRoundStats(digest, result.stats);
}

util::Bytes Text(const std::string& s) { return util::Bytes(s.begin(), s.end()); }

// --- Golden digests ------------------------------------------------------------

TEST(RoundDriverGolden, ConversationRoundsMatchLockStepChain) {
  mixnet::Chain chain = GoldenChain(21);
  engine::RoundScheduler scheduler(testutil::LocalHops(chain), {.max_in_flight = 1});
  Digest digest;
  for (uint64_t round = 1; round <= 2; ++round) {
    AddConversation(digest,
                    scheduler.SubmitConversation(round, ConversationOnions(chain, round)).get());
  }
  EXPECT_EQ(digest.Hex(), "064fb0d7214fe7ad4d9ff358e396482e5f9abee82122ac9d36eaeef016725a50");
}

TEST(RoundDriverGolden, DialingRoundMatchesLockStepChain) {
  mixnet::Chain chain = GoldenChain(22);
  engine::RoundScheduler scheduler(testutil::LocalHops(chain), {.max_in_flight = 1});
  Digest digest;
  AddDialing(digest, scheduler
                         .SubmitDialing(kDialRound, DialingOnions(chain), kDialConfig.total_drops())
                         .get());
  EXPECT_EQ(digest.Hex(), "aa8c70b32db9574b67ceff2c4b0b732c14494f97291bc66965eb88266db00be8");
}

TEST(RoundDriverGolden, DeploymentRunMatchesLockStepChain) {
  sim::DeploymentConfig config;
  config.conversation_noise = {.params = {20.0, 5.0}, .deterministic = false};
  config.dialing_noise = {.params = {10.0, 3.0}, .deterministic = false};
  sim::Deployment dep(config);
  const size_t alice = dep.AddClient();
  const size_t bob = dep.AddClient();
  for (int i = 0; i < 6; ++i) {
    dep.AddClient();
  }

  Digest digest;
  dep.client(alice).Dial(dep.client(bob).public_key());
  const uint64_t dial_round = dep.RunDialingRound().round;
  for (uint32_t drop = 0; drop < dep.dial_config().total_drops(); ++drop) {
    for (const auto& invitation : dep.distribution().Fetch(dial_round, drop)) {
      digest.Add(util::ByteSpan(invitation));
    }
  }
  auto calls = dep.client(bob).TakeIncomingCalls();
  digest.Add(calls.size());
  for (const auto& call : calls) {
    digest.Add(util::ByteSpan(call.caller));
  }
  ASSERT_EQ(calls.size(), 1u);
  dep.client(bob).AcceptCall(calls[0].caller);

  dep.client(alice).SendMessage(dep.client(bob).public_key(), Text("hey bob, it's alice"));
  dep.client(bob).SendMessage(dep.client(alice).public_key(), Text("alice! loud and clear"));
  size_t delivered = 0;
  for (int round = 0; round < 2; ++round) {
    mixnet::Chain::ConversationResult result = dep.RunConversationRound();
    digest.Add(result.responses);
    digest.Add(result.histogram.singles);
    digest.Add(result.histogram.pairs);
    digest.Add(result.messages_exchanged);
    for (size_t c = 0; c < dep.num_clients(); ++c) {
      for (const auto& m : dep.client(c).TakeReceivedMessages()) {
        digest.Add(c);
        digest.Add(util::ByteSpan(m.payload));
        ++delivered;
      }
    }
  }
  EXPECT_EQ(delivered, 2u);
  EXPECT_EQ(digest.Hex(), "4ab2669eb7aa16f2a87fb94aca1fa34fb0da96ee394d9693bd8c3e5d49593b32");
}

// --- Tapping transport ---------------------------------------------------------

class RecordingObserver : public mixnet::ChainObserver {
 public:
  struct Pass {
    size_t position = 0;
    uint64_t round = 0;
    std::vector<util::Bytes> input;
    std::vector<util::Bytes> output;
  };

  void OnForwardPass(size_t position, uint64_t round, const std::vector<util::Bytes>& input,
                     const std::vector<util::Bytes>& output) override {
    std::lock_guard<std::mutex> lock(mutex_);
    passes.push_back({position, round, input, output});
  }
  void OnDeadDrops(uint64_t round, const deaddrop::AccessHistogram& histogram) override {
    std::lock_guard<std::mutex> lock(mutex_);
    dead_drops.emplace_back(round, histogram);
  }

  std::vector<Pass> passes;
  std::vector<std::pair<uint64_t, deaddrop::AccessHistogram>> dead_drops;

 private:
  std::mutex mutex_;
};

// Three pipelined conversation rounds and a dialing round, digested.
std::string PipelinedRunDigest(mixnet::Chain& chain, mixnet::ChainObserver* observer) {
  engine::RoundScheduler scheduler(testutil::LocalHops(chain, observer), {.max_in_flight = 3});
  std::vector<std::future<mixnet::Chain::ConversationResult>> conversations;
  for (uint64_t round = 1; round <= 3; ++round) {
    conversations.push_back(scheduler.SubmitConversation(round, ConversationOnions(chain, round)));
  }
  auto dialing =
      scheduler.SubmitDialing(kDialRound, DialingOnions(chain), kDialConfig.total_drops());
  Digest digest;
  for (auto& f : conversations) {
    AddConversation(digest, f.get());
  }
  AddDialing(digest, dialing.get());
  return digest.Hex();
}

TEST(TapTransport, TappedSchedulerByteIdenticalToUntapped) {
  mixnet::Chain plain = GoldenChain(23);
  mixnet::Chain tapped = GoldenChain(23);
  RecordingObserver observer;
  EXPECT_EQ(PipelinedRunDigest(tapped, &observer), PipelinedRunDigest(plain, nullptr));
  // 3 conversation rounds x 3 positions + 2 dialing forward passes.
  EXPECT_EQ(observer.passes.size(), 11u);
  EXPECT_EQ(observer.dead_drops.size(), 3u);
}

TEST(TapTransport, ReportsEachPositionsExactPassInputAndOutput) {
  // A twin chain from the same seed, driven pass by pass, gives the batches
  // each position must report.
  mixnet::Chain chain = GoldenChain(24);
  mixnet::Chain twin = GoldenChain(24);
  const size_t last = chain.size() - 1;

  RecordingObserver observer;
  engine::RoundScheduler scheduler(testutil::LocalHops(chain, &observer), {.max_in_flight = 1});
  std::vector<RecordingObserver::Pass> expected;
  std::vector<deaddrop::AccessHistogram> expected_histograms;
  for (uint64_t round = 1; round <= 2; ++round) {
    auto result = scheduler.SubmitConversation(round, ConversationOnions(chain, round)).get();

    std::vector<util::Bytes> batch = ConversationOnions(twin, round);
    for (size_t i = 0; i < last; ++i) {
      std::vector<util::Bytes> input = batch;
      batch = twin.server(i).ForwardConversation(round, std::move(batch));
      expected.push_back({i, round, std::move(input), batch});
    }
    auto last_hop = twin.server(last).ProcessConversationLastHop(round, batch);
    expected.push_back({last, round, std::move(batch), last_hop.responses});
    expected_histograms.push_back(last_hop.histogram);
    EXPECT_EQ(result.histogram.pairs, last_hop.histogram.pairs);
    std::vector<util::Bytes> responses = std::move(last_hop.responses);
    for (size_t i = last; i-- > 0;) {
      responses = twin.server(i).BackwardConversation(round, std::move(responses));
    }
    EXPECT_EQ(result.responses, responses);
  }

  // Dialing: forward passes are tapped; the last hop's table is not a pass
  // output and no dead-drop view is reported for it.
  scheduler.SubmitDialing(kDialRound, DialingOnions(chain), kDialConfig.total_drops()).get();
  std::vector<util::Bytes> batch = DialingOnions(twin);
  for (size_t i = 0; i < last; ++i) {
    std::vector<util::Bytes> input = batch;
    batch = twin.server(i).ForwardDialing(kDialRound, std::move(batch), kDialConfig.total_drops());
    expected.push_back({i, kDialRound, std::move(input), batch});
  }

  ASSERT_EQ(observer.passes.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(observer.passes[i].position, expected[i].position) << "pass " << i;
    EXPECT_EQ(observer.passes[i].round, expected[i].round) << "pass " << i;
    EXPECT_EQ(observer.passes[i].input, expected[i].input) << "pass " << i;
    EXPECT_EQ(observer.passes[i].output, expected[i].output) << "pass " << i;
  }
  ASSERT_EQ(observer.dead_drops.size(), 2u);
  for (size_t r = 0; r < 2; ++r) {
    EXPECT_EQ(observer.dead_drops[r].first, r + 1);
    EXPECT_EQ(observer.dead_drops[r].second.singles, expected_histograms[r].singles);
    EXPECT_EQ(observer.dead_drops[r].second.pairs, expected_histograms[r].pairs);
    EXPECT_EQ(observer.dead_drops[r].second.crowded, expected_histograms[r].crowded);
  }
}

}  // namespace
}  // namespace vuvuzela

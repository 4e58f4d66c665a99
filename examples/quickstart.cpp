// Quickstart: two users dial and chat through an in-process Vuvuzela
// deployment.
//
//   $ ./build/examples/quickstart
//
// Walks the full paper flow: Alice dials Bob through the dialing protocol
// (§5), Bob accepts, and they exchange messages through the conversation
// protocol (§4), all via the public library API.

#include <cstdio>
#include <string>

#include "src/sim/deployment.h"

using namespace vuvuzela;

namespace {

util::Bytes Msg(const std::string& s) { return util::Bytes(s.begin(), s.end()); }

std::string Str(const util::Bytes& b) { return std::string(b.begin(), b.end()); }

}  // namespace

int main() {
  std::printf("Vuvuzela quickstart: 3-server chain, 2 users + 6 bystanders\n\n");

  sim::DeploymentConfig config;
  config.num_servers = 3;
  // Toy noise so the demo is instant; production values are µ=300,000 for
  // conversations and µ=13,000 for dialing (§8.1).
  config.conversation_noise = {.params = {20.0, 5.0}, .deterministic = false};
  config.dialing_noise = {.params = {10.0, 3.0}, .deterministic = false};
  sim::Deployment dep(config);

  size_t alice = dep.AddClient();
  size_t bob = dep.AddClient();
  for (int i = 0; i < 6; ++i) {
    dep.AddClient();  // idle clients: their traffic is indistinguishable
  }

  // 1. Alice dials Bob (the invitation travels through the mixnet into Bob's
  //    invitation dead drop).
  dep.client(alice).Dial(dep.client(bob).public_key());
  dep.RunDialingRound();

  auto calls = dep.client(bob).TakeIncomingCalls();
  std::printf("Bob's client found %zu invitation(s) in its dead drop\n", calls.size());
  if (calls.size() != 1 || calls[0].caller != dep.client(alice).public_key()) {
    std::fprintf(stderr, "FAIL: alice's invitation did not reach bob\n");
    return 1;
  }
  dep.client(bob).AcceptCall(calls[0].caller);

  // 2. They chat. Every online client sends exactly one fixed-size request
  //    per round whether or not it has anything to say.
  const std::string to_bob = "hey bob, it's alice";
  const std::string to_alice = "alice! loud and clear";
  dep.client(alice).SendMessage(dep.client(bob).public_key(), Msg(to_bob));
  dep.client(bob).SendMessage(dep.client(alice).public_key(), Msg(to_alice));

  bool bob_got_it = false;
  bool alice_got_it = false;
  for (int round = 0; round < 2; ++round) {
    auto result = dep.RunConversationRound();
    std::printf("round %d: %llu dead drops paired (real + noise), %llu singles\n", round + 1,
                static_cast<unsigned long long>(result.histogram.pairs),
                static_cast<unsigned long long>(result.histogram.singles));
    for (const auto& m : dep.client(bob).TakeReceivedMessages()) {
      std::printf("  bob   <- %s\n", Str(m.payload).c_str());
      bob_got_it |= Str(m.payload) == to_bob;
    }
    for (const auto& m : dep.client(alice).TakeReceivedMessages()) {
      std::printf("  alice <- %s\n", Str(m.payload).c_str());
      alice_got_it |= Str(m.payload) == to_alice;
    }
  }
  if (!bob_got_it || !alice_got_it) {
    std::fprintf(stderr, "FAIL: a message was not delivered\n");
    return 1;
  }

  std::printf("\nbandwidth: alice sent %llu B, received %llu B\n",
              static_cast<unsigned long long>(dep.client(alice).bytes_sent()),
              static_cast<unsigned long long>(dep.client(alice).bytes_received()));
  std::printf("done.\n");
  return 0;
}

// §9 extensions in action: multiple concurrent conversations per client,
// fixed per-round traffic, slot eviction, long-message splitting, and the
// client-level retransmission the paper delegates to clients (§3.1).
//
//   $ ./build/examples/multi_conversation

#include <cstdio>
#include <string>

#include "src/sim/deployment.h"

using namespace vuvuzela;

namespace {
util::Bytes Msg(const std::string& s) { return util::Bytes(s.begin(), s.end()); }
}  // namespace

int main() {
  std::printf("Multiple conversations per round (max_conversations = 2)\n\n");

  sim::DeploymentConfig config;
  config.num_servers = 3;
  config.conversation_noise = {.params = {10.0, 3.0}, .deterministic = false};
  config.dialing_noise = {.params = {5.0, 2.0}, .deterministic = false};
  config.max_conversations_per_client = 2;
  sim::Deployment dep(config);

  size_t alice = dep.AddClient();
  size_t bob = dep.AddClient();
  size_t carol = dep.AddClient();
  size_t dave = dep.AddClient();

  // Alice dials Bob and Carol; one dial goes out per dialing round.
  dep.client(alice).Dial(dep.client(bob).public_key());
  dep.client(alice).Dial(dep.client(carol).public_key());
  dep.RunDialingRound();
  dep.RunDialingRound();
  for (size_t callee : {bob, carol}) {
    auto calls = dep.client(callee).TakeIncomingCalls();
    if (calls.size() != 1 || calls[0].caller != dep.client(alice).public_key()) {
      std::fprintf(stderr, "FAIL: alice's invitation did not reach client %zu\n", callee);
      return 1;
    }
    dep.client(callee).AcceptCall(calls[0].caller);
  }
  std::printf("alice now has %zu active conversations; her per-round traffic is the same\n"
              "as an idle client's (always exactly 2 exchange onions).\n\n",
              dep.client(alice).active_conversations());

  // She talks to both in the same rounds; Bob also sends a long message that
  // splits across three rounds.
  const std::string to_bob = "bob: status?";
  const std::string to_carol = "carol: ping";
  dep.client(alice).SendMessage(dep.client(bob).public_key(), Msg(to_bob));
  dep.client(alice).SendMessage(dep.client(carol).public_key(), Msg(to_carol));
  std::string longtext(500, 'x');
  const char kLabel[] = "[500-byte report] ";
  longtext.replace(0, sizeof(kLabel) - 1, kLabel);  // overwrite, keep length
  dep.client(bob).SendMessage(dep.client(alice).public_key(), Msg(longtext));

  util::Bytes reassembled;
  bool bob_got_it = false;
  bool carol_got_it = false;
  for (int round = 1; round <= 5; ++round) {
    dep.RunConversationRound();
    for (const auto& m : dep.client(bob).TakeReceivedMessages()) {
      std::string text(m.payload.begin(), m.payload.end());
      std::printf("round %d: bob   <- \"%s\"\n", round, text.c_str());
      bob_got_it |= text == to_bob;
    }
    for (const auto& m : dep.client(carol).TakeReceivedMessages()) {
      std::string text(m.payload.begin(), m.payload.end());
      std::printf("round %d: carol <- \"%s\"\n", round, text.c_str());
      carol_got_it |= text == to_carol;
    }
    for (const auto& m : dep.client(alice).TakeReceivedMessages()) {
      util::Append(reassembled, m.payload);
      std::printf("round %d: alice <- chunk of %zu bytes (have %zu/500)\n", round,
                  m.payload.size(), reassembled.size());
    }
  }
  std::printf("\nbob's 500-byte message reassembled: %s\n",
              reassembled == Msg(longtext) ? "complete" : "INCOMPLETE");
  if (!bob_got_it || !carol_got_it || reassembled != Msg(longtext)) {
    std::fprintf(stderr, "FAIL: a message was not delivered\n");
    return 1;
  }

  // Slot eviction: dialing Dave with both slots in use ends the oldest
  // conversation (with Bob).
  dep.client(alice).Dial(dep.client(dave).public_key());
  std::printf("\nafter dialing dave: alice %s talking to bob, %s talking to dave\n",
              dep.client(alice).InConversationWith(dep.client(bob).public_key()) ? "still"
                                                                                 : "no longer",
              dep.client(alice).InConversationWith(dep.client(dave).public_key()) ? "now"
                                                                                  : "not");
  return 0;
}

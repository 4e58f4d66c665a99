// Lock-step rounds for tests: one round at a time through the round engine
// at K=1, over a chain's in-process servers, optionally tapped by a
// ChainObserver at every position.

#ifndef VUVUZELA_TESTS_LOCK_STEP_H_
#define VUVUZELA_TESTS_LOCK_STEP_H_

#include <memory>
#include <vector>

#include "src/engine/round_scheduler.h"
#include "src/mixnet/chain.h"
#include "src/transport/hop_chain.h"
#include "src/transport/tap_transport.h"

namespace vuvuzela::testutil {

// The chain's servers as scheduler stages; tapped when `observer` is set.
inline std::vector<std::unique_ptr<transport::HopTransport>> LocalHops(
    mixnet::Chain& chain, mixnet::ChainObserver* observer = nullptr) {
  auto hops = transport::MakeLocalTransports(chain.servers());
  if (observer != nullptr) {
    hops = transport::TapTransports(std::move(hops), *observer);
  }
  return hops;
}

inline mixnet::Chain::ConversationResult LockStepConversation(
    mixnet::Chain& chain, uint64_t round, std::vector<util::Bytes> onions,
    mixnet::ChainObserver* observer = nullptr) {
  engine::RoundScheduler scheduler(LocalHops(chain, observer), {.max_in_flight = 1});
  return scheduler.SubmitConversation(round, std::move(onions)).get();
}

// `num_drops` counts all invitation dead drops including the no-op drop.
inline mixnet::Chain::DialingResult LockStepDialing(mixnet::Chain& chain, uint64_t round,
                                                    std::vector<util::Bytes> onions,
                                                    uint32_t num_drops,
                                                    mixnet::ChainObserver* observer = nullptr) {
  engine::RoundScheduler scheduler(LocalHops(chain, observer), {.max_in_flight = 1});
  return scheduler.SubmitDialing(round, std::move(onions), num_drops).get();
}

}  // namespace vuvuzela::testutil

#endif  // VUVUZELA_TESTS_LOCK_STEP_H_

// Tapping hop transport: a compromised server's view of the chain (§2.3).
//
// TapTransport decorates one stage's HopTransport and reports what the
// server at its chain position sees to a mixnet::ChainObserver: every
// forward pass's input and output batch (conversation and dialing), and,
// after the conversation last hop, that server's dead-drop access histogram.
// Backward passes, the dialing last hop and expiry pass straight through.
// Results and stats are the inner transport's, untouched, so a tapped round
// is byte-identical to an untapped one; the only cost is the input copy.
//
// The round scheduler runs each stage on its own worker thread: callbacks
// for one position are serialized, but different positions' callbacks run
// concurrently, so an observer shared across positions must synchronize.

#ifndef VUVUZELA_SRC_TRANSPORT_TAP_TRANSPORT_H_
#define VUVUZELA_SRC_TRANSPORT_TAP_TRANSPORT_H_

#include <memory>
#include <vector>

#include "src/mixnet/chain.h"
#include "src/transport/hop_transport.h"

namespace vuvuzela::transport {

class TapTransport final : public HopTransport {
 public:
  // The observer must outlive the transport.
  TapTransport(std::unique_ptr<HopTransport> inner, size_t position,
               mixnet::ChainObserver& observer)
      : inner_(std::move(inner)), position_(position), observer_(observer) {}

  std::vector<util::Bytes> ForwardConversation(uint64_t round, std::vector<util::Bytes> batch,
                                               mixnet::ServerRoundStats* stats) override {
    std::vector<util::Bytes> input = batch;
    std::vector<util::Bytes> output = inner_->ForwardConversation(round, std::move(batch), stats);
    observer_.OnForwardPass(position_, round, input, output);
    return output;
  }
  std::vector<util::Bytes> BackwardConversation(uint64_t round,
                                                std::vector<util::Bytes> responses,
                                                mixnet::ServerRoundStats* stats) override {
    return inner_->BackwardConversation(round, std::move(responses), stats);
  }
  mixnet::MixServer::LastServerResult ProcessConversationLastHop(
      uint64_t round, std::vector<util::Bytes> batch, mixnet::ServerRoundStats* stats) override {
    std::vector<util::Bytes> input = batch;
    mixnet::MixServer::LastServerResult result =
        inner_->ProcessConversationLastHop(round, std::move(batch), stats);
    observer_.OnForwardPass(position_, round, input, result.responses);
    observer_.OnDeadDrops(round, result.histogram);
    return result;
  }
  std::vector<util::Bytes> ForwardDialing(uint64_t round, std::vector<util::Bytes> batch,
                                          uint32_t num_drops,
                                          mixnet::ServerRoundStats* stats) override {
    std::vector<util::Bytes> input = batch;
    std::vector<util::Bytes> output =
        inner_->ForwardDialing(round, std::move(batch), num_drops, stats);
    observer_.OnForwardPass(position_, round, input, output);
    return output;
  }
  deaddrop::InvitationTable ProcessDialingLastHop(uint64_t round, std::vector<util::Bytes> batch,
                                                  uint32_t num_drops,
                                                  mixnet::ServerRoundStats* stats) override {
    return inner_->ProcessDialingLastHop(round, std::move(batch), num_drops, stats);
  }
  void ExpireRounds(uint64_t newest_round, uint64_t keep) override {
    inner_->ExpireRounds(newest_round, keep);
  }

 private:
  std::unique_ptr<HopTransport> inner_;
  size_t position_;
  mixnet::ChainObserver& observer_;
};

// Taps every stage of a chain: hops[i] is wrapped at position i.
inline std::vector<std::unique_ptr<HopTransport>> TapTransports(
    std::vector<std::unique_ptr<HopTransport>> hops, mixnet::ChainObserver& observer) {
  for (size_t i = 0; i < hops.size(); ++i) {
    hops[i] = std::make_unique<TapTransport>(std::move(hops[i]), i, observer);
  }
  return hops;
}

}  // namespace vuvuzela::transport

#endif  // VUVUZELA_SRC_TRANSPORT_TAP_TRANSPORT_H_

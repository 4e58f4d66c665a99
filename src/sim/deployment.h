// In-process Vuvuzela deployment (§8.1's testbed, as a library).
//
// Glues a server chain, an invitation distributor, and any number of full
// clients into a single-process system driven round by round. Integration
// tests and the examples use this harness; the paper's EC2 deployment
// differs only in putting TCP between the same components (the
// examples/tcp_demo does exactly that).
//
// Deployment is a façade over the round engine, not a driver of its own: it
// owns a lock-step (K=1) engine::RoundScheduler over its chain's servers,
// plays the untrusted entry server itself (§7: multiplex every online
// client's onions into one batch, demultiplex the responses by slot), and
// publishes each dialing round's invitation table through the swappable
// distribution backend.

#ifndef VUVUZELA_SRC_SIM_DEPLOYMENT_H_
#define VUVUZELA_SRC_SIM_DEPLOYMENT_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "src/client/client.h"
#include "src/coord/coordinator.h"
#include "src/coord/distributor.h"
#include "src/engine/round_scheduler.h"
#include "src/mixnet/chain.h"

namespace vuvuzela::sim {

struct DeploymentConfig {
  size_t num_servers = 3;
  noise::NoiseConfig conversation_noise{.params = {10.0, 4.0}, .deterministic = false};
  noise::NoiseConfig dialing_noise{.params = {5.0, 2.0}, .deterministic = false};
  size_t max_conversations_per_client = 1;
  uint32_t num_real_dial_drops = 1;
  bool parallel = false;
  uint64_t seed = 1;
  // Positions of servers that do not mix (compromised); tests only.
  std::vector<size_t> non_mixing_positions;
};

class Deployment {
 public:
  explicit Deployment(const DeploymentConfig& config);

  // Registers a new client with fresh keys; returns its index.
  size_t AddClient();
  client::VuvuzelaClient& client(size_t index) { return *clients_[index]; }
  size_t num_clients() const { return clients_.size(); }

  // Marks a client offline: it submits nothing and receives nothing until
  // brought back (models §3.1's "client temporarily goes offline"; the
  // client-level retransmission recovers the lost rounds).
  void SetClientOnline(size_t index, bool online) { online_[index] = online; }
  bool IsClientOnline(size_t index) const {
    auto it = online_.find(index);
    return it == online_.end() || it->second;
  }

  mixnet::Chain& chain() { return chain_; }
  coord::InvitationDistributor& distributor() { return distributor_; }
  const dialing::RoundConfig& dial_config() const { return dial_config_; }

  // Routes dialing-round publication and client downloads through `backend`
  // instead of the built-in in-process distributor (nullptr restores it).
  // The backend must outlive the deployment; tests use this to run the full
  // client stack against a sharded transport::DistRouter and prove it
  // byte-identical to the seed path.
  void SetDistributionBackend(coord::DistributionBackend* backend) {
    distribution_ = backend != nullptr ? backend : &distributor_;
  }
  coord::DistributionBackend& distribution() { return *distribution_; }

  // Runs one conversation round across all clients: collect onions, run the
  // round through the engine, deliver responses.
  mixnet::Chain::ConversationResult RunConversationRound();

  // Runs one dialing round: collect dial onions, run the round through the
  // engine, publish the invitation table (via the distribution backend), and
  // have every client download and scan its drop.
  struct DialingRoundOutcome {
    uint64_t round = 0;
    mixnet::RoundStats stats;
  };
  DialingRoundOutcome RunDialingRound();

  uint64_t conversation_rounds_run() const { return next_conversation_round_ - 1; }
  uint64_t dialing_rounds_run() const { return next_dialing_round_ - coord::kDialingRoundBase; }

 private:
  DeploymentConfig config_;
  util::Xoshiro256Rng seed_rng_;
  mixnet::Chain chain_;
  engine::RoundScheduler scheduler_;  // K=1 over chain_'s servers
  coord::InvitationDistributor distributor_;
  coord::DistributionBackend* distribution_ = &distributor_;
  dialing::RoundConfig dial_config_;
  std::vector<std::unique_ptr<client::VuvuzelaClient>> clients_;
  std::unordered_map<size_t, bool> online_;
  uint64_t next_conversation_round_ = 1;
  uint64_t next_dialing_round_ = coord::kDialingRoundBase;
};

}  // namespace vuvuzela::sim

#endif  // VUVUZELA_SRC_SIM_DEPLOYMENT_H_

// The Vuvuzela server chain (§3).
//
// Chain owns an in-process chain's servers and their long-term keys; it does
// not drive rounds. engine::RoundScheduler does, over one HopTransport per
// server (transport::MakeLocalTransports(chain.servers()) for these), and
// lock-step is its K=1 case. The round result types live here because every
// backend — in-process, TCP hop daemons — produces the same ones.
//
// A ChainObserver receives each server's input/output batches and the last
// server's dead-drop view through transport::TapTransport, which is how
// tests and benches model a subset of compromised servers.

#ifndef VUVUZELA_SRC_MIXNET_CHAIN_H_
#define VUVUZELA_SRC_MIXNET_CHAIN_H_

#include <memory>
#include <vector>

#include "src/mixnet/mix_server.h"
#include "src/noise/noise_gen.h"

namespace vuvuzela::mixnet {

class ChainObserver {
 public:
  virtual ~ChainObserver() = default;

  // Called after server `position` finishes its forward pass.
  virtual void OnForwardPass(size_t position, uint64_t round,
                             const std::vector<util::Bytes>& input,
                             const std::vector<util::Bytes>& output) {
    (void)position;
    (void)round;
    (void)input;
    (void)output;
  }

  // Called with the last server's observable variables for a conversation
  // round.
  virtual void OnDeadDrops(uint64_t round, const deaddrop::AccessHistogram& histogram) {
    (void)round;
    (void)histogram;
  }
};

struct ChainConfig {
  size_t num_servers = 3;
  noise::NoiseConfig conversation_noise;
  noise::NoiseConfig dialing_noise;
  bool parallel = true;
  // Dead-drop exchange shards at the last server (see MixServerConfig).
  size_t exchange_shards = 1;
  // Positions whose servers skip mixing (modeling compromised servers that
  // preserve order to aid traffic analysis). Honest deployments leave this
  // empty.
  std::vector<size_t> non_mixing_positions;
};

// The MixServerConfig for the server at `position` of a chain built from
// `config`: the one place chain-wide settings map onto a single server.
MixServerConfig ServerConfigFor(const ChainConfig& config, size_t position);

struct RoundStats {
  std::vector<ServerRoundStats> forward;   // one per server
  std::vector<ServerRoundStats> backward;  // one per non-last server (conversation only)
  double forward_seconds = 0.0;
  double backward_seconds = 0.0;

  uint64_t total_dh_ops() const;
  uint64_t total_bytes() const;
};

class Chain {
 public:
  // Builds a chain with fresh long-term server keys drawn from `rng`.
  static Chain Create(const ChainConfig& config, util::Rng& rng);

  size_t size() const { return servers_.size(); }
  const std::vector<crypto::X25519PublicKey>& public_keys() const { return public_keys_; }
  MixServer& server(size_t i) { return *servers_[i]; }
  const std::vector<std::unique_ptr<MixServer>>& servers() const { return servers_; }

  // Warms every server's shared-secret cache for a static client population
  // (sim::ClientKeyRing::public_keys()) so the first round pays no DH storm.
  void PrimeSecretCaches(std::span<const crypto::X25519PublicKey> client_pks) {
    for (auto& server : servers_) {
      server->PrimeClientSecrets(client_pks);
    }
  }

  struct ConversationResult {
    // responses[i] answers onions[i]; onion-sealed once per server.
    std::vector<util::Bytes> responses;
    deaddrop::AccessHistogram histogram;
    uint64_t messages_exchanged = 0;
    RoundStats stats;
  };

  struct DialingResult {
    deaddrop::InvitationTable table;
    RoundStats stats;
  };

 private:
  Chain() = default;

  std::vector<std::unique_ptr<MixServer>> servers_;
  std::vector<crypto::X25519PublicKey> public_keys_;
};

}  // namespace vuvuzela::mixnet

#endif  // VUVUZELA_SRC_MIXNET_CHAIN_H_

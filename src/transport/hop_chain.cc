#include "src/transport/hop_chain.h"

#include "src/util/random.h"

namespace vuvuzela::transport {

ChainKeyMaterial DeriveChainKeys(uint64_t seed, size_t num_servers) {
  // Same draw order as mixnet::Chain::Create — all key pairs first, then one
  // RNG seed per server — so a chain derived here is byte-identical to one
  // Chain::Create builds from an identically seeded RNG.
  util::Xoshiro256Rng rng(seed);
  ChainKeyMaterial keys;
  keys.key_pairs.reserve(num_servers);
  for (size_t i = 0; i < num_servers; ++i) {
    keys.key_pairs.push_back(crypto::X25519KeyPair::Generate(rng));
    keys.public_keys.push_back(keys.key_pairs.back().public_key);
  }
  keys.rng_seeds.resize(num_servers);
  for (size_t i = 0; i < num_servers; ++i) {
    rng.Fill(keys.rng_seeds[i]);
  }
  return keys;
}

std::unique_ptr<mixnet::MixServer> BuildMixServer(const mixnet::ChainConfig& config,
                                                  const ChainKeyMaterial& keys, size_t position) {
  return std::make_unique<mixnet::MixServer>(mixnet::ServerConfigFor(config, position),
                                             keys.key_pairs[position],
                                             keys.public_keys, keys.rng_seeds[position]);
}

std::vector<std::unique_ptr<mixnet::MixServer>> BuildMixServers(const mixnet::ChainConfig& config,
                                                                const ChainKeyMaterial& keys) {
  std::vector<std::unique_ptr<mixnet::MixServer>> servers;
  servers.reserve(keys.key_pairs.size());
  for (size_t i = 0; i < keys.key_pairs.size(); ++i) {
    servers.push_back(BuildMixServer(config, keys, i));
  }
  return servers;
}

std::vector<std::unique_ptr<HopTransport>> MakeLocalTransports(
    const std::vector<std::unique_ptr<mixnet::MixServer>>& servers) {
  std::vector<std::unique_ptr<HopTransport>> transports;
  transports.reserve(servers.size());
  for (const auto& server : servers) {
    transports.push_back(std::make_unique<LocalTransport>(*server));
  }
  return transports;
}

std::unique_ptr<ExchangePartitionGroup> ExchangePartitionGroup::Start(size_t num_partitions,
                                                                      size_t chunk_payload) {
  std::unique_ptr<ExchangePartitionGroup> group(new ExchangePartitionGroup());
  group->chunk_payload_ = chunk_payload;
  for (size_t i = 0; i < num_partitions; ++i) {
    ExchangedConfig config;
    config.port = 0;
    config.shard_index = static_cast<uint32_t>(i);
    config.num_shards = static_cast<uint32_t>(num_partitions);
    config.chunk_payload = chunk_payload;
    auto daemon = ExchangedDaemon::Create(config);
    if (!daemon) {
      return nullptr;
    }
    group->ports_.push_back(daemon->port());
    group->daemons_.push_back(std::move(daemon));
  }
  for (auto& daemon : group->daemons_) {
    group->serve_threads_.emplace_back([d = daemon.get()] { d->Serve(); });
  }
  return group;
}

ExchangePartitionGroup::~ExchangePartitionGroup() {
  for (size_t i = 0; i < daemons_.size(); ++i) {
    Kill(i);
  }
}

bool ExchangePartitionGroup::Restart(size_t shard) {
  if (daemons_[shard]) {
    return false;  // only a killed shard can restart (its thread is joined)
  }
  ExchangedConfig config;
  config.port = ports_[shard];
  config.shard_index = static_cast<uint32_t>(shard);
  config.num_shards = static_cast<uint32_t>(daemons_.size());
  config.chunk_payload = chunk_payload_;
  auto daemon = ExchangedDaemon::Create(config);
  if (!daemon) {
    return false;
  }
  daemons_[shard] = std::move(daemon);
  serve_threads_[shard] = std::thread([d = daemons_[shard].get()] { d->Serve(); });
  return true;
}

ExchangeRouterConfig ExchangePartitionGroup::RouterConfig(int recv_timeout_ms) const {
  ExchangeRouterConfig config;
  for (uint16_t port : ports_) {
    config.partitions.push_back({"127.0.0.1", port});
  }
  config.recv_timeout_ms = recv_timeout_ms;
  config.chunk_payload = chunk_payload_;
  return config;
}

void ExchangePartitionGroup::Kill(size_t shard) {
  if (!daemons_[shard]) {
    return;  // already killed
  }
  daemons_[shard]->Stop();
  // Start() spawns serve threads only after every daemon bound, so a group
  // torn down after a partial Start() has daemons without threads.
  if (shard < serve_threads_.size() && serve_threads_[shard].joinable()) {
    serve_threads_[shard].join();
  }
  // Destroy the daemon so its listener descriptor is released and Restart
  // can rebind the port.
  daemons_[shard].reset();
}

std::unique_ptr<DistGroup> DistGroup::Start(size_t num_shards, size_t chunk_payload) {
  std::unique_ptr<DistGroup> group(new DistGroup());
  group->chunk_payload_ = chunk_payload;
  for (size_t i = 0; i < num_shards; ++i) {
    DistDaemonConfig config;
    config.port = 0;
    config.shard_index = static_cast<uint32_t>(i);
    config.num_shards = static_cast<uint32_t>(num_shards);
    config.chunk_payload = chunk_payload;
    auto daemon = DistDaemon::Create(config);
    if (!daemon) {
      return nullptr;
    }
    group->ports_.push_back(daemon->port());
    group->daemons_.push_back(std::move(daemon));
  }
  for (auto& daemon : group->daemons_) {
    group->serve_threads_.emplace_back([d = daemon.get()] { d->Serve(); });
  }
  return group;
}

DistGroup::~DistGroup() {
  for (size_t i = 0; i < daemons_.size(); ++i) {
    Kill(i);
  }
}

void DistGroup::Kill(size_t shard) {
  if (!daemons_[shard]) {
    return;  // already killed
  }
  daemons_[shard]->Stop();
  if (shard < serve_threads_.size() && serve_threads_[shard].joinable()) {
    serve_threads_[shard].join();
  }
  // Destroy the daemon so its listener descriptor is released and Restart
  // can rebind the port.
  daemons_[shard].reset();
}

bool DistGroup::Restart(size_t shard) {
  if (daemons_[shard]) {
    return false;  // only a killed shard can restart (its thread is joined)
  }
  DistDaemonConfig config;
  config.port = ports_[shard];
  config.shard_index = static_cast<uint32_t>(shard);
  config.num_shards = static_cast<uint32_t>(daemons_.size());
  config.chunk_payload = chunk_payload_;
  auto daemon = DistDaemon::Create(config);
  if (!daemon) {
    return false;
  }
  daemons_[shard] = std::move(daemon);
  serve_threads_[shard] = std::thread([d = daemons_[shard].get()] { d->Serve(); });
  return true;
}

DistRouterConfig DistGroup::RouterConfig(int recv_timeout_ms) const {
  DistRouterConfig config;
  for (uint16_t port : ports_) {
    config.shards.push_back({"127.0.0.1", port});
  }
  config.recv_timeout_ms = recv_timeout_ms;
  config.chunk_payload = chunk_payload_;
  return config;
}

client::DialingFetcherConfig DistGroup::FetcherConfig(int recv_timeout_ms) const {
  client::DialingFetcherConfig config;
  for (uint16_t port : ports_) {
    config.shards.push_back({"127.0.0.1", port});
  }
  config.recv_timeout_ms = recv_timeout_ms;
  config.chunk_payload = chunk_payload_;
  return config;
}

std::unique_ptr<LoopbackChain> LoopbackChain::Start(const mixnet::ChainConfig& config,
                                                    uint64_t seed, size_t chunk_payload,
                                                    const ExchangeRouterConfig& exchange) {
  std::unique_ptr<LoopbackChain> chain(new LoopbackChain());
  chain->config_ = config;
  chain->keys_ = DeriveChainKeys(seed, config.num_servers);
  chain->chunk_payload_ = chunk_payload;
  chain->exchange_ = exchange;
  for (size_t i = 0; i < config.num_servers; ++i) {
    HopDaemonConfig daemon_config;
    daemon_config.port = 0;
    daemon_config.chunk_payload = chunk_payload;
    if (i + 1 == config.num_servers) {
      daemon_config.exchange = exchange;
    }
    auto daemon = HopDaemon::Create(daemon_config, BuildMixServer(config, chain->keys_, i));
    if (!daemon) {
      return nullptr;
    }
    chain->ports_.push_back(daemon->port());
    chain->daemons_.push_back(std::move(daemon));
  }
  for (auto& daemon : chain->daemons_) {
    chain->serve_threads_.emplace_back([d = daemon.get()] { d->Serve(); });
  }
  return chain;
}

LoopbackChain::~LoopbackChain() {
  // Stop() closes each listener; a serve loop blocked on an idle connection
  // notices at its next receive-poll tick.
  for (size_t i = 0; i < daemons_.size(); ++i) {
    Kill(i);
  }
}

void LoopbackChain::Kill(size_t position) {
  if (!daemons_[position]) {
    return;  // already killed
  }
  daemons_[position]->Stop();
  if (position < serve_threads_.size() && serve_threads_[position].joinable()) {
    serve_threads_[position].join();
  }
  // Destroy the daemon so its listener descriptor is released and Restart
  // can rebind the same port.
  daemons_[position].reset();
}

bool LoopbackChain::Restart(size_t position) {
  if (daemons_[position]) {
    return false;  // only a killed hop can restart (its thread is joined)
  }
  HopDaemonConfig daemon_config;
  daemon_config.port = ports_[position];
  daemon_config.chunk_payload = chunk_payload_;
  if (position + 1 == daemons_.size()) {
    daemon_config.exchange = exchange_;
  }
  auto daemon =
      HopDaemon::Create(daemon_config, BuildMixServer(config_, keys_, position));
  if (!daemon) {
    return false;
  }
  daemons_[position] = std::move(daemon);
  serve_threads_[position] = std::thread([d = daemons_[position].get()] { d->Serve(); });
  return true;
}

std::vector<std::unique_ptr<HopTransport>> LoopbackChain::ConnectTransports(
    int recv_timeout_ms) const {
  std::vector<std::unique_ptr<HopTransport>> transports;
  transports.reserve(ports_.size());
  for (uint16_t port : ports_) {
    TcpTransportConfig config;
    config.host = "127.0.0.1";
    config.port = port;
    config.recv_timeout_ms = recv_timeout_ms;
    config.chunk_payload = chunk_payload_;
    auto transport = TcpTransport::Connect(config);
    if (!transport) {
      return {};
    }
    transports.push_back(std::move(transport));
  }
  return transports;
}

}  // namespace vuvuzela::transport

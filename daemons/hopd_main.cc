// vuvuzela-hopd — one chain hop as a standalone process (§7).
//
//   $ vuvuzela-hopd --position 0 --servers 3 --port 7341 --seed 42 --mu 50
//
// Serves the hop RPC protocol (transport::HopDaemon) until the coordinator
// sends kShutdown. Two key ceremonies:
//
//  * Real (--key-file + --key-dir): the hop reads its own secret and noise
//    seed from a vuvuzela-keygen key file and everyone's public keys from
//    the shared directory file — this process never holds another hop's
//    private material. Position and chain length come from the files.
//  * Shared seed (--seed, test/demo fallback): every process derives the
//    full chain deterministically (src/transport/hop_chain.h).
//
// The last hop can partition its dead-drop exchange across
// vuvuzela-exchanged shard servers:
//
//   $ vuvuzela-exchanged --shard 0 --shards 2 --port 7351
//   $ vuvuzela-exchanged --shard 1 --shards 2 --port 7352
//   $ vuvuzela-hopd --position 2 --servers 3 --port 7343 --seed 42 \
//       --exchange 127.0.0.1:7351,127.0.0.1:7352
//
// On orderly shutdown the hop forwards kShutdown to its partitions.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/coord/keydir.h"
#include "src/obs/trace.h"
#include "src/transport/hop_chain.h"
#include "src/transport/hop_daemon.h"
#include "src/util/logging.h"

using namespace vuvuzela;

namespace {

struct Flags {
  size_t position = 0;
  bool have_position = false;
  size_t servers = 3;
  bool have_servers = false;
  uint16_t port = 0;
  uint64_t seed = 1;
  std::string key_file;
  std::string key_dir;
  double mu = 50.0;
  double dial_mu = 10.0;
  size_t exchange_shards = 0;  // 0 = one shard per pool worker (last hop only)
  std::vector<transport::ExchangePartitionEndpoint> exchange;  // last hop only
  int metrics_port = -1;  // /metrics + /trace (-1 = disabled, 0 = ephemeral)
};

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--position I --servers N] [--port P] [--mu M] [--dial-mu D]\n"
               "          [--seed S | --key-file HOP.key --key-dir CHAIN.pub]\n"
               "          [--shards K] [--exchange host:port[,host:port...]]\n"
               "          [--metrics-port P]\n"
               "Runs one Vuvuzela chain hop; port 0 picks an ephemeral port and prints it.\n"
               "--key-file/--key-dir load vuvuzela-keygen output (the hop holds only its\n"
               "own secret; position and chain length come from the files). --seed is the\n"
               "shared-seed test ceremony and needs --position/--servers.\n"
               "--exchange partitions the last hop's dead-drop exchange across\n"
               "vuvuzela-exchanged shard servers (endpoint i serves shard i).\n",
               argv0);
}

bool ParseExchange(const std::string& list,
                   std::vector<transport::ExchangePartitionEndpoint>* endpoints) {
  size_t start = 0;
  while (start < list.size()) {
    size_t comma = list.find(',', start);
    std::string entry = list.substr(start, comma == std::string::npos ? comma : comma - start);
    size_t colon = entry.rfind(':');
    if (colon == std::string::npos) {
      return false;
    }
    unsigned long port = std::strtoul(entry.c_str() + colon + 1, nullptr, 10);
    if (entry.substr(0, colon).empty() || port == 0 || port > 65535) {
      return false;
    }
    endpoints->push_back({entry.substr(0, colon), static_cast<uint16_t>(port)});
    start = comma == std::string::npos ? list.size() : comma + 1;
  }
  return !endpoints->empty();
}

bool Parse(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* value = nullptr;
    if (arg == "--position" && (value = next())) {
      flags->position = std::strtoul(value, nullptr, 10);
      flags->have_position = true;
    } else if (arg == "--servers" && (value = next())) {
      flags->servers = std::strtoul(value, nullptr, 10);
      flags->have_servers = true;
    } else if (arg == "--key-file" && (value = next())) {
      flags->key_file = value;
    } else if (arg == "--key-dir" && (value = next())) {
      flags->key_dir = value;
    } else if (arg == "--port" && (value = next())) {
      unsigned long port = std::strtoul(value, nullptr, 10);
      if (port > 65535) {
        return false;  // reject rather than silently truncating to 16 bits
      }
      flags->port = static_cast<uint16_t>(port);
    } else if (arg == "--seed" && (value = next())) {
      flags->seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--mu" && (value = next())) {
      flags->mu = std::strtod(value, nullptr);
    } else if (arg == "--dial-mu" && (value = next())) {
      flags->dial_mu = std::strtod(value, nullptr);
    } else if (arg == "--shards" && (value = next())) {
      flags->exchange_shards = std::strtoul(value, nullptr, 10);
    } else if (arg == "--exchange" && (value = next())) {
      if (!ParseExchange(value, &flags->exchange)) {
        return false;
      }
    } else if (arg == "--metrics-port" && (value = next())) {
      unsigned long port = std::strtoul(value, nullptr, 10);
      if (port > 65535) {
        return false;
      }
      flags->metrics_port = static_cast<int>(port);
    } else {
      return false;
    }
  }
  // Key files carry the hop's position and the directory its chain length;
  // either ceremony must end with a coherent (position, servers) pair.
  if (flags->key_file.empty() != flags->key_dir.empty()) {
    return false;  // --key-file and --key-dir travel together
  }
  if (flags->key_file.empty() && !flags->have_position) {
    return false;  // shared-seed ceremony needs an explicit position
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!Parse(argc, argv, &flags)) {
    Usage(argv[0]);
    return 2;
  }

  // Resolve the key ceremony: every path ends with this hop's key pair and
  // noise seed plus the whole chain's public keys.
  crypto::X25519KeyPair key_pair;
  crypto::ChaCha20Key noise_seed;
  std::vector<crypto::X25519PublicKey> public_keys;
  if (!flags.key_file.empty()) {
    auto hop_key = coord::ReadHopKeyFile(flags.key_file);
    if (!hop_key) {
      std::fprintf(stderr, "vuvuzela-hopd: cannot read key file %s\n", flags.key_file.c_str());
      return 1;
    }
    auto directory = coord::KeyDirectory::LoadFromFile(flags.key_dir);
    if (!directory) {
      std::fprintf(stderr, "vuvuzela-hopd: cannot read key directory %s\n",
                   flags.key_dir.c_str());
      return 1;
    }
    size_t chain_length = directory->ChainLength();
    auto chain_keys = directory->ChainPublicKeys(chain_length);
    if (chain_length == 0 || !chain_keys) {
      std::fprintf(stderr, "vuvuzela-hopd: key directory %s has no hop0..hopN chain\n",
                   flags.key_dir.c_str());
      return 1;
    }
    flags.position = flags.have_position ? flags.position : hop_key->position;
    flags.servers = flags.have_servers ? flags.servers : chain_length;
    key_pair = hop_key->key_pair;
    noise_seed = hop_key->noise_seed;
    public_keys = std::move(*chain_keys);
    if (flags.position != hop_key->position || flags.servers != chain_length ||
        flags.position >= flags.servers) {
      std::fprintf(stderr, "vuvuzela-hopd: flags disagree with key files (position %zu/%zu)\n",
                   flags.position, flags.servers);
      return 1;
    }
    if (public_keys[flags.position] != key_pair.public_key) {
      std::fprintf(stderr, "vuvuzela-hopd: key file secret does not match directory entry\n");
      return 1;
    }
  } else {
    transport::ChainKeyMaterial keys = transport::DeriveChainKeys(flags.seed, flags.servers);
    if (flags.servers == 0 || flags.position >= flags.servers) {
      Usage(argv[0]);
      return 2;
    }
    key_pair = keys.key_pairs[flags.position];
    noise_seed = keys.rng_seeds[flags.position];
    public_keys = keys.public_keys;
  }
  if (!flags.exchange.empty() && flags.position + 1 != flags.servers) {
    std::fprintf(stderr, "vuvuzela-hopd: only the last hop hosts the dead drops\n");
    return 2;
  }

  mixnet::ChainConfig chain_config;
  chain_config.num_servers = flags.servers;
  chain_config.conversation_noise = {.params = {flags.mu, flags.mu / 20.0 + 1.0},
                                     .deterministic = true};
  chain_config.dialing_noise = {.params = {flags.dial_mu, flags.dial_mu / 20.0 + 1.0},
                                .deterministic = true};
  chain_config.parallel = true;
  chain_config.exchange_shards = flags.exchange_shards;

  obs::TraceJournal::Global().SetProcess("hopd-" + std::to_string(flags.position));
  transport::HopDaemonConfig daemon_config;
  daemon_config.port = flags.port;
  daemon_config.exchange.partitions = flags.exchange;
  daemon_config.metrics_port = flags.metrics_port;
  auto daemon = transport::HopDaemon::Create(
      daemon_config,
      std::make_unique<mixnet::MixServer>(mixnet::ServerConfigFor(chain_config, flags.position),
                                          key_pair, public_keys, noise_seed));
  if (!daemon) {
    std::fprintf(stderr,
                 "vuvuzela-hopd: cannot listen on port %u (or an exchange partition is "
                 "unreachable)\n",
                 flags.port);
    return 1;
  }

  std::printf("vuvuzela-hopd: position %zu/%zu listening on 127.0.0.1:%u", flags.position,
              flags.servers, daemon->port());
  if (daemon->exchange_router()) {
    std::printf(" (exchange partitioned %zu ways)", daemon->exchange_router()->num_partitions());
  }
  if (daemon->metrics_port() != 0) {
    std::printf(" (metrics on http://127.0.0.1:%u/metrics)", daemon->metrics_port());
  }
  std::printf("\n");
  std::fflush(stdout);
  daemon->Serve();
  // Orderly shutdown cascades to the exchange partitions: the coordinator
  // stops the hops, the last hop stops its shard servers.
  if (daemon->exchange_router()) {
    daemon->exchange_router()->SendShutdown();
  }
  std::printf("vuvuzela-hopd: position %zu served %llu RPCs, exiting\n", flags.position,
              static_cast<unsigned long long>(daemon->rpcs_served()));
  return 0;
}

// Workload definitions, client onion generation and the on-disk onion cache.
//
// Onions are wrapped before the clock starts (§8.1: clients must not be the
// bottleneck). A schedule entry's onions are a pure function of the seed, the
// workload parameters and the chain's public keys, so they are cached on disk
// keyed by a digest of exactly those inputs.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "harness.h"
#include "src/coord/coordinator.h"
#include "src/crypto/sha256.h"
#include "src/crypto/x25519_precomp.h"
#include "src/sim/workload.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"

namespace roundbench {

namespace crypto = vuvuzela::crypto;
namespace util = vuvuzela::util;
namespace wire = vuvuzela::wire;

namespace {

// Why these sizes: README.md, "Workloads".
const WorkloadSpec kWorkloads[] = {
    {.name = "conv_cached",
     .topology = Topology::kInProcess,
     .users = 8000,
     .mu = 25,
     .static_keys = true,
     .dial_every = 4,
     .warmup_rounds = 6,
     .initial_rate = 20},
    {.name = "conv_dh",
     .topology = Topology::kInProcess,
     .users = 1200,
     .mu = 400,
     .static_keys = false,
     .dial_every = 2,
     .warmup_rounds = 4,
     .initial_rate = 8},
    {.name = "fleet_tcp",
     .topology = Topology::kFleet,
     .users = 4000,
     .mu = 25,
     .static_keys = true,
     .dial_every = 2,
     .warmup_rounds = 6,
     .initial_rate = 20},
};

constexpr uint32_t kRequestDomain = 1;  // crypto/onion.cc's request nonce domain
constexpr uint64_t kFormatVersion = 1;
constexpr uint64_t kChunkMagic = 0x31424e4f49524e52ULL;  // "RNRIONB1"

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9e3779b97f4a7c15ULL ^ (b + 0x632be59bd9b4e019ULL + (a << 6) + (a >> 2));
  x ^= x >> 31;
  x *= 0xbf58476d1ce4e5b9ULL;
  return x ^ (x >> 29);
}

template <typename T>
void Put(std::string& out, const T& v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
bool Get(std::istream& in, T& v) {
  return static_cast<bool>(in.read(reinterpret_cast<char*>(&v), sizeof(v)));
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const auto& spec : kWorkloads) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

ClientModel::ClientModel(const WorkloadSpec& spec, uint64_t seed,
                         std::vector<crypto::X25519PublicKey> chain)
    : spec_(spec), seed_(seed), chain_(std::move(chain)) {
  if (!spec_.static_keys) {
    return;
  }
  vuvuzela::sim::ClientKeyRing ring(spec_.users, Mix(seed_, 0x6b657973));
  client_keys_.resize(spec_.users);
  layer_keys_.resize(spec_.users);
  util::GlobalPool().ParallelFor(spec_.users, [&](size_t u) {
    client_keys_[u] = ring.key(u);
    for (size_t h = 0; h < kChainLength; ++h) {
      layer_keys_[u][h] = crypto::DeriveBoxKey(crypto::X25519(ring.key(u).secret_key, chain_[h]),
                                               crypto::OnionContext());
    }
  });
  client_pks_ = ring.public_keys();
}

bool ClientModel::IsDialing(uint64_t index) const {
  return spec_.dial_every != 0 && index % (spec_.dial_every + 1) == spec_.dial_every;
}

uint64_t ClientModel::RoundNumber(uint64_t index) const {
  if (spec_.dial_every == 0) {
    return index + 1;
  }
  uint64_t period = spec_.dial_every + 1;
  uint64_t dials_before = index / period;
  if (IsDialing(index)) {
    return vuvuzela::coord::kDialingRoundBase + dials_before + 1;
  }
  return index - dials_before + 1;
}

wire::ExchangeRequest ClientModel::Exchange(uint64_t round, uint64_t user) const {
  wire::ExchangeRequest request;
  util::Xoshiro256Rng pair_rng(Mix(Mix(seed_, round), user / 2));
  pair_rng.Fill(request.dead_drop);  // both partners derive the pair's drop
  util::Xoshiro256Rng rng(Mix(Mix(seed_ ^ 0xe7, round), user));
  rng.Fill(request.envelope);
  return request;
}

uint64_t ClientModel::dialers() const {
  return static_cast<uint64_t>(static_cast<double>(spec_.users) * kDialFraction);
}

wire::DialRequest ClientModel::Dial(uint64_t round, uint64_t user) const {
  wire::DialRequest request;
  util::Xoshiro256Rng rng(Mix(Mix(seed_ ^ 0xd1, round), user));
  request.dead_drop_index = user < dialers()
                                ? static_cast<uint32_t>(rng.UniformUint64(kDialDrops))
                                : kDialDrops;  // the no-op drop
  rng.Fill(request.invitation);
  return request;
}

Bytes ClientModel::WrapStatic(uint64_t user, uint64_t round, const Bytes& payload) const {
  Bytes data = payload;
  for (size_t h = kChainLength; h-- > 0;) {
    Bytes sealed = crypto::AeadSeal(layer_keys_[user][h],
                                    crypto::NonceFromUint64(round, kRequestDomain), {}, data);
    data.clear();
    data.reserve(crypto::kX25519KeySize + sealed.size());
    util::Append(data, client_keys_[user].public_key);
    util::Append(data, sealed);
  }
  return data;
}

RoundInput ClientModel::Generate(uint64_t index) const {
  RoundInput in;
  in.index = index;
  in.dialing = IsDialing(index);
  in.round = RoundNumber(index);
  in.onions.resize(spec_.users);

  if (!in.dialing) {
    uint64_t pairs = spec_.users / 2;
    util::Xoshiro256Rng pick(Mix(seed_ ^ 0x5a, in.round));
    for (uint32_t k = 0; k < kSamplePairs && k < pairs; ++k) {
      uint64_t pair = pick.UniformUint64(pairs);
      in.sample_users.push_back(static_cast<uint32_t>(2 * pair));
      in.sample_users.push_back(static_cast<uint32_t>(2 * pair + 1));
    }
    in.sample_keys.resize(in.sample_users.size());
  }

  std::vector<crypto::X25519Precomp> tables;
  if (!spec_.static_keys) {
    for (const auto& pk : chain_) {
      auto table = crypto::X25519Precomp::Create(pk);
      if (!table) {
        throw std::runtime_error("chain key does not lift to a comb table");
      }
      tables.push_back(std::move(*table));
    }
  }
  auto payload_of = [&](uint64_t u) {
    return in.dialing ? Dial(in.round, u).Serialize() : Exchange(in.round, u).Serialize();
  };
  auto rng_seed = [&](uint64_t u) { return Mix(Mix(seed_ ^ 0x0e, in.round), u); };
  util::GlobalPool().ParallelFor(spec_.users, [&](size_t u) {
    Bytes payload = payload_of(u);
    if (spec_.static_keys) {
      in.onions[u] = WrapStatic(u, in.round, payload);
    } else {
      // OnionWrap's exact output (same rng stream), through comb tables for
      // the static server keys so pre-generation stays affordable.
      util::Xoshiro256Rng rng(rng_seed(u));
      in.onions[u] = crypto::OnionWrapPrecomp(tables, in.round, payload, rng).data;
    }
  });

  // The wrapping shortcuts must produce the library's client onions exactly.
  Bytes payload = payload_of(0);
  Bytes reference;
  if (spec_.static_keys) {
    std::vector<crypto::X25519KeyPair> keys(kChainLength, client_keys_[0]);
    reference = crypto::OnionWrapWithKeys(chain_, keys, in.round, payload).data;
  } else {
    util::Xoshiro256Rng rng(rng_seed(0));
    reference = crypto::OnionWrap(chain_, in.round, payload, rng).data;
  }
  if (reference != in.onions[0]) {
    throw std::runtime_error("pre-generated onion differs from the library's client onion");
  }

  for (size_t k = 0; k < in.sample_users.size(); ++k) {
    uint32_t u = in.sample_users[k];
    if (spec_.static_keys) {
      in.sample_keys[k] = layer_keys_[u];
    } else {
      util::Xoshiro256Rng rng(rng_seed(u));
      auto wrapped = crypto::OnionWrap(chain_, in.round, payload_of(u), rng);
      std::copy(wrapped.layer_keys.begin(), wrapped.layer_keys.end(), in.sample_keys[k].begin());
    }
  }
  return in;
}

std::string ClientModel::CacheKey() const {
  crypto::Sha256 h;
  std::string fields;
  Put(fields, kFormatVersion);
  fields += spec_.name;
  Put(fields, spec_.users);
  Put(fields, spec_.static_keys);
  Put(fields, spec_.dial_every);
  Put(fields, kDialDrops);
  Put(fields, kDialFraction);
  Put(fields, seed_);
  h.Update(util::ByteSpan(reinterpret_cast<const uint8_t*>(fields.data()), fields.size()));
  for (const auto& pk : chain_) {
    h.Update(pk);
  }
  auto digest = h.Finish();
  return spec_.name + "-" + util::HexEncode(util::ByteSpan(digest.data(), 12));
}

// --- OnionStore -----------------------------------------------------------------

OnionStore::OnionStore(const ClientModel& model, std::string dir)
    : model_(model), dir_(std::move(dir)), key_(model.CacheKey()) {
  std::filesystem::create_directories(dir_);
}

std::string OnionStore::ChunkPath(uint64_t chunk) const {
  return dir_ + "/" + key_ + "-" + std::to_string(chunk) + ".bin";
}

bool OnionStore::Has(uint64_t count) const {
  for (uint64_t c = 0; c * kChunkEntries < count; ++c) {
    if (!std::filesystem::exists(ChunkPath(c))) {
      return false;
    }
  }
  return true;
}

void OnionStore::Ensure(uint64_t count) {
  uint64_t chunks = (count + kChunkEntries - 1) / kChunkEntries;
  for (uint64_t c = 0; c < chunks; ++c) {
    std::string path = ChunkPath(c);
    if (std::filesystem::exists(path)) {
      std::filesystem::last_write_time(path, std::filesystem::file_time_type::clock::now());
      continue;
    }
    std::string tmp = path + ".tmp";
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    std::string head;
    Put(head, kChunkMagic);
    Put(head, kChunkEntries);
    out.write(head.data(), static_cast<std::streamsize>(head.size()));
    for (uint64_t i = c * kChunkEntries; i < (c + 1) * kChunkEntries; ++i) {
      RoundInput in = model_.Generate(i);
      std::string meta;
      Put(meta, static_cast<uint8_t>(in.dialing));
      Put(meta, in.index);
      Put(meta, in.round);
      Put(meta, static_cast<uint32_t>(in.onions.size()));
      Put(meta, static_cast<uint32_t>(in.onions[0].size()));
      Put(meta, static_cast<uint32_t>(in.sample_users.size()));
      out.write(meta.data(), static_cast<std::streamsize>(meta.size()));
      for (const auto& onion : in.onions) {
        if (onion.size() != in.onions[0].size()) {
          throw std::runtime_error("onions of one round differ in size");
        }
        out.write(reinterpret_cast<const char*>(onion.data()),
                  static_cast<std::streamsize>(onion.size()));
      }
      for (size_t k = 0; k < in.sample_users.size(); ++k) {
        out.write(reinterpret_cast<const char*>(&in.sample_users[k]), sizeof(uint32_t));
        out.write(reinterpret_cast<const char*>(in.sample_keys[k].data()),
                  sizeof(in.sample_keys[k]));
      }
    }
    out.close();
    if (!out) {
      throw std::runtime_error("cannot write onion cache chunk " + tmp);
    }
    // Flush now, so the kernel does not write these pages back while a
    // window is being timed.
    int fd = ::open(tmp.c_str(), O_RDONLY);
    if (fd >= 0) {
      ::fdatasync(fd);
      ::close(fd);
    }
    std::filesystem::rename(tmp, path);
  }
  available_ = std::max(available_, chunks * kChunkEntries);
}

RoundInput OnionStore::Read(uint64_t index) {
  uint64_t chunk = index / kChunkEntries;
  if (chunk != loaded_chunk_ || loaded_[index % kChunkEntries].index != index) {
    loaded_.clear();
    std::ifstream in(ChunkPath(chunk), std::ios::binary);
    uint64_t magic = 0, entries = 0;
    if (!Get(in, magic) || !Get(in, entries) || magic != kChunkMagic) {
      throw std::runtime_error("corrupt onion cache chunk " + ChunkPath(chunk));
    }
    for (uint64_t e = 0; e < entries; ++e) {
      RoundInput r;
      uint8_t dialing = 0;
      uint32_t count = 0, size = 0, samples = 0;
      if (!Get(in, dialing) || !Get(in, r.index) || !Get(in, r.round) || !Get(in, count) ||
          !Get(in, size) || !Get(in, samples)) {
        throw std::runtime_error("truncated onion cache chunk " + ChunkPath(chunk));
      }
      r.dialing = dialing != 0;
      r.onions.assign(count, Bytes(size));
      for (auto& onion : r.onions) {
        in.read(reinterpret_cast<char*>(onion.data()), size);
      }
      r.sample_users.resize(samples);
      r.sample_keys.resize(samples);
      for (uint32_t k = 0; k < samples; ++k) {
        in.read(reinterpret_cast<char*>(&r.sample_users[k]), sizeof(uint32_t));
        in.read(reinterpret_cast<char*>(r.sample_keys[k].data()), sizeof(r.sample_keys[k]));
      }
      if (!in) {
        throw std::runtime_error("truncated onion cache chunk " + ChunkPath(chunk));
      }
      loaded_.push_back(std::move(r));
    }
    loaded_chunk_ = chunk;
  }
  RoundInput out = std::move(loaded_[index % kChunkEntries]);
  if (out.index != index) {
    throw std::runtime_error("onion cache entry out of order");
  }
  loaded_[index % kChunkEntries].index = UINT64_MAX;  // consumed; a re-read reloads
  return out;
}

void OnionStore::Trim(uint64_t max_bytes) const {
  struct Entry {
    std::filesystem::file_time_type time;
    uint64_t size;
    std::filesystem::path path;
  };
  std::vector<Entry> others;
  uint64_t total = 0;
  for (const auto& f : std::filesystem::directory_iterator(dir_)) {
    if (!f.is_regular_file()) {
      continue;
    }
    uint64_t size = f.file_size();
    total += size;
    if (f.path().filename().string().rfind(key_ + "-", 0) != 0) {
      others.push_back({f.last_write_time(), size, f.path()});
    }
  }
  std::sort(others.begin(), others.end(),
            [](const Entry& a, const Entry& b) { return a.time < b.time; });
  for (const auto& e : others) {
    if (total <= max_bytes) {
      break;
    }
    std::error_code ec;
    std::filesystem::remove(e.path, ec);
    total -= e.size;
  }
}

}  // namespace roundbench

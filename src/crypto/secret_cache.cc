#include "src/crypto/secret_cache.h"

namespace vuvuzela::crypto {

SecretCache::SecretCache(size_t max_entries)
    : max_per_shard_(max_entries / kShards > 0 ? max_entries / kShards : 1) {}

AeadKey SecretCache::Get(const X25519SecretKey& server_sk, const X25519PublicKey& client_pk,
                         util::ByteSpan context) {
  Shard& shard = ShardFor(client_pk);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(client_pk);
    if (it != shard.map.end()) {
      ++shard.hits;
      return it->second;
    }
    ++shard.misses;
  }

  // Miss: do the expensive DH + HKDF outside the lock. Two threads racing on
  // the same new client derive the same key twice and one insert wins —
  // wasted work, never a wrong answer.
  X25519SharedSecret shared = X25519(server_sk, client_pk);
  AeadKey key = DeriveBoxKey(shared, context);

  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.map.size() >= max_per_shard_ && shard.map.find(client_pk) == shard.map.end()) {
    shard.map.erase(shard.map.begin());
    ++shard.evictions;
  }
  shard.map.emplace(client_pk, key);
  return key;
}

void SecretCache::Invalidate() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.map.clear();
  }
  epoch_.fetch_add(1, std::memory_order_relaxed);
}

SecretCache::Stats SecretCache::GetStats() const {
  Stats stats;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(const_cast<Shard&>(shard).mu);
    stats.hits += shard.hits;
    stats.misses += shard.misses;
    stats.evictions += shard.evictions;
    stats.entries += shard.map.size();
  }
  return stats;
}

}  // namespace vuvuzela::crypto

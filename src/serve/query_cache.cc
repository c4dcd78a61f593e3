#include "serve/query_cache.h"

#include <bit>
#include <cstring>

#include "util/logging.h"

namespace cbir::serve {

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

uint64_t FnvMix(uint64_t hash, const void* bytes, size_t n) {
  const auto* p = static_cast<const unsigned char*>(bytes);
  for (size_t i = 0; i < n; ++i) {
    hash ^= p[i];
    hash *= kFnvPrime;
  }
  return hash;
}

}  // namespace

QueryCache::QueryCache(const QueryCacheOptions& options) {
  const size_t shards = std::bit_ceil(static_cast<size_t>(
      options.num_shards < 1 ? 1 : options.num_shards));
  shard_mask_ = shards - 1;
  // Ceil-divide so the summed shard capacity is never below the requested
  // total (a capacity smaller than the shard count still caches something).
  per_shard_capacity_ = options.capacity == 0
                            ? 0
                            : (options.capacity + shards - 1) / shards;
  shards_.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

QueryCache::Shard& QueryCache::ShardFor(uint64_t key) {
  // Multiplicative scramble so adjacent keys spread across shards even when
  // the low key bits correlate.
  const uint64_t h = key * 0x9E3779B97F4A7C15ull;
  return *shards_[static_cast<size_t>(h >> 32) & shard_mask_];
}

bool QueryCache::Lookup(uint64_t key, std::vector<int>* out) {
  CBIR_CHECK(out != nullptr);
  Shard& shard = ShardFor(key);
  util::MutexLock lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  *out = it->second->ranking;
  hits_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void QueryCache::Insert(uint64_t key, const std::vector<int>& ranking) {
  if (per_shard_capacity_ == 0) return;
  Shard& shard = ShardFor(key);
  util::MutexLock lock(shard.mu);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    it->second->ranking = ranking;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.push_front(Entry{key, ranking});
  shard.map[key] = shard.lru.begin();
  insertions_.fetch_add(1, std::memory_order_relaxed);
  while (shard.map.size() > per_shard_capacity_) {
    shard.map.erase(shard.lru.back().key);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

QueryCacheStats QueryCache::stats() const {
  QueryCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.insertions = insertions_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  return s;
}

size_t QueryCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    util::MutexLock lock(shard->mu);
    total += shard->map.size();
  }
  return total;
}

uint64_t QueryCache::FingerprintQuery(const la::Vec& query) {
  return FnvMix(kFnvOffset, query.data(), query.size() * sizeof(double));
}

}  // namespace cbir::serve

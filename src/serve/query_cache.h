#ifndef CBIR_SERVE_QUERY_CACHE_H_
#define CBIR_SERVE_QUERY_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "la/vector_ops.h"
#include "util/sync.h"

namespace cbir::serve {

/// \brief Knobs for the first-round result cache.
struct QueryCacheOptions {
  /// Total cached rankings across all shards (0 disables the cache).
  size_t capacity = 4096;
  /// Lock shards; rounded up to a power of two. More shards = less mutex
  /// contention between unrelated queries.
  int num_shards = 8;
};

/// \brief Lifetime counters of a QueryCache.
struct QueryCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;  ///< LRU capacity evictions

  double hit_rate() const {
    const uint64_t lookups = hits + misses;
    return lookups == 0 ? 1.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

/// \brief Sharded LRU cache of first-round top-k rankings.
///
/// Keys are 64-bit fingerprints of the query feature (see FingerprintQuery),
/// so two sessions issuing the same query image share one ranking
/// computation. A cache belongs to one RetrievalService, whose database,
/// index and ranking depth are fixed for its lifetime, so the feature alone
/// determines the ranking and no entry ever goes stale: entries leave only
/// by LRU eviction.
///
/// All methods are thread-safe; Lookup/Insert take exactly one shard mutex.
class QueryCache {
 public:
  explicit QueryCache(const QueryCacheOptions& options);

  /// On hit, copies the cached ranking into `out` and refreshes its LRU
  /// position.
  bool Lookup(uint64_t key, std::vector<int>* out);

  /// Caches `ranking` under `key`. Replaces an existing entry for the key;
  /// evicts the shard's LRU tail beyond capacity. No-op at capacity 0.
  void Insert(uint64_t key, const std::vector<int>& ranking);

  QueryCacheStats stats() const;

  /// Live entries across all shards.
  size_t size() const;

  /// FNV-1a fingerprint of a query feature vector. 64-bit collisions across
  /// live cache entries are vanishingly rare; a collision serves the
  /// colliding query the other query's (deterministic) ranking.
  static uint64_t FingerprintQuery(const la::Vec& query);

 private:
  struct Entry {
    uint64_t key = 0;
    std::vector<int> ranking;
  };
  struct Shard {
    util::Mutex mu{util::LockRank::kQueryCache, "query_cache_shard"};
    /// front = most recently used
    std::list<Entry> lru CBIR_GUARDED_BY(mu);
    std::unordered_map<uint64_t, std::list<Entry>::iterator> map
        CBIR_GUARDED_BY(mu);
  };

  Shard& ShardFor(uint64_t key);

  size_t shard_mask_ = 0;  ///< num_shards - 1 (power of two)
  size_t per_shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> insertions_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace cbir::serve

#endif  // CBIR_SERVE_QUERY_CACHE_H_

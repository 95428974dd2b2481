// Provenance-driven cloud hints -- the paper's future work, implemented.
//
// Section 7: "AWS is currently agnostic of the metadata. The provenance
// stored with the data presents AWS cloud with many hints about the
// application storing the data. In the future, we plan to investigate how a
// cloud might take advantage of this provenance."
//
// This module is one such investigation: a cloud-side edge cache whose
// prefetcher mines the provenance index. When a client fetches an object,
// the cache consults SimpleDB for the object's *provenance siblings* (other
// outputs of the producing process) and *descendants* (objects derived from
// it) and warms them. Scientific access patterns are provenance-correlated
// -- a researcher who opens one blast hits file usually opens the rest of
// the run, then the summary -- so provenance is a ready-made prefetch
// oracle the storage system gets for free.
//
// bench_hints_prefetch quantifies the effect against a plain LRU cache.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cloudprov/backend.hpp"
#include "cloudprov/domain_topology.hpp"
#include "obs/metrics.hpp"

namespace provcloud::cloudprov {

namespace manifest {
class AncestorCache;
}

struct PrefetchConfig {
  /// Objects the edge cache can hold.
  std::size_t cache_capacity = 64;
  /// Use provenance hints at all (false = plain LRU for comparison).
  bool use_provenance_hints = true;
};

struct PrefetchStats {
  std::uint64_t reads = 0;
  std::uint64_t hits = 0;            // served from cache
  std::uint64_t misses = 0;          // went to S3
  std::uint64_t prefetches = 0;      // objects warmed speculatively
  std::uint64_t prefetch_hits = 0;   // hits on speculatively-warmed entries
  /// Hint-mining SimpleDB reads skipped because the shared AncestorCache
  /// already held the object's provenance fragment.
  std::uint64_t ancestor_cache_hits = 0;

  double hit_rate() const {
    return reads == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(reads);
  }
  /// Fraction of prefetched objects that were subsequently used.
  double prefetch_accuracy() const {
    return prefetches == 0 ? 0.0
                           : static_cast<double>(prefetch_hits) /
                                 static_cast<double>(prefetches);
  }
};

/// A cloud-side LRU object cache with a provenance prefetcher.
class ProvenanceCache {
 public:
  /// Pass the storing backend's topology (SdbBackend::topology(),
  /// WalBackend::topology()): hint queries hit the object's shard domain
  /// directly and sibling/descendant sweeps scatter across every shard.
  ProvenanceCache(CloudServices& services, PrefetchConfig config,
                  std::shared_ptr<const DomainTopology> topology);

  /// Client-facing read: returns the object data (null if the object does
  /// not exist). Misses fetch from S3 and, with hints enabled, trigger
  /// sibling/descendant prefetches. Internal traffic is metered under
  /// distinct op names ("GET.prefetch", "Query.prefetch") so the hint cost
  /// is separable from client traffic.
  util::SharedBytes read(const std::string& object);

  /// Share a manifest reader's AncestorCache: hint mining consults it for
  /// the object's provenance fragment before issuing the per-item SimpleDB
  /// read, so ancestors already resident from an ancestry walk stop being
  /// double-fetched. Stats count the avoided reads.
  void attach_ancestor_cache(std::shared_ptr<manifest::AncestorCache> cache) {
    ancestor_cache_ = std::move(cache);
  }

  const PrefetchStats& stats() const { return stats_; }
  std::size_t cached_objects() const { return entries_.size(); }
  bool is_cached(const std::string& object) const {
    return entries_.count(object) > 0;
  }

 private:
  struct Entry {
    util::SharedBytes data;
    std::list<std::string>::iterator lru_it;
    bool speculative = false;  // arrived via prefetch, not yet used
  };

  void touch(const std::string& object, std::map<std::string, Entry>::iterator it);
  void insert(const std::string& object, util::SharedBytes data,
              bool speculative);
  void evict_if_needed();

  /// The hint engine: provenance-related object names worth warming.
  std::vector<std::string> hint_candidates(const std::string& object);

  /// One prefetch query scattered to every shard domain (a related item can
  /// live in any shard); pages gathered in shard order, each domain's query
  /// metered as "Query.prefetch".
  std::vector<aws::SimpleDbService::ItemWithAttributes> scatter_prefetch_query(
      const std::string& expression,
      const std::vector<std::string>& attribute_filter, std::size_t limit);

  CloudServices* services_;
  PrefetchConfig config_;
  std::shared_ptr<const DomainTopology> topology_;
  std::shared_ptr<manifest::AncestorCache> ancestor_cache_;
  std::map<std::string, Entry> entries_;
  std::list<std::string> lru_;  // front = most recent
  PrefetchStats stats_;
  // Registry mirrors of stats_ (prefetch.*), resolved once in the ctor.
  obs::Counter* reads_counter_ = nullptr;
  obs::Counter* hits_counter_ = nullptr;
  obs::Counter* misses_counter_ = nullptr;
  obs::Counter* prefetches_counter_ = nullptr;
  obs::Counter* prefetch_hits_counter_ = nullptr;
  obs::Counter* ancestor_cache_hits_counter_ = nullptr;
};

}  // namespace provcloud::cloudprov

// ManifestReader: serve ancestry reads from snapshot manifests.
//
// The batched read path behind the manifest query engine:
//
//   1. AncestorCache lookup (no cloud traffic on a hit);
//   2. min/max pruning over the manifest list locates, per miss, the one
//      block that can hold the item;
//   3. the distinct blocks are fetched with scatter/gather through
//      DomainTopology::run_tasks, so the LatencyLedger charges the critical
//      path of the overlapped GETs, then decoded and cached;
//   4. items the snapshot prunes away (stored after the roll) fall back to
//      the per-shard SimpleDB reads -- the mutable tail.
//
// Time travel: open(snapshot_id) pins the reader to a committed historical
// snapshot; tail fallback is then disabled (the tail of an old snapshot is
// "the future" and must not leak in).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cloudprov/backend.hpp"
#include "cloudprov/domain_topology.hpp"
#include "cloudprov/manifest/ancestor_cache.hpp"
#include "cloudprov/manifest/catalog.hpp"
#include "cloudprov/manifest/format.hpp"

namespace provcloud::cloudprov::manifest {

/// AncestorCache capacity of every reader (transitive-closure fragments).
inline constexpr std::size_t kAncestorCacheCapacity = 4096;

class ManifestReader {
 public:
  ManifestReader(CloudServices& services,
                 std::shared_ptr<const DomainTopology> topology);

  /// Bind to the committed current snapshot. Cheap when already bound to
  /// it (one catalog read, no list GET). Errors with kNotFound when no
  /// snapshot was ever committed. Binding to a *different* snapshot than
  /// before invalidates the AncestorCache.
  BackendResult<void> open_current();

  /// Time travel: bind to a committed historical snapshot. kNotFound when
  /// the id was never committed (includes ids of crashed rolls).
  BackendResult<void> open(std::uint64_t snapshot_id);

  bool is_open() const { return open_; }
  std::uint64_t snapshot_id() const { return list_.snapshot_id; }
  const ManifestList& list() const { return list_; }
  bool time_travel() const { return pinned_; }

  /// The cache, shareable with the hints prefetcher.
  const std::shared_ptr<AncestorCache>& cache() const { return cache_; }

  /// The shard layout the reader scatters over (same one the store used).
  const std::shared_ptr<const DomainTopology>& topology() const {
    return topology_;
  }

  /// Batched provenance fetch, results in input order. Snapshot-resident
  /// ids come from cache or scatter/gathered block GETs; ids the snapshot
  /// prunes away use the SimpleDB tail fallback -- unless the reader is
  /// time-travel pinned, in which case they error kNotFound.
  std::vector<BackendResult<std::vector<pass::ProvenanceRecord>>>
  get_provenance_many(const std::vector<pass::ObjectVersion>& ids);

  /// SimpleDB read round trips a deep walk is charged for, for diagnostics:
  /// the meter keys the manifest sweep in bench_table3_query diffs.
  static const char* const* sdb_read_ops();

 private:
  BackendResult<void> bind(const CatalogPointer& pointer, bool pinned);
  BackendResult<std::vector<ManifestEntry>> fetch_block_with_retry(
      const std::string& key);

  CloudServices* services_;
  std::shared_ptr<const DomainTopology> topology_;
  std::shared_ptr<AncestorCache> cache_;
  ManifestList list_;
  bool open_ = false;
  bool pinned_ = false;
};

}  // namespace provcloud::cloudprov::manifest

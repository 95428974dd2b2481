// ManifestWriter: roll the frozen provenance store into a snapshot.
//
// A roll enumerates every provenance item across the shard domains, fetches
// each item's fully-resolved records through the same fetch_sdb_provenance
// path queries use (so manifest contents are bit-identical to SimpleDB
// reads), sorts the entries, cuts them into immutable blocks on S3, writes
// the manifest list, publishes the catalog history row and finally swaps
// the catalog "current" pointer -- the commit point. PASS versioning makes
// every stored (object, version) immutable, so anything the enumeration saw
// is frozen by construction; items stored after the roll are the mutable
// tail the reader serves from SimpleDB.
//
// Crash protocol (the property checker sweeps every point):
//   manifest.roll.begin            -- before any write
//   manifest.roll.after_block_put  -- after each block PUT
//   manifest.roll.after_list_put   -- manifest list durable, not cataloged
//   manifest.roll.after_history    -- history row durable, not committed
//   manifest.roll.after_commit     -- pointer swapped
// A crash at any point before after_commit leaves the previous snapshot
// serving: its objects are immutable and its pointer row untouched.
#pragma once

#include <cstdint>
#include <memory>

#include "cloudprov/backend.hpp"
#include "cloudprov/domain_topology.hpp"
#include "cloudprov/manifest/format.hpp"

namespace provcloud::cloudprov::manifest {

struct ManifestWriterConfig {
  /// Entries per manifest block. Smaller blocks prune tighter; larger
  /// blocks amortize GETs harder (the kivaloo lbs trade).
  std::size_t block_entries = 64;
};

class ManifestWriter {
 public:
  ManifestWriter(CloudServices& services,
                 std::shared_ptr<const DomainTopology> topology,
                 ManifestWriterConfig config = {});

  /// Roll a new snapshot of everything currently visible. Returns the
  /// committed manifest list. May throw sim::CrashError at an armed crash
  /// point -- the catalog then still names the previous snapshot.
  BackendResult<ManifestList> roll();

  /// Id of the last snapshot this writer committed (0 = none yet).
  std::uint64_t last_snapshot_id() const { return last_snapshot_id_; }

 private:
  CloudServices* services_;
  std::shared_ptr<const DomainTopology> topology_;
  ManifestWriterConfig config_;
  std::uint64_t last_snapshot_id_ = 0;
};

}  // namespace provcloud::cloudprov::manifest

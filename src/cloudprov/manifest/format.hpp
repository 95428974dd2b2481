// Manifest snapshot wire formats (the iceberg-style read-path layout).
//
// A *snapshot* freezes everything the provenance store held at roll time
// into immutable, sorted, columnar-ish objects in a dedicated S3 bucket:
//
//   catalog item (SimpleDB)  ->  manifest list (S3)  ->  manifest blocks (S3)
//
// Each manifest *block* holds a contiguous run of (object, version) entries
// in ascending order, every entry carrying the version's fully-resolved
// provenance records (spill pointers are chased at roll time, so a block
// read never needs a follow-up request). The manifest *list* names every
// block together with its min/max (object, version) pruning stats and
// sizes, so a reader locates the one block that can contain an item with no
// I/O beyond the list itself.
//
// Values may contain any byte (ENV records embed newlines), so both
// encodings are length-prefixed rather than line-oriented.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "pass/pnode.hpp"
#include "pass/record.hpp"

namespace provcloud::cloudprov::manifest {

/// Bucket holding manifest blocks and manifest lists. Separate from the
/// data bucket: snapshot objects are derived state, invisible to the
/// atomicity/orphan invariants over kDataBucket.
inline constexpr const char* kManifestBucket = "pass-manifests";

/// SimpleDB domain holding the catalog pointer rows.
inline constexpr const char* kCatalogDomain = "prov-catalog";

/// Propagation-retry budget of every manifest read: catalog rows, block
/// GETs, and the item records a roll or a tail fallback fetches.
inline constexpr std::uint32_t kManifestMaxRetries = 64;

/// S3 keys of a snapshot's objects.
std::string manifest_list_key(std::uint64_t snapshot_id);
std::string manifest_block_key(std::uint64_t snapshot_id, std::size_t block);

/// One frozen (object, version) with its resolved provenance records --
/// exactly what fetch_sdb_provenance would return for the item, so a
/// manifest read is bit-identical to the SimpleDB read it replaces.
struct ManifestEntry {
  pass::ObjectVersion id;
  std::vector<pass::ProvenanceRecord> records;
};

/// Pruning stats of one block, carried by the manifest list.
struct BlockStats {
  std::string key;        // S3 key of the block object
  pass::ObjectVersion min;  // smallest entry id in the block
  pass::ObjectVersion max;  // largest entry id in the block
  std::uint64_t entries = 0;
  std::uint64_t bytes = 0;  // encoded block size (GET planning)
};

/// The decoded manifest list: the snapshot's full block index.
struct ManifestList {
  std::uint64_t snapshot_id = 0;
  std::uint64_t total_entries = 0;
  std::vector<BlockStats> blocks;  // ascending, disjoint min/max ranges
};

/// Block encoding: "PMB1" header, then length-prefixed entries.
std::string encode_block(const std::vector<ManifestEntry>& entries);
/// Returns nullopt on any framing error (truncated or foreign object).
std::optional<std::vector<ManifestEntry>> decode_block(const std::string& raw);

/// Manifest-list encoding: "PML1" header, then one record per block.
std::string encode_manifest_list(const ManifestList& list);
std::optional<ManifestList> decode_manifest_list(const std::string& raw);

/// Block index of the block whose [min, max] range can contain `id`, or
/// nullopt when every block is pruned away (the id is outside all ranges:
/// either never stored or in the mutable tail above this snapshot).
std::optional<std::size_t> find_block(const ManifestList& list,
                                      const pass::ObjectVersion& id);

}  // namespace provcloud::cloudprov::manifest

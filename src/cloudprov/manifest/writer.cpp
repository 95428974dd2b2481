#include "cloudprov/manifest/writer.hpp"

#include <algorithm>

#include "cloudprov/consistency_read.hpp"
#include "cloudprov/manifest/catalog.hpp"
#include "cloudprov/serialize.hpp"
#include "util/require.hpp"

namespace provcloud::cloudprov::manifest {

ManifestWriter::ManifestWriter(CloudServices& services,
                               std::shared_ptr<const DomainTopology> topology,
                               ManifestWriterConfig config)
    : services_(&services), topology_(std::move(topology)), config_(config) {
  PROVCLOUD_REQUIRE(topology_ != nullptr);
  PROVCLOUD_REQUIRE(config_.block_entries > 0);
}

BackendResult<ManifestList> ManifestWriter::roll() {
  aws::CloudEnv& env = *services_->env;
  Catalog catalog(*services_);
  catalog.ensure_domain();
  env.failures().crash_point("manifest.roll.begin");

  // Enumerate the frozen item names, one billed query sweep per shard
  // domain; the per-domain sweeps overlap on the topology's executor.
  const std::vector<std::vector<std::string>> per_domain =
      topology_->scatter<std::vector<std::string>>(
          [this](std::size_t, const std::string& domain) {
            std::vector<std::string> names;
            std::string token;
            for (;;) {
              auto page = services_->sdb.query(domain, "",
                                               aws::kSdbMaxQueryResults, token);
              if (!page) break;
              names.insert(names.end(), page->item_names.begin(),
                           page->item_names.end());
              if (!page->next_token) break;
              token = *page->next_token;
            }
            return names;
          });

  // Fetch every item's resolved records -- the exact bytes the SimpleDB
  // read path would return -- and sort into the snapshot order.
  std::vector<ManifestEntry> entries;
  for (const std::vector<std::string>& names : per_domain) {
    for (const std::string& item : names) {
      pass::ObjectVersion id;
      if (!parse_item_name(item, id.object, id.version)) continue;
      auto records = fetch_sdb_provenance(*services_, *topology_, id.object,
                                          id.version, kManifestMaxRetries);
      if (!records)
        return backend_error(
            BackendErrorCode::kServiceError,
            "manifest roll could not fetch " + item + ": " +
                records.error().message);
      entries.push_back(ManifestEntry{std::move(id), std::move(*records)});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const ManifestEntry& a, const ManifestEntry& b) {
              return a.id < b.id;
            });

  const std::uint64_t snapshot_id = catalog.next_snapshot_id();

  // Cut sorted entries into blocks and PUT each. Sequential on purpose: a
  // roll is background work, and the crash sweep wants a deterministic
  // point between any two block PUTs.
  ManifestList list;
  list.snapshot_id = snapshot_id;
  list.total_entries = entries.size();
  for (std::size_t start = 0; start < entries.size();
       start += config_.block_entries) {
    const std::size_t end =
        std::min(start + config_.block_entries, entries.size());
    const std::vector<ManifestEntry> block(
        entries.begin() + static_cast<std::ptrdiff_t>(start),
        entries.begin() + static_cast<std::ptrdiff_t>(end));
    const std::string encoded = encode_block(block);
    BlockStats stats;
    stats.key = manifest_block_key(snapshot_id, list.blocks.size());
    stats.min = block.front().id;
    stats.max = block.back().id;
    stats.entries = block.size();
    stats.bytes = encoded.size();
    auto put = services_->s3.put(kManifestBucket, stats.key, encoded);
    if (!put)
      return backend_error(BackendErrorCode::kServiceError,
                           "manifest block PUT failed: " + put.error().message);
    list.blocks.push_back(std::move(stats));
    env.failures().crash_point("manifest.roll.after_block_put");
  }

  CatalogPointer pointer{snapshot_id, manifest_list_key(snapshot_id),
                         list.total_entries};
  auto put_list = services_->s3.put(kManifestBucket, pointer.list_key,
                                    encode_manifest_list(list));
  if (!put_list)
    return backend_error(BackendErrorCode::kServiceError,
                         "manifest list PUT failed: " + put_list.error().message);
  env.failures().crash_point("manifest.roll.after_list_put");

  auto history = catalog.publish_history(pointer);
  if (!history) return util::Unexpected(history.error());
  env.failures().crash_point("manifest.roll.after_history");

  auto committed = catalog.commit(pointer);
  if (!committed) return util::Unexpected(committed.error());
  env.failures().crash_point("manifest.roll.after_commit");

  last_snapshot_id_ = snapshot_id;
  return list;
}

}  // namespace provcloud::cloudprov::manifest

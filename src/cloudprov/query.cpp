#include "cloudprov/query.hpp"

#include <cstring>
#include <map>

#include "cloudprov/consistency_read.hpp"
#include "cloudprov/domain_topology.hpp"
#include "cloudprov/manifest/reader.hpp"
#include "cloudprov/serialize.hpp"
#include "util/require.hpp"
#include "util/string_utils.hpp"

namespace provcloud::cloudprov {

namespace {

/// OR-terms per predicate when chunking large ancestor sets into
/// ['INPUT' = 'a' or 'INPUT' = 'b' ...] expressions.
constexpr std::size_t kOrTermsPerQuery = 20;

bool is_internal_key(const std::string& key) {
  return util::starts_with(key, kOverflowPrefix) ||
         util::starts_with(key, kTempPrefix);
}

// ---------------------------------------------------------------------------
// Architecture 1: scan-based queries over S3 metadata.
// ---------------------------------------------------------------------------

class S3QueryEngine final : public QueryEngine {
 public:
  explicit S3QueryEngine(CloudServices& services) : services_(&services) {}
  std::string name() const override { return "S3"; }

  Q1Result q1_all_provenance() override {
    const std::vector<DecodedMetadata> all = scan_all();
    Q1Result out;
    out.object_versions = all.size();
    for (const DecodedMetadata& m : all) out.records += m.records.size();
    return out;
  }

  std::set<std::string> q2_outputs_of(const std::string& program) override {
    // One full scan; both phases evaluate on the scanned copy ("the second
    // phase can, of course, be executed from a cache").
    const std::vector<DecodedMetadata> all = scan_all();
    return outputs_from(all, program);
  }

  AncestryResult ancestry(const std::string& object, std::uint32_t version,
                          std::size_t max_nodes) override {
    // One scan, then walk locally: S3 retains only the latest version's
    // metadata, so any older ancestor version lands in `missing` -- the
    // Arch-1 limitation fetch_ancestry has always surfaced.
    const std::vector<DecodedMetadata> all = scan_all();
    std::map<pass::ObjectVersion, const DecodedMetadata*> by_id;
    for (const DecodedMetadata& m : all)
      by_id[pass::ObjectVersion{m.object, m.version}] = &m;
    return walk_ancestry(
        [&by_id](const std::vector<pass::ObjectVersion>& ids) {
          std::vector<BackendResult<std::vector<pass::ProvenanceRecord>>> out;
          out.reserve(ids.size());
          for (const pass::ObjectVersion& id : ids) {
            auto it = by_id.find(id);
            if (it == by_id.end())
              out.push_back(backend_error(BackendErrorCode::kNotFound,
                                          "not in scan: " + id.to_string()));
            else
              out.push_back(it->second->records);
          }
          return out;
        },
        object, version, max_nodes);
  }

  std::set<std::string> q3_descendants_of(const std::string& program) override {
    const std::vector<DecodedMetadata> all = scan_all();
    const std::set<std::string> outputs = outputs_from(all, program);

    // Reverse data-flow edges: ancestor object -> descendant objects.
    std::multimap<std::string, std::string> reverse;
    std::map<std::string, std::string> kind_of;
    for (const DecodedMetadata& m : all) {
      kind_of[m.object] = m.kind;
      for (const pass::ProvenanceRecord& r : m.records)
        if (r.is_xref() && r.attribute != pass::attr::kPrev)
          reverse.emplace(r.xref().object, m.object);
    }
    std::set<std::string> visited = outputs;
    std::vector<std::string> frontier(outputs.begin(), outputs.end());
    while (!frontier.empty()) {
      std::vector<std::string> next;
      for (const std::string& object : frontier) {
        auto [lo, hi] = reverse.equal_range(object);
        for (auto it = lo; it != hi; ++it)
          if (visited.insert(it->second).second) next.push_back(it->second);
      }
      frontier = std::move(next);
    }
    std::set<std::string> files;
    for (const std::string& object : visited)
      if (kind_of[object] == "file") files.insert(object);
    return files;
  }

 private:
  /// LIST the bucket, HEAD every object, GET every spilled record: "S3 has
  /// to effectively retrieve the metadata of all objects in the store."
  std::vector<DecodedMetadata> scan_all() {
    std::vector<DecodedMetadata> out;
    std::string marker;
    for (;;) {
      auto page = services_->s3.list(kDataBucket, "", marker);
      if (!page || page->keys.empty()) break;
      for (const std::string& key : page->keys) {
        if (is_internal_key(key)) continue;
        auto head = services_->s3.head(kDataBucket, key);
        if (!head) continue;  // propagation race; scans are best-effort
        DecodedMetadata decoded = decode_metadata(head->metadata);
        if (decoded.object.empty()) decoded.object = key;
        // Spilled records must be fetched separately.
        for (pass::ProvenanceRecord& r : decoded.records) {
          if (r.is_xref() || r.text().rfind(kSpillMarker, 0) != 0) continue;
          const std::string spill_key =
              r.text().substr(std::strlen(kSpillMarker));
          auto got = services_->s3.get(kDataBucket, spill_key);
          if (got) r = pass::ProvenanceRecord{r.attribute, *got->data};
        }
        out.push_back(std::move(decoded));
      }
      if (!page->truncated) break;
      marker = page->keys.back();
    }
    return out;
  }

  static std::set<std::string> outputs_from(
      const std::vector<DecodedMetadata>& all, const std::string& program) {
    // Phase 1: processes named `program`.
    std::set<std::string> producers;
    for (const DecodedMetadata& m : all) {
      if (m.kind != "process") continue;
      for (const pass::ProvenanceRecord& r : m.records)
        if (r.attribute == pass::attr::kName && !r.is_xref() &&
            r.text() == program)
          producers.insert(m.object);
    }
    // Phase 2: files with an INPUT edge to any of those processes.
    std::set<std::string> outputs;
    for (const DecodedMetadata& m : all) {
      if (m.kind != "file") continue;
      for (const pass::ProvenanceRecord& r : m.records)
        if (r.is_xref() && r.attribute == pass::attr::kInput &&
            producers.count(r.xref().object) > 0)
          outputs.insert(m.object);
    }
    return outputs;
  }

  CloudServices* services_;
};

// ---------------------------------------------------------------------------
// Architectures 2/3: indexed SimpleDB queries.
// ---------------------------------------------------------------------------

class SdbQueryEngine final : public QueryEngine {
 public:
  SdbQueryEngine(CloudServices& services,
                 std::shared_ptr<const DomainTopology> topology)
      : services_(&services), topology_(std::move(topology)) {}
  std::string name() const override {
    if (topology_->shard_count() == 1) return "SimpleDB";
    return "SimpleDB[x" + std::to_string(topology_->shard_count()) + "]";
  }

  Q1Result q1_all_provenance() override {
    // "There is no way for SimpleDB to generalize the query and [it] needs
    // to issue one query per item": enumerate items, then GetAttributes
    // each -- per shard domain; the union covers every item exactly once,
    // and the per-domain sweeps overlap on the topology's executor.
    const std::vector<Q1Result> parts = topology_->scatter<Q1Result>(
        [this](std::size_t, const std::string& domain) {
          Q1Result part;
          std::string token;
          for (;;) {
            auto page = services_->sdb.query(domain, "",
                                             aws::kSdbMaxQueryResults, token);
            if (!page) break;
            for (const std::string& item : page->item_names) {
              auto attrs = services_->sdb.get_attributes(domain, item);
              if (!attrs) continue;
              ++part.object_versions;
              for (const auto& [name, values] : *attrs)
                part.records += values.size();
            }
            if (!page->next_token) break;
            token = *page->next_token;
          }
          return part;
        });
    Q1Result out;
    for (const Q1Result& part : parts) {
      out.object_versions += part.object_versions;
      out.records += part.records;
    }
    return out;
  }

  std::set<std::string> q2_outputs_of(const std::string& program) override {
    const std::set<std::string> producers = producer_versions(program);
    std::set<std::string> outputs;
    for (const auto& [item, attrs] : items_with_input_in(producers))
      if (kind_of(attrs) == "file") outputs.insert(object_of(item));
    return outputs;
  }

  AncestryResult ancestry(const std::string& object, std::uint32_t version,
                          std::size_t max_nodes) override {
    // The scatter baseline: one per-shard GetAttributes round trip per
    // node of the walk (plus spill GETs), billed exactly like
    // SdbBackend::get_provenance.
    return walk_ancestry(
        [this](const std::vector<pass::ObjectVersion>& ids) {
          std::vector<BackendResult<std::vector<pass::ProvenanceRecord>>> out;
          out.reserve(ids.size());
          for (const pass::ObjectVersion& id : ids)
            out.push_back(fetch_sdb_provenance(*services_, *topology_,
                                               id.object, id.version, 64));
          return out;
        },
        object, version, max_nodes);
  }

  std::set<std::string> q3_descendants_of(const std::string& program) override {
    // Level-by-level expansion: "for ancestry queries, it has to retrieve
    // each item ..., then examine each item for its ancestors and then look
    // up further" -- here in the descendant direction.
    const std::set<std::string> producers = producer_versions(program);
    std::set<std::string> visited_versions = producers;
    std::set<std::string> frontier = producers;
    std::set<std::string> files;
    while (!frontier.empty()) {
      std::set<std::string> next;
      for (const auto& [item, attrs] : items_with_input_in(frontier)) {
        if (visited_versions.insert(item).second) {
          next.insert(item);
          if (kind_of(attrs) == "file") files.insert(object_of(item));
        }
      }
      frontier = std::move(next);
    }
    return files;
  }

 private:
  static std::string object_of(const std::string& item) {
    std::string object;
    std::uint32_t version = 0;
    if (parse_item_name(item, object, version)) return object;
    return item;
  }

  static std::string kind_of(const aws::SdbItem& attrs) {
    auto it = attrs.find("x-kind");
    if (it == attrs.end() || it->second.empty()) return "";
    return *it->second.begin();
  }

  /// Phase 1 of Q2/Q3: item names of process versions whose NAME matches.
  /// Scatter the indexed query to every shard domain, gather the union.
  std::set<std::string> producer_versions(const std::string& program) {
    const std::string expr = "['NAME' = '" + program + "']";
    const std::vector<std::set<std::string>> parts =
        topology_->scatter<std::set<std::string>>(
            [this, &expr](std::size_t, const std::string& domain) {
              std::set<std::string> part;
              std::string token;
              for (;;) {
                auto page = services_->sdb.query_with_attributes(
                    domain, expr, {"x-kind"}, aws::kSdbMaxQueryResults, token);
                if (!page) break;
                for (const auto& item : page->items)
                  if (kind_of(item.attributes) == "process")
                    part.insert(item.name);
                if (!page->next_token) break;
                token = *page->next_token;
              }
              return part;
            });
    std::set<std::string> out;
    for (const std::set<std::string>& part : parts)
      out.insert(part.begin(), part.end());
    return out;
  }

  /// Items whose INPUT attribute points at any member of `ancestors`
  /// (item-name strings "object:version"). Chunked into OR-predicates; a
  /// descendant can live in any shard, so each chunk scatters to every
  /// domain concurrently and the pages are gathered in shard order.
  std::vector<std::pair<std::string, aws::SdbItem>> items_with_input_in(
      const std::set<std::string>& ancestors) {
    using ItemPage = std::vector<std::pair<std::string, aws::SdbItem>>;
    ItemPage out;
    std::vector<std::string> list(ancestors.begin(), ancestors.end());
    for (std::size_t start = 0; start < list.size();
         start += kOrTermsPerQuery) {
      const std::size_t end = std::min(start + kOrTermsPerQuery, list.size());
      std::string expr = "[";
      for (std::size_t i = start; i < end; ++i) {
        if (i > start) expr += " or ";
        expr += "'INPUT' = '" + list[i] + "'";
      }
      expr += "]";
      const std::vector<ItemPage> parts = topology_->scatter<ItemPage>(
          [this, &expr](std::size_t, const std::string& domain) {
            ItemPage part;
            std::string token;
            for (;;) {
              auto page = services_->sdb.query_with_attributes(
                  domain, expr, {"x-kind"}, aws::kSdbMaxQueryResults, token);
              if (!page) break;
              for (auto& item : page->items)
                part.emplace_back(item.name, std::move(item.attributes));
              if (!page->next_token) break;
              token = *page->next_token;
            }
            return part;
          });
      for (const ItemPage& part : parts)
        out.insert(out.end(), part.begin(), part.end());
    }
    return out;
  }

  CloudServices* services_;
  std::shared_ptr<const DomainTopology> topology_;
};

// ---------------------------------------------------------------------------
// Manifest-backed read path: snapshots + AncestorCache, SimpleDB tail.
// ---------------------------------------------------------------------------

class ManifestQueryEngine final : public QueryEngine {
 public:
  ManifestQueryEngine(CloudServices& services,
                      std::shared_ptr<manifest::ManifestReader> reader,
                      std::shared_ptr<const DomainTopology> topology)
      : services_(&services),
        topology_(std::move(topology)),
        reader_(std::move(reader)),
        inner_(std::make_unique<SdbQueryEngine>(services, topology_)) {}

  std::string name() const override { return inner_->name() + "+manifest"; }

  Q1Result q1_all_provenance() override { return inner_->q1_all_provenance(); }
  std::set<std::string> q2_outputs_of(const std::string& program) override {
    return inner_->q2_outputs_of(program);
  }
  std::set<std::string> q3_descendants_of(const std::string& program) override {
    return inner_->q3_descendants_of(program);
  }

  AncestryResult ancestry(const std::string& object, std::uint32_t version,
                          std::size_t max_nodes) override {
    // Rebind to the current snapshot each walk: one catalog read; the list
    // GET and cache invalidation only happen when a newer snapshot landed.
    const auto opened = reader_->open_current();
    if (!opened) {
      // Nothing ever rolled: serve the walk from the scatter path outright.
      return inner_->ancestry(object, version, max_nodes);
    }
    return walk_ancestry(
        [this](const std::vector<pass::ObjectVersion>& ids) {
          return reader_->get_provenance_many(ids);
        },
        object, version, max_nodes);
  }

  bool supports_time_travel() const override { return true; }

  AncestryResult ancestry_as_of(std::uint64_t snapshot_id,
                                const std::string& object,
                                std::uint32_t version,
                                std::size_t max_nodes) override {
    // A pinned reader with its own cache: binding the shared reader to an
    // old snapshot would invalidate the hot current-snapshot cache.
    manifest::ManifestReader pinned(*services_, topology_);
    const auto opened = pinned.open(snapshot_id);
    if (!opened) {
      AncestryResult result;
      result.missing.push_back(pass::ObjectVersion{object, version});
      return result;
    }
    return walk_ancestry(
        [&pinned](const std::vector<pass::ObjectVersion>& ids) {
          return pinned.get_provenance_many(ids);
        },
        object, version, max_nodes);
  }

 private:
  CloudServices* services_;
  std::shared_ptr<const DomainTopology> topology_;
  std::shared_ptr<manifest::ManifestReader> reader_;
  std::unique_ptr<SdbQueryEngine> inner_;
};

}  // namespace

AncestryResult QueryEngine::ancestry_as_of(std::uint64_t, const std::string&,
                                           std::uint32_t, std::size_t) {
  util::require_failed("supports_time_travel()", __FILE__, __LINE__,
                       "this query engine has no snapshots");
}

std::unique_ptr<QueryEngine> make_s3_query_engine(CloudServices& services) {
  return std::make_unique<S3QueryEngine>(services);
}

std::unique_ptr<QueryEngine> make_sdb_query_engine(
    CloudServices& services, std::shared_ptr<const DomainTopology> topology) {
  PROVCLOUD_REQUIRE(topology != nullptr);
  return std::make_unique<SdbQueryEngine>(services, std::move(topology));
}

std::unique_ptr<QueryEngine> make_manifest_query_engine(
    CloudServices& services, std::shared_ptr<const DomainTopology> topology) {
  return make_manifest_query_engine(
      services, std::make_shared<manifest::ManifestReader>(
                    services, std::move(topology)));
}

std::unique_ptr<QueryEngine> make_manifest_query_engine(
    CloudServices& services, std::shared_ptr<manifest::ManifestReader> reader) {
  std::shared_ptr<const DomainTopology> topology = reader->topology();
  return std::make_unique<ManifestQueryEngine>(services, std::move(reader),
                                               std::move(topology));
}

}  // namespace provcloud::cloudprov

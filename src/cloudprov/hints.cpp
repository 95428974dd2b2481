#include "cloudprov/hints.hpp"

#include <algorithm>

#include "cloudprov/consistency_read.hpp"
#include "cloudprov/manifest/ancestor_cache.hpp"
#include "cloudprov/serialize.hpp"
#include "util/require.hpp"
#include "util/string_utils.hpp"

namespace provcloud::cloudprov {

namespace {

/// Caps on sibling and descendant prefetches per miss.
constexpr std::size_t kSiblingLimit = 8;
constexpr std::size_t kDescendantLimit = 4;

}  // namespace

ProvenanceCache::ProvenanceCache(CloudServices& services, PrefetchConfig config,
                                 std::shared_ptr<const DomainTopology> topology)
    : services_(&services), config_(config), topology_(std::move(topology)) {
  PROVCLOUD_REQUIRE(config_.cache_capacity > 0);
  PROVCLOUD_REQUIRE(topology_ != nullptr);
  obs::MetricsRegistry& metrics = services.env->metrics();
  reads_counter_ = &metrics.counter("prefetch.reads");
  hits_counter_ = &metrics.counter("prefetch.hits");
  misses_counter_ = &metrics.counter("prefetch.misses");
  prefetches_counter_ = &metrics.counter("prefetch.issued");
  prefetch_hits_counter_ = &metrics.counter("prefetch.hits_speculative");
  ancestor_cache_hits_counter_ =
      &metrics.counter("prefetch.ancestor_cache_hits");
}

std::vector<aws::SimpleDbService::ItemWithAttributes>
ProvenanceCache::scatter_prefetch_query(
    const std::string& expression,
    const std::vector<std::string>& attribute_filter, std::size_t limit) {
  using Page = std::vector<aws::SimpleDbService::ItemWithAttributes>;
  const std::vector<Page> parts = topology_->scatter<Page>(
      [this, &expression, &attribute_filter, limit](std::size_t,
                                                    const std::string& domain) {
        Page part;
        auto q = services_->sdb.query_with_attributes(domain, expression,
                                                      attribute_filter, limit);
        // Distinguish internal traffic for the cost analysis.
        services_->env->meter().record("sdb", "Query.prefetch", 0, 0);
        if (q) part = std::move(q->items);
        return part;
      });
  Page out;
  for (const Page& part : parts)
    out.insert(out.end(), part.begin(), part.end());
  return out;
}

void ProvenanceCache::touch(const std::string& object,
                            std::map<std::string, Entry>::iterator it) {
  lru_.erase(it->second.lru_it);
  lru_.push_front(object);
  it->second.lru_it = lru_.begin();
}

void ProvenanceCache::insert(const std::string& object, util::SharedBytes data,
                             bool speculative) {
  auto it = entries_.find(object);
  if (it != entries_.end()) {
    it->second.data = std::move(data);
    touch(object, it);
    return;
  }
  lru_.push_front(object);
  Entry entry;
  entry.data = std::move(data);
  entry.lru_it = lru_.begin();
  entry.speculative = speculative;
  entries_.emplace(object, std::move(entry));
  evict_if_needed();
}

void ProvenanceCache::evict_if_needed() {
  while (entries_.size() > config_.cache_capacity) {
    const std::string victim = lru_.back();
    lru_.pop_back();
    entries_.erase(victim);
  }
}

std::vector<std::string> ProvenanceCache::hint_candidates(
    const std::string& object) {
  std::vector<std::string> out;
  // 1. The object's provenance: which process produced it? The data
  //    object's nonce names the item; its INPUT xrefs name producers.
  auto head = services_->s3.head(kDataBucket, object);
  if (!head) return out;
  auto version_it = head->metadata.find(kVersionMetaKey);
  if (version_it == head->metadata.end()) return out;
  const std::string item = object + ":" + version_it->second;

  std::vector<std::string> producers;
  bool from_cache = false;
  if (ancestor_cache_ != nullptr) {
    std::uint32_t version = 0;
    try {
      version = static_cast<std::uint32_t>(std::stoul(version_it->second));
    } catch (...) {
    }
    // An ancestry walk may already hold this fragment: mine it instead of
    // re-reading the item from SimpleDB (cached records are fully resolved,
    // so no spill-marker filtering is needed).
    if (const auto* cached =
            ancestor_cache_->find(pass::ObjectVersion{object, version})) {
      for (const pass::ProvenanceRecord& r : *cached)
        if (r.is_xref() && r.attribute == pass::attr::kInput)
          producers.push_back(r.value_string());
      from_cache = true;
      ++stats_.ancestor_cache_hits;
      ancestor_cache_hits_counter_->add(1);
    }
  }
  if (!from_cache) {
    auto attrs = services_->sdb.get_attributes(
        topology_->domain_for_object(object), item);
    if (!attrs || attrs->empty()) return out;
    auto inputs = attrs->find(pass::attr::kInput);
    if (inputs != attrs->end())
      for (const std::string& v : inputs->second)
        if (v.rfind(kSpillMarker, 0) != 0) producers.push_back(v);
  }

  // 2. Siblings: other items whose INPUT includes the same producer
  //    version -- the rest of the run's outputs.
  std::size_t siblings = 0;
  for (const std::string& producer : producers) {
    if (siblings >= kSiblingLimit) break;
    // A consumer of `producer` can live in any shard: scatter the query.
    const auto siblings_found = scatter_prefetch_query(
        "['INPUT' = '" + producer + "']", {"x-kind"}, kSiblingLimit);
    for (const auto& sibling : siblings_found) {
      std::string sib_object;
      std::uint32_t sib_version = 0;
      if (!parse_item_name(sibling.name, sib_object, sib_version)) continue;
      if (sib_object == object) continue;
      auto kind = sibling.attributes.find("x-kind");
      if (kind == sibling.attributes.end() || kind->second.empty() ||
          *kind->second.begin() != "file")
        continue;
      out.push_back(sib_object);
      if (++siblings >= kSiblingLimit) break;
    }
  }

  // 3. Descendants and co-inputs: files derived from this object (the
  //    researcher's next click is often downstream), and the *other* inputs
  //    of the consuming processes (the rest of an aggregation's fan-in --
  //    e.g. the sibling hits files feeding the same summary).
  const auto children =
      scatter_prefetch_query("['INPUT' = '" + item + "']", {},
                             kDescendantLimit + 4);
  {
    std::size_t descendants = 0;
    for (const auto& child : children) {
      std::string child_object;
      std::uint32_t child_version = 0;
      if (!parse_item_name(child.name, child_object, child_version)) continue;

      // Co-inputs: whatever else this consumer read.
      auto co_inputs = child.attributes.find(pass::attr::kInput);
      if (co_inputs != child.attributes.end()) {
        std::size_t co = 0;
        for (const std::string& v : co_inputs->second) {
          if (co >= kSiblingLimit) break;
          if (v.rfind(kSpillMarker, 0) == 0) continue;
          std::string co_object;
          std::uint32_t co_version = 0;
          if (!parse_item_name(v, co_object, co_version)) continue;
          if (co_object == object ||
              util::starts_with(co_object, "proc/") ||
              util::starts_with(co_object, "pipe/"))
            continue;
          out.push_back(co_object);
          ++co;
        }
      }

      // Descendant files: chase one hop to the consumer's outputs.
      if (descendants >= kDescendantLimit) continue;
      const auto grandchildren = scatter_prefetch_query(
          "['INPUT' = '" + child.name + "']", {"x-kind"}, 4);
      for (const auto& g : grandchildren) {
        std::string g_object;
        std::uint32_t g_version = 0;
        if (!parse_item_name(g.name, g_object, g_version)) continue;
        auto kind = g.attributes.find("x-kind");
        if (kind == g.attributes.end() || kind->second.empty() ||
            *kind->second.begin() != "file")
          continue;
        if (g_object == object) continue;
        out.push_back(g_object);
        if (++descendants >= kDescendantLimit) break;
      }
    }
  }
  return out;
}

util::SharedBytes ProvenanceCache::read(const std::string& object) {
  ++stats_.reads;
  reads_counter_->add(1);
  auto it = entries_.find(object);
  if (it != entries_.end()) {
    ++stats_.hits;
    hits_counter_->add(1);
    if (it->second.speculative) {
      ++stats_.prefetch_hits;
      prefetch_hits_counter_->add(1);
      it->second.speculative = false;
    }
    touch(object, it);
    return it->second.data;
  }

  ++stats_.misses;
  misses_counter_->add(1);
  auto got = services_->s3.get(kDataBucket, object);
  if (!got) return nullptr;
  insert(object, got->data, /*speculative=*/false);

  if (config_.use_provenance_hints) {
    for (const std::string& candidate : hint_candidates(object)) {
      if (entries_.count(candidate) > 0) continue;
      auto warmed = services_->s3.get(kDataBucket, candidate);
      services_->env->meter().record("s3", "GET.prefetch", 0, 0);
      if (!warmed) continue;
      ++stats_.prefetches;
      prefetches_counter_->add(1);
      insert(candidate, warmed->data, /*speculative=*/true);
    }
  }
  return got->data;
}

}  // namespace provcloud::cloudprov

#include "cloudprov/sdb_backend.hpp"

#include <cstring>
#include <map>
#include <optional>

#include "cloudprov/consistency_read.hpp"
#include "cloudprov/serialize.hpp"
#include "cloudprov/session.hpp"
#include "util/md5.hpp"
#include "util/require.hpp"

namespace provcloud::cloudprov {

namespace {
const util::SharedBytes kEmptyBytes = util::make_shared_bytes(util::Bytes{});
}

// ---------------------------------------------------------------------------
// Shared consistency machinery (consistency_read.hpp)
// ---------------------------------------------------------------------------

std::string nonce_for_version(std::uint32_t version) {
  return std::to_string(version);
}

BackendResult<std::vector<pass::ProvenanceRecord>> fetch_sdb_provenance(
    CloudServices& services, const DomainTopology& topology,
    const std::string& object, std::uint32_t version,
    std::uint32_t max_retries) {
  const std::string item = item_name(object, version);
  const std::string& domain = topology.domain_for_object(object);
  aws::SdbItem attrs;
  for (std::uint32_t attempt = 0;; ++attempt) {
    if (attempt > 0)
      charge_read_retry(*services.env);
    auto got = services.sdb.get_attributes(domain, item);
    if (got && !got->empty()) {
      attrs = std::move(*got);
      break;
    }
    if (attempt >= max_retries)
      return backend_error(BackendErrorCode::kConsistencyExhausted,
                           "provenance item never became visible: " + item);
  }
  std::vector<pass::ProvenanceRecord> records = decode_attributes(attrs);
  // Resolve spill pointers ("@s3:<key>").
  for (pass::ProvenanceRecord& r : records) {
    if (r.is_xref()) continue;
    if (r.text().rfind(kSpillMarker, 0) != 0) continue;
    const std::string key = r.text().substr(std::strlen(kSpillMarker));
    bool resolved = false;
    for (std::uint32_t attempt = 0; attempt <= max_retries; ++attempt) {
      if (attempt > 0)
        charge_read_retry(*services.env);
      auto got = services.s3.get(kDataBucket, key);
      if (!got) continue;
      if (is_xref_attribute(r.attribute)) {
        std::string ref_object;
        std::uint32_t ref_version = 0;
        if (parse_item_name(*got->data, ref_object, ref_version)) {
          r = pass::make_xref_record(
              r.attribute, pass::ObjectVersion{ref_object, ref_version});
          resolved = true;
          break;
        }
      }
      r = pass::ProvenanceRecord{r.attribute, *got->data};
      resolved = true;
      break;
    }
    if (!resolved)
      return backend_error(BackendErrorCode::kConsistencyExhausted,
                           "unresolvable provenance overflow object: " + key);
  }
  return records;
}

BackendResult<ReadResult> consistency_checked_read(
    CloudServices& services, const DomainTopology& topology,
    const std::string& object, std::uint32_t max_retries) {
  ReadResult best;
  bool have_any = false;
  for (std::uint32_t attempt = 0; attempt <= max_retries; ++attempt) {
    // Each retry round is a client backoff: charge it as idle wait so the
    // consistency loop's elapsed-time cost is visible on the timeline.
    if (attempt > 0)
      charge_read_retry(*services.env);
    // Round part 1: the data and its nonce from S3.
    auto got = services.s3.get(kDataBucket, object);
    if (!got) continue;  // propagation race
    auto nonce_it = got->metadata.find(kNonceMetaKey);
    if (nonce_it == got->metadata.end()) continue;
    const std::string nonce = nonce_it->second;
    std::uint32_t version = 0;
    try {
      version = static_cast<std::uint32_t>(std::stoul(nonce));
    } catch (...) {
      continue;
    }

    // Round part 2: the provenance item named by the nonce.
    const std::string item = item_name(object, version);
    auto attrs =
        services.sdb.get_attributes(topology.domain_for_object(object), item);
    if (!attrs || attrs->empty()) continue;

    // Round part 3: the MD5(data || nonce) comparison.
    auto md5_it = attrs->find(kMd5Attribute);
    if (md5_it == attrs->end() || md5_it->second.empty()) continue;
    const std::string expected = *md5_it->second.begin();
    const std::string actual = util::md5_with_nonce(*got->data, nonce);

    best.data = got->data;
    best.records = decode_attributes(*attrs);
    best.version = version;
    best.retries = attempt;
    have_any = true;
    if (actual == expected) {
      best.verified = true;
      // Spill pointers resolve through the slower path.
      auto resolved = fetch_sdb_provenance(services, topology, object, version,
                                           max_retries);
      if (resolved) best.records = std::move(*resolved);
      return best;
    }
  }
  if (!have_any)
    return backend_error(BackendErrorCode::kNotFound,
                         "object never became readable: " + object);
  best.verified = false;  // retries exhausted: the pair may be mismatched
  return best;
}

// ---------------------------------------------------------------------------
// SdbBackend
// ---------------------------------------------------------------------------

SdbBackend::SdbBackend(CloudServices& services, SdbBackendConfig config)
    : services_(&services),
      config_(config),
      topology_(DomainTopology::make(
          TopologyConfig{.shard_count = config.shard_count,
                         .parallelism = config.parallelism,
                         .ledger = &services.env->latency_ledger()})) {
  topology_->ensure_domains(services_->sdb);
}

std::unique_ptr<Session> SdbBackend::do_open_session(SessionConfig config) {
  return std::make_unique<Session>(
      *this, std::move(config), &services_->env->latency_ledger(),
      &services_->env->clock(), &services_->env->tracer(),
      &services_->env->metrics());
}

void SdbBackend::commit_group(const std::vector<TicketState*>& group,
                              sim::LatencyLedger* ledger) {
  aws::CloudEnv& env = *services_->env;

  struct PreparedUnit {
    TicketState* ticket = nullptr;
    std::string item;
    const std::string* domain = nullptr;
    std::vector<aws::SdbReplaceableAttribute> attributes;
    /// Causal wave within the group: a batch call may only carry items
    /// whose intra-group ancestors were written by an earlier call, so a
    /// crash between calls can never leave a stored item referencing an
    /// unstored one (the claim Table 1 scores for this architecture).
    std::size_t level = 0;
  };
  std::vector<PreparedUnit> prepared;
  prepared.reserve(group.size());
  std::map<std::string, std::size_t> item_of;  // item name -> prepared index

  // Phase 1, per close in submit order: spill oversized values to S3 and
  // encode the provenance attributes. No SimpleDB traffic yet.
  for (TicketState* ticket : group) {
    const pass::FlushUnit& unit = ticket->unit;
    env.failures().crash_point("sdb.store.begin");
    SdbEncoding enc = encode_unit_as_attributes(unit);
    {
      // Spill PUTs are exclusive to this close: in-flight closes overlap
      // them, so they land on the ticket's own timeline.
      std::optional<sim::LatencyLedger::ScopedTimeline> bind;
      if (ledger != nullptr) bind.emplace(*ledger, ticket->timeline);
      for (std::size_t index : enc.spilled_indexes) {
        const pass::ProvenanceRecord& r = unit.records[index];
        const std::string key = overflow_key(unit.object, unit.version, index);
        auto put = services_->s3.put(kDataBucket, key, r.value_string());
        PROVCLOUD_REQUIRE_MSG(put.has_value(),
                              "overflow PUT failed: " + put.error().message);
        env.failures().crash_point("sdb.store.after_overflow_put");
      }
    }
    const std::string nonce = nonce_for_version(unit.version);
    const util::SharedBytes data =
        unit.data != nullptr ? unit.data : kEmptyBytes;
    enc.attributes.push_back(aws::SdbReplaceableAttribute{
        kMd5Attribute, util::md5_with_nonce(*data, nonce), true});

    PreparedUnit p;
    p.ticket = ticket;
    p.item = item_name(unit.object, unit.version);
    p.domain = &topology_->domain_for_object(unit.object);
    p.attributes = std::move(enc.attributes);
    for (const pass::ProvenanceRecord& r : unit.records) {
      if (!r.is_xref()) continue;
      auto dep = item_of.find(item_name(r.xref().object, r.xref().version));
      if (dep != item_of.end())
        p.level = std::max(p.level, prepared[dep->second].level + 1);
    }
    auto [slot, inserted] = item_of.emplace(p.item, prepared.size());
    if (!inserted) {
      // The same (object, version) submitted twice in one group: the
      // writes must not share a batch call (duplicate item names are
      // rejected) and the later submit must win, so it rides a later wave.
      p.level = std::max(p.level, prepared[slot->second].level + 1);
      slot->second = prepared.size();
    }
    prepared.push_back(std::move(p));
  }

  // Phase 2: provenance into the shard domains. Batched path: the whole
  // group coalesces into BatchPutAttributes calls of up to batch_size
  // (<= 25) items per shard domain, wave by wave -- the cross-close group
  // commit. Legacy path (batch_size == 1): the paper's PutAttributes
  // chunking, one item at a time in submit (causal) order.
  if (config_.batch_size <= 1) {
    for (PreparedUnit& p : prepared) {
      for (std::size_t start = 0; start < p.attributes.size();
           start += aws::kSdbMaxAttrsPerCall) {
        const std::size_t end = std::min(start + aws::kSdbMaxAttrsPerCall,
                                         p.attributes.size());
        std::vector<aws::SdbReplaceableAttribute> chunk(
            p.attributes.begin() + static_cast<std::ptrdiff_t>(start),
            p.attributes.begin() + static_cast<std::ptrdiff_t>(end));
        auto put = services_->sdb.put_attributes(*p.domain, p.item, chunk);
        PROVCLOUD_REQUIRE_MSG(put.has_value(),
                              "PutAttributes failed: " + put.error().message);
        env.failures().crash_point("sdb.store.mid_putattrs");
      }
    }
  } else {
    const std::size_t batch_limit =
        std::min(config_.batch_size, aws::kSdbMaxItemsPerBatch);
    std::size_t max_level = 0;
    for (const PreparedUnit& p : prepared)
      max_level = std::max(max_level, p.level);
    env.metrics().histogram("sdb.causal_waves").record(max_level + 1);
    for (std::size_t level = 0; level <= max_level; ++level) {
      std::map<std::string, std::vector<PreparedUnit*>> by_domain;
      std::size_t wave_items = 0;
      for (PreparedUnit& p : prepared)
        if (p.level == level) {
          by_domain[*p.domain].push_back(&p);
          ++wave_items;
        }
      obs::Span wave_span(&env.tracer(), "sdb.wave", "sdb");
      wave_span.arg("level", static_cast<std::uint64_t>(level));
      wave_span.arg("items", static_cast<std::uint64_t>(wave_items));
      wave_span.arg("domains", static_cast<std::uint64_t>(by_domain.size()));
      for (auto& [domain, items] : by_domain) {
        for (std::size_t start = 0; start < items.size();
             start += batch_limit) {
          const std::size_t end =
              std::min(start + batch_limit, items.size());
          std::vector<aws::SdbBatchEntry> entries;
          entries.reserve(end - start);
          for (std::size_t i = start; i < end; ++i)
            entries.push_back(aws::SdbBatchEntry{
                items[i]->item, std::move(items[i]->attributes)});
          auto put = services_->sdb.batch_put_attributes(domain, entries);
          PROVCLOUD_REQUIRE_MSG(
              put.has_value(),
              "BatchPutAttributes failed: " + put.error().message);
          PROVCLOUD_REQUIRE_MSG(put->ok(),
                                "BatchPutAttributes rejected item: " +
                                    put->failed.front().error.message);
          env.failures().crash_point("sdb.store.mid_putattrs");
        }
      }
    }
  }

  // *** The atomicity hole, now group-wide: a crash here leaves one orphan
  // provenance item per close in the group. ***
  env.failures().crash_point("sdb.store.between_prov_and_data");

  // Phase 3: data to S3 in submit order, the nonce riding as metadata.
  // Transient pnodes (processes, pipes) have no data: their provenance
  // lives only in SimpleDB, exactly as in the paper (its Raw column counts
  // file PUTs while its item count includes every transient version).
  for (PreparedUnit& p : prepared) {
    const pass::FlushUnit& unit = p.ticket->unit;
    if (unit.kind == pass::PnodeKind::kFile) {
      const util::SharedBytes data =
          unit.data != nullptr ? unit.data : kEmptyBytes;
      aws::S3Metadata meta;
      meta[kNonceMetaKey] = nonce_for_version(unit.version);
      meta[kVersionMetaKey] = std::to_string(unit.version);
      std::optional<sim::LatencyLedger::ScopedTimeline> bind;
      if (ledger != nullptr) bind.emplace(*ledger, p.ticket->timeline);
      auto put = services_->s3.put_shared(kDataBucket, unit.object, data, meta);
      PROVCLOUD_REQUIRE_MSG(put.has_value(),
                            "data PUT failed: " + put.error().message);
    }
    p.ticket->done = true;
    env.failures().crash_point("sdb.store.after_data");
  }
}

BackendResult<ReadResult> SdbBackend::read(const std::string& object,
                                           std::uint32_t max_retries) {
  return consistency_checked_read(*services_, *topology_, object, max_retries);
}

BackendResult<std::vector<pass::ProvenanceRecord>> SdbBackend::get_provenance(
    const std::string& object, std::uint32_t version) {
  return fetch_sdb_provenance(*services_, *topology_, object, version, 64);
}

void SdbBackend::recover() {
  // "On restart, the client could recover by scanning SimpleDB for 'orphan
  // provenance' and remove provenance of objects that do not exist. However,
  // this is an inelegant solution as it involves a scan of the entire
  // SimpleDB domain" -- which is exactly what this is.
  last_orphans_ = 0;
  for (const std::string& domain : topology_->domains()) {
    std::string token;
    for (;;) {
      auto page =
          services_->sdb.query(domain, "", aws::kSdbMaxQueryResults, token);
      if (!page) break;
      for (const std::string& item : page->item_names) {
        std::string object;
        std::uint32_t version = 0;
        if (!parse_item_name(item, object, version)) continue;

        // Transient pnodes have no data object by design: never orphans.
        auto attrs = services_->sdb.get_attributes(domain, item, {"x-kind"});
        if (attrs && !attrs->empty()) {
          auto kind_it = attrs->find("x-kind");
          if (kind_it != attrs->end() && !kind_it->second.empty() &&
              *kind_it->second.begin() != "file")
            continue;
        }

        // Retry HEAD a few times so a propagation race is not mistaken for
        // a missing object.
        bool data_present = false;
        std::uint32_t data_version = 0;
        for (int attempt = 0; attempt < 8; ++attempt) {
          auto head = services_->s3.head(kDataBucket, object);
          if (!head) continue;
          auto v = head->metadata.find(kVersionMetaKey);
          std::uint32_t seen = 0;
          if (v != head->metadata.end()) {
            try {
              seen = static_cast<std::uint32_t>(std::stoul(v->second));
            } catch (...) {
            }
          }
          data_version = std::max(data_version, seen);
          if (seen >= version) {
            data_present = true;
            break;
          }
        }
        if (!data_present) {
          // Provenance for a version whose data never arrived: orphan.
          auto del = services_->sdb.delete_attributes(domain, item, {});
          if (del) ++last_orphans_;
        }
      }
      if (!page->next_token) break;
      token = *page->next_token;
    }
  }
}

std::unique_ptr<ProvenanceBackend> make_sdb_backend(CloudServices& services) {
  return std::make_unique<SdbBackend>(services);
}

std::unique_ptr<ProvenanceBackend> make_sdb_backend(
    CloudServices& services, const SdbBackendConfig& config) {
  return std::make_unique<SdbBackend>(services, config);
}

}  // namespace provcloud::cloudprov

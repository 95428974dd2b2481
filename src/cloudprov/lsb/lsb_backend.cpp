#include "cloudprov/lsb/lsb_backend.hpp"

#include <algorithm>
#include <set>

#include "cloudprov/consistency_read.hpp"
#include "cloudprov/session.hpp"
#include "util/require.hpp"

namespace provcloud::cloudprov {

namespace {

const util::SharedBytes kEmptyBytes = util::make_shared_bytes(util::Bytes{});

/// Packed posting values per index chunk item ("p0" .. "p7"): ~12 postings
/// per value, so one BatchPutAttributes call (25 items) checkpoints ~2400
/// closes -- the SimpleDB side of the amortization.
constexpr std::size_t kValuesPerChunkItem = 8;

/// One cleaner pass reads and rewrites at most this many segment caps of
/// bytes, which also bounds the decoded victims it holds in memory.
constexpr std::size_t kCleanerBudgetSegments = 4;

std::uint64_t parse_meta(const aws::SdbItem& item, const char* attr,
                         std::uint64_t fallback) {
  auto it = item.find(attr);
  if (it == item.end() || it->second.empty()) return fallback;
  try {
    return std::stoull(*it->second.begin());
  } catch (...) {
    return fallback;
  }
}

}  // namespace

LsbBackend::LsbBackend(CloudServices& services, LsbBackendConfig config)
    : services_(&services), config_(config) {
  config_.segment_cap_bytes = std::max<std::size_t>(config_.segment_cap_bytes,
                                                    util::kKiB);
  config_.index_publish_entries =
      std::max<std::size_t>(config_.index_publish_entries, 1);
  topology_ = DomainTopology::make(
      TopologyConfig{.shard_count = config_.shard_count,
                     .base_domain = lsb::kIndexDomainBase,
                     .parallelism = config_.parallelism,
                     .ledger = &services.env->latency_ledger()});
  topology_->ensure_domains(services_->sdb);

  obs::MetricsRegistry& metrics = services_->env->metrics();
  seal_count_ = &metrics.counter("lsb.seals");
  seal_bytes_ = &metrics.counter("lsb.seal.bytes");
  publish_count_ = &metrics.counter("lsb.index.publishes");
  publish_postings_ = &metrics.counter("lsb.index.postings");
  compact_count_ = &metrics.counter("lsb.compactions");
  compact_reclaimed_bytes_ = &metrics.counter("lsb.compact.reclaimed_bytes");
  compact_rewritten_bytes_ = &metrics.counter("lsb.compact.rewritten_bytes");
  reclaimable_gauge_ = &metrics.gauge("lsb.reclaimable_bytes");
  seal_entries_ = &metrics.histogram("lsb.seal.closes");
}

std::unique_ptr<Session> LsbBackend::do_open_session(SessionConfig config) {
  return std::make_unique<Session>(
      *this, std::move(config), &services_->env->latency_ledger(),
      &services_->env->clock(), &services_->env->tracer(),
      &services_->env->metrics());
}

// ---------------------------------------------------------------------------
// Write path: seal the group as immutable segments
// ---------------------------------------------------------------------------

void LsbBackend::commit_group(const std::vector<TicketState*>& group,
                              sim::LatencyLedger* /*ledger*/) {
  // Every call the group shares (the segment PUTs, a due index checkpoint,
  // a due cleaner pass) stays on the daemon's group timeline: amortized
  // cost lands on every rider, critical-path-merged at retire.
  aws::CloudEnv& env = *services_->env;
  if (group.empty()) return;
  env.failures().crash_point("lsb.seal.begin");

  // Encode each close up front; submit order is causal order, and the log
  // preserves it, so a crash can only ever lose a suffix of the group.
  struct Encoded {
    TicketState* ticket = nullptr;
    lsb::SegmentEntry entry;
    std::string bytes;
  };
  std::vector<Encoded> closes;
  closes.reserve(group.size());
  for (TicketState* ticket : group) {
    const pass::FlushUnit& unit = ticket->unit;
    Encoded e;
    e.ticket = ticket;
    e.entry.id = pass::ObjectVersion{unit.object, unit.version};
    e.entry.kind = unit.kind;
    if (unit.kind == pass::PnodeKind::kFile)
      e.entry.data = unit.data != nullptr ? unit.data : kEmptyBytes;
    e.entry.records = unit.records;
    e.bytes = lsb::encode_entry(e.entry);
    closes.push_back(std::move(e));
  }

  // Seal cap-sized runs, one S3 PUT each. Each run's tickets are done the
  // moment their segment object lands: data and provenance of every close
  // in it became durable in that single call.
  std::size_t start = 0;
  while (start < closes.size()) {
    std::size_t end = start;
    std::size_t run_bytes = 0;
    while (end < closes.size() &&
           (end == start ||
            run_bytes + closes[end].bytes.size() <=
                config_.segment_cap_bytes)) {
      run_bytes += closes[end].bytes.size();
      ++end;
    }

    std::uint64_t id = 0;
    {
      std::lock_guard<std::mutex> lk(mu_);
      id = next_segment_id_++;
      unlisted_.insert(id);
    }
    std::string blob = lsb::segment_header(id);
    std::vector<lsb::Posting> postings;
    postings.reserve(end - start);
    for (std::size_t i = start; i < end; ++i) {
      const Encoded& e = closes[i];
      lsb::EntryLocation loc;
      loc.segment = id;
      loc.offset = blob.size();
      loc.length = e.bytes.size();
      loc.data_bytes = e.entry.data != nullptr ? e.entry.data->size() : 0;
      blob += e.bytes;
      postings.emplace_back(e.entry.id, loc);
    }

    obs::Span span(&env.tracer(), "lsb.seal", "lsb");
    span.arg("segment", id);
    span.arg("closes", static_cast<std::uint64_t>(end - start));
    span.arg("bytes", static_cast<std::uint64_t>(blob.size()));
    auto put = services_->s3.put(lsb::kSegmentBucket, lsb::segment_key(id),
                                 blob);
    PROVCLOUD_REQUIRE_MSG(put.has_value(),
                          "segment PUT failed: " + put.error().message);
    env.failures().crash_point("lsb.seal.after_put");

    for (std::size_t i = start; i < end; ++i) closes[i].ticket->done = true;
    {
      std::lock_guard<std::mutex> lk(mu_);
      unlisted_.erase(id);
      SegmentInfo& info = segments_[id];
      info.bytes = blob.size();
      info.entries = end - start;
      for (const lsb::Posting& p : postings) index_entry_locked(p.first,
                                                                p.second);
      std::vector<lsb::Posting>& pending = pending_postings_[id];
      pending.insert(pending.end(), postings.begin(), postings.end());
      pending_posting_count_ += postings.size();
      hydrated_ = true;
    }
    seal_count_->add(1);
    seal_bytes_->add(blob.size());
    seal_entries_->record(end - start);
    start = end;
  }

  // Daemon-role maintenance, amortized across the group: checkpoint the
  // index when enough postings accumulated, clean when enough bytes became
  // reclaimable.
  bool publish = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    publish = pending_posting_count_ >= config_.index_publish_entries;
  }
  if (publish) publish_index();
  bool clean = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    clean = compact_due_locked();
  }
  if (clean) compact();
}

void LsbBackend::index_entry_locked(const pass::ObjectVersion& id,
                                    const lsb::EntryLocation& loc) {
  auto [it, inserted] = index_.try_emplace(id, loc);
  if (!inserted) {
    lsb::EntryLocation& cur = it->second;
    if (loc == cur) return;  // idempotent replay
    // The same (object, version) written twice -- a duplicate submit in one
    // group, or out-of-order replay. The later copy in the log wins; the
    // loser's whole entry is garbage. A superseded version's data bytes
    // were already charged where `cur` lives: move that charge to the
    // winner, so every byte is counted exactly once.
    const bool newer =
        loc.segment > cur.segment ||
        (loc.segment == cur.segment && loc.offset > cur.offset);
    if (!newer) {
      add_garbage_locked(loc.segment, loc.length);
      return;
    }
    auto latest = latest_.find(id.object);
    const bool superseded =
        latest != latest_.end() && latest->second > id.version;
    add_garbage_locked(cur.segment,
                       cur.length - (superseded ? cur.data_bytes : 0));
    if (superseded) add_garbage_locked(loc.segment, loc.data_bytes);
    cur = loc;
    return;
  }
  auto [latest, first] = latest_.try_emplace(id.object, id.version);
  if (first) return;
  if (id.version > latest->second) {
    // The data bytes of the previous latest version just became garbage
    // (only the newest version's data is retrievable, as in Arch 1-3; its
    // provenance records stay live forever).
    auto old = index_.find(pass::ObjectVersion{id.object, latest->second});
    if (old != index_.end())
      add_garbage_locked(old->second.segment, old->second.data_bytes);
    latest->second = id.version;
  } else if (id.version < latest->second) {
    // Indexed behind an already-known newer version (rebuild order).
    add_garbage_locked(loc.segment, loc.data_bytes);
  }
}

void LsbBackend::add_garbage_locked(std::uint64_t segment,
                                    std::uint64_t bytes) {
  if (bytes == 0) return;
  segments_[segment].garbage_bytes += bytes;
  reclaimable_bytes_ += bytes;
  reclaimable_gauge_->set(static_cast<std::int64_t>(reclaimable_bytes_));
}

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

BackendResult<ReadResult> LsbBackend::fetch_entry(const pass::ObjectVersion& id,
                                                  std::uint32_t max_retries) {
  for (std::uint32_t attempt = 0; attempt <= max_retries; ++attempt) {
    if (attempt > 0) charge_read_retry(*services_->env);
    // Re-resolve the location every round: the cleaner may have moved the
    // entry (and deleted its old segment) since the previous attempt.
    lsb::EntryLocation loc;
    {
      std::lock_guard<std::mutex> lk(mu_);
      auto it = index_.find(id);
      if (it == index_.end())
        return backend_error(BackendErrorCode::kNotFound,
                             "no such version in the segment index: " +
                                 id.object + "@" + std::to_string(id.version));
      loc = it->second;
    }
    auto got = services_->s3.get_range(lsb::kSegmentBucket,
                                       lsb::segment_key(loc.segment),
                                       loc.offset, loc.length);
    if (!got) continue;  // propagation race or mid-compaction delete
    if (got->data == nullptr || got->data->size() != loc.length) continue;
    auto entry = lsb::decode_entry(*got->data);
    if (!entry) continue;
    ReadResult out;
    out.data = entry->data != nullptr ? entry->data : kEmptyBytes;
    out.records = std::move(entry->records);
    out.version = id.version;
    out.retries = attempt;
    out.verified = true;  // entries are immutable and self-contained
    return out;
  }
  return backend_error(BackendErrorCode::kConsistencyExhausted,
                       "segment entry never became readable: " + id.object +
                           "@" + std::to_string(id.version));
}

BackendResult<ReadResult> LsbBackend::read(const std::string& object,
                                           std::uint32_t max_retries) {
  std::uint32_t version = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = latest_.find(object);
    if (it == latest_.end())
      return backend_error(BackendErrorCode::kNotFound,
                           "object never stored: " + object);
    version = it->second;
  }
  return fetch_entry(pass::ObjectVersion{object, version}, max_retries);
}

BackendResult<std::vector<pass::ProvenanceRecord>> LsbBackend::get_provenance(
    const std::string& object, std::uint32_t version) {
  auto got = fetch_entry(pass::ObjectVersion{object, version}, 64);
  if (!got) return util::Unexpected(got.error());
  return std::move(got->records);
}

// ---------------------------------------------------------------------------
// Index checkpointing
// ---------------------------------------------------------------------------

void LsbBackend::publish_index() {
  aws::CloudEnv& env = *services_->env;
  std::map<std::uint64_t, std::vector<lsb::Posting>> batch;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (pending_postings_.empty()) return;
    batch.swap(pending_postings_);
    pending_posting_count_ = 0;
  }
  // A crash from here on loses only the in-memory buffer: the segments are
  // durable and above indexed-to, so recover() replays and republishes
  // them. The checkpoint can lag; it can never tear.
  env.failures().crash_point("lsb.index.begin");
  std::uint64_t postings = 0;
  for (const auto& [id, ps] : batch) postings += ps.size();
  obs::Span span(&env.tracer(), "lsb.index.publish", "lsb");
  span.arg("segments", static_cast<std::uint64_t>(batch.size()));
  span.arg("postings", postings);

  publish_postings(batch, "lsb.index.mid_publish");
  env.failures().crash_point("lsb.index.after_publish");

  // Advance the durable watermark only after every chunk item landed.
  std::uint64_t mark = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    mark = std::max(indexed_to_, batch.rbegin()->first);
  }
  write_meta(lsb::kIndexedToAttr, mark);
  env.failures().crash_point("lsb.index.after_mark");
  {
    std::lock_guard<std::mutex> lk(mu_);
    indexed_to_ = std::max(indexed_to_, mark);
  }
  publish_count_->add(1);
  publish_postings_->add(postings);
}

void LsbBackend::publish_postings(
    const std::map<std::uint64_t, std::vector<lsb::Posting>>& by_segment,
    const char* crash_name) {
  aws::CloudEnv& env = *services_->env;
  // Pack each segment's postings into chunk items; identical input always
  // repacks identically, so a post-crash republish overwrites the surviving
  // chunk items with the same bytes (replace semantics).
  std::map<std::string, std::vector<aws::SdbBatchEntry>> by_domain;
  std::map<std::uint64_t, std::uint64_t> chunk_counts;
  for (const auto& [segment, postings] : by_segment) {
    const std::vector<std::string> values = lsb::pack_postings(postings);
    std::uint64_t chunks = 0;
    for (std::size_t v = 0; v < values.size(); v += kValuesPerChunkItem) {
      const std::string item = lsb::index_item_name(segment, chunks++);
      aws::SdbBatchEntry entry;
      entry.item = item;
      const std::size_t end =
          std::min(v + kValuesPerChunkItem, values.size());
      for (std::size_t j = v; j < end; ++j)
        entry.attrs.push_back(aws::SdbReplaceableAttribute{
            "p" + std::to_string(j - v), values[j], true});
      by_domain[topology_->domain_for_item(item)].push_back(std::move(entry));
    }
    chunk_counts[segment] = chunks;
  }

  topology_->for_each_domain([&](std::size_t, const std::string& domain) {
    auto it = by_domain.find(domain);
    if (it == by_domain.end()) return;
    const std::vector<aws::SdbBatchEntry>& entries = it->second;
    for (std::size_t start = 0; start < entries.size();
         start += aws::kSdbMaxItemsPerBatch) {
      const std::size_t end =
          std::min(start + aws::kSdbMaxItemsPerBatch, entries.size());
      std::vector<aws::SdbBatchEntry> call(
          entries.begin() + static_cast<std::ptrdiff_t>(start),
          entries.begin() + static_cast<std::ptrdiff_t>(end));
      auto put = services_->sdb.batch_put_attributes(domain, call);
      PROVCLOUD_REQUIRE_MSG(
          put.has_value(),
          "index BatchPutAttributes failed: " + put.error().message);
      PROVCLOUD_REQUIRE_MSG(put->ok(),
                            "index BatchPutAttributes rejected item: " +
                                put->failed.front().error.message);
      env.failures().crash_point(crash_name);
    }
  });

  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [segment, chunks] : chunk_counts) {
    SegmentInfo& info = segments_[segment];
    info.chunk_items = std::max(info.chunk_items, chunks);
  }
}

void LsbBackend::write_meta(const char* attr, std::uint64_t value) {
  auto put = services_->sdb.put_attributes(
      topology_->domains().front(), lsb::kMetaItem,
      {aws::SdbReplaceableAttribute{attr, std::to_string(value), true}});
  PROVCLOUD_REQUIRE_MSG(put.has_value(),
                        "meta PutAttributes failed: " + put.error().message);
}

// ---------------------------------------------------------------------------
// Cleaner
// ---------------------------------------------------------------------------

bool LsbBackend::compact_due_locked() const {
  // Below one segment cap of garbage a pass cannot free a segment's worth.
  return config_.auto_compact &&
         reclaimable_bytes_ >= config_.segment_cap_bytes;
}

std::size_t LsbBackend::compact() {
  aws::CloudEnv& env = *services_->env;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (reclaimable_bytes_ == 0) return 0;  // every segment is all-live
  }
  // Cleaner precondition: every sealed segment checkpointed, so candidates
  // are exactly the indexed (never the open or unpublished) segments.
  publish_index();

  std::vector<std::uint64_t> victims;
  {
    std::lock_guard<std::mutex> lk(mu_);
    // Garbage-richest first (fewest live bytes copied per byte reclaimed),
    // ties older-first via stable sort. A segment with no garbage is never
    // a candidate: copying it reclaims nothing.
    struct Candidate {
      std::uint64_t id;
      double ratio;
      std::uint64_t cost;  // bytes the pass reads plus bytes it rewrites
    };
    std::vector<Candidate> candidates;
    for (const auto& [id, info] : segments_) {
      if (id < delete_to_) continue;  // crash debris, purged by recover()
      if (id > indexed_to_) break;
      if (info.garbage_bytes == 0 || info.bytes == 0) continue;
      const std::uint64_t garbage = std::min(info.garbage_bytes, info.bytes);
      candidates.push_back({id,
                            static_cast<double>(garbage) /
                                static_cast<double>(info.bytes),
                            info.bytes + (info.bytes - garbage)});
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Candidate& a, const Candidate& b) {
                       return a.ratio > b.ratio;
                     });
    // The best victim is always taken, so a pass makes progress whatever
    // the sizes; the rest join while the pass stays within its budget.
    const std::uint64_t budget =
        kCleanerBudgetSegments * config_.segment_cap_bytes;
    std::uint64_t planned = 0;
    for (const Candidate& c : candidates) {
      if (!victims.empty() && planned + c.cost > budget) continue;
      victims.push_back(c.id);
      planned += c.cost;
    }
    std::sort(victims.begin(), victims.end());
  }
  if (victims.empty()) return 0;
  env.failures().crash_point("lsb.compact.begin");
  obs::Span span(&env.tracer(), "lsb.compact", "lsb");
  span.arg("victims", static_cast<std::uint64_t>(victims.size()));
  span.arg("from", victims.front());
  span.arg("to", victims.back());

  // Collect the victims' live entries, dropping data bytes of superseded
  // file versions. Records are copied verbatim: ancestry walks are
  // bit-identical across a cleaner pass.
  std::vector<lsb::SegmentEntry> live;
  std::uint64_t victim_bytes = 0;
  for (std::uint64_t id : victims) {
    aws::AwsResult<aws::S3GetResult> got =
        services_->s3.get(lsb::kSegmentBucket, lsb::segment_key(id));
    for (std::uint32_t attempt = 0; !got && attempt < 64; ++attempt) {
      charge_read_retry(env);
      got = services_->s3.get(lsb::kSegmentBucket, lsb::segment_key(id));
    }
    PROVCLOUD_REQUIRE_MSG(got.has_value(),
                          "cleaner GET failed: " + lsb::segment_key(id));
    auto seg = lsb::decode_segment(*got->data);
    PROVCLOUD_REQUIRE_MSG(seg.has_value() && seg->id == id,
                          "undecodable segment: " + lsb::segment_key(id));
    std::lock_guard<std::mutex> lk(mu_);
    victim_bytes += got->data->size();
    for (lsb::PlacedEntry& placed : seg->entries) {
      auto it = index_.find(placed.entry.id);
      if (it == index_.end() || it->second.segment != id ||
          it->second.offset != placed.offset)
        continue;  // superseded by a later copy: dead, not rewritten
      auto latest = latest_.find(placed.entry.id.object);
      const bool is_latest = latest != latest_.end() &&
                             latest->second == placed.entry.id.version;
      if (!is_latest) placed.entry.data = nullptr;
      live.push_back(std::move(placed.entry));
    }
  }

  // Rewrite the survivors into fresh segments (higher ids), exactly like a
  // seal, and update the in-memory index only once each new object is
  // durable. Until the watermark advances, both copies exist: a crash
  // anywhere in between recovers to a consistent (if untrimmed) log.
  std::map<std::uint64_t, std::vector<lsb::Posting>> new_postings;
  std::uint64_t new_max = 0;
  std::uint64_t new_bytes = 0;
  std::size_t start = 0;
  while (start < live.size()) {
    std::vector<std::string> encoded;
    std::size_t end = start;
    std::size_t run_bytes = 0;
    while (end < live.size()) {
      std::string bytes = lsb::encode_entry(live[end]);
      if (end != start && run_bytes + bytes.size() > config_.segment_cap_bytes)
        break;
      run_bytes += bytes.size();
      encoded.push_back(std::move(bytes));
      ++end;
    }
    std::uint64_t id = 0;
    {
      std::lock_guard<std::mutex> lk(mu_);
      id = next_segment_id_++;
      unlisted_.insert(id);
    }
    std::string blob = lsb::segment_header(id);
    std::vector<lsb::Posting> postings;
    for (std::size_t i = start; i < end; ++i) {
      lsb::EntryLocation loc;
      loc.segment = id;
      loc.offset = blob.size();
      loc.length = encoded[i - start].size();
      loc.data_bytes =
          live[i].data != nullptr ? live[i].data->size() : 0;
      blob += encoded[i - start];
      postings.emplace_back(live[i].id, loc);
    }
    auto put = services_->s3.put(lsb::kSegmentBucket, lsb::segment_key(id),
                                 blob);
    PROVCLOUD_REQUIRE_MSG(put.has_value(),
                          "cleaner PUT failed: " + put.error().message);
    env.failures().crash_point("lsb.compact.after_put");
    {
      std::lock_guard<std::mutex> lk(mu_);
      unlisted_.erase(id);
      SegmentInfo& info = segments_[id];
      info.bytes = blob.size();
      info.entries = end - start;
      for (const lsb::Posting& p : postings) index_[p.first] = p.second;
    }
    new_postings[id] = std::move(postings);
    new_max = id;
    new_bytes += blob.size();
    seal_count_->add(1);
    seal_bytes_->add(blob.size());
    start = end;
  }
  if (!new_postings.empty())
    publish_postings(new_postings, "lsb.compact.mid_republish");

  // One durable watermark write retires the victims. (indexed-to may only
  // advance when no concurrent seal left unpublished postings in between.)
  // delete-to may only cover the contiguous dead prefix of the log:
  // garbage-ratio selection can pick mid-log victims, and a watermark past
  // a surviving segment would let recover() purge live data. It stops at
  // the first segment that survives this pass (earlier passes' victims are
  // already gone from segments_), or at an unlisted id, whose seal may
  // still land. Mid-log victims are still trimmed below -- a crashed trim
  // leaves at worst an orphan segment whose entries replay as
  // already-superseded duplicates.
  std::uint64_t mark_indexed = 0;
  std::uint64_t mark_delete = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    mark_indexed = (pending_postings_.empty() && new_max > 0)
                       ? std::max(indexed_to_, new_max)
                       : indexed_to_;
    mark_delete = unlisted_.empty() ? next_segment_id_ : *unlisted_.begin();
    for (auto it = segments_.lower_bound(delete_to_);
         it != segments_.end() && it->first < mark_delete; ++it) {
      if (!std::binary_search(victims.begin(), victims.end(), it->first)) {
        mark_delete = it->first;
        break;
      }
    }
    mark_delete = std::max(mark_delete, delete_to_);
  }
  auto put = services_->sdb.put_attributes(
      topology_->domains().front(), lsb::kMetaItem,
      {aws::SdbReplaceableAttribute{lsb::kIndexedToAttr,
                                    std::to_string(mark_indexed), true},
       aws::SdbReplaceableAttribute{lsb::kDeleteToAttr,
                                    std::to_string(mark_delete), true}});
  PROVCLOUD_REQUIRE_MSG(put.has_value(),
                        "watermark PutAttributes failed: " +
                            put.error().message);
  env.failures().crash_point("lsb.compact.after_watermark");

  // Trim: the victims' chunk items and objects. All dead already; deletes
  // are idempotent and recover() finishes a crashed trim.
  std::map<std::uint64_t, std::uint64_t> victim_chunks;
  {
    std::lock_guard<std::mutex> lk(mu_);
    indexed_to_ = std::max(indexed_to_, mark_indexed);
    delete_to_ = std::max(delete_to_, mark_delete);
    for (std::uint64_t id : victims) {
      auto it = segments_.find(id);
      if (it != segments_.end()) victim_chunks[id] = it->second.chunk_items;
    }
  }
  for (std::uint64_t id : victims) {
    for (std::uint64_t c = 0; c < victim_chunks[id]; ++c) {
      const std::string item = lsb::index_item_name(id, c);
      auto del = services_->sdb.delete_attributes(
          topology_->domain_for_item(item), item, {});
      PROVCLOUD_REQUIRE_MSG(del.has_value(),
                            "chunk delete failed: " + del.error().message);
      env.failures().crash_point("lsb.compact.mid_delete");
    }
    auto del = services_->s3.del(lsb::kSegmentBucket, lsb::segment_key(id));
    PROVCLOUD_REQUIRE_MSG(del.has_value(),
                          "segment delete failed: " + del.error().message);
    env.failures().crash_point("lsb.compact.mid_delete");
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (std::uint64_t id : victims) {
      auto it = segments_.find(id);
      if (it == segments_.end()) continue;
      reclaimable_bytes_ -=
          std::min(reclaimable_bytes_, it->second.garbage_bytes);
      segments_.erase(it);
    }
    reclaimable_gauge_->set(static_cast<std::int64_t>(reclaimable_bytes_));
  }
  env.failures().crash_point("lsb.compact.end");
  compact_count_->add(1);
  compact_rewritten_bytes_->add(new_bytes);
  if (victim_bytes > new_bytes)
    compact_reclaimed_bytes_->add(victim_bytes - new_bytes);
  span.arg("rewritten_bytes", new_bytes);
  span.arg("reclaimed_bytes",
           victim_bytes > new_bytes ? victim_bytes - new_bytes : 0);
  return victims.size();
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

void LsbBackend::recover() {
  bool fresh = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    fresh = !hydrated_;
  }
  if (fresh) rebuild_from_index();
  replay_orphans();
  std::lock_guard<std::mutex> lk(mu_);
  hydrated_ = true;
}

void LsbBackend::rebuild_from_index() {
  // Durable watermarks first (a missing meta item is a store no checkpoint
  // ever reached: everything is an orphan replay).
  auto meta = services_->sdb.get_attributes(topology_->domains().front(),
                                            lsb::kMetaItem);
  std::uint64_t indexed_to = 0;
  std::uint64_t delete_to = 1;
  if (meta) {
    indexed_to = parse_meta(*meta, lsb::kIndexedToAttr, 0);
    delete_to = parse_meta(*meta, lsb::kDeleteToAttr, 1);
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    indexed_to_ = std::max(indexed_to_, indexed_to);
    delete_to_ = std::max(delete_to_, delete_to);
    next_segment_id_ = std::max({next_segment_id_, indexed_to + 1, delete_to});
  }

  // Checkpointed postings from every shard domain. Segments above the
  // indexed-to watermark are skipped even when some of their chunks landed
  // (crashed mid-publish): the log is their truth, replay_orphans re-reads
  // and republishes them whole. Chunks below delete-to are crash debris
  // from a trim; finish the delete.
  topology_->for_each_domain([&](std::size_t, const std::string& domain) {
    std::string token;
    for (;;) {
      auto page = services_->sdb.query(domain, "", aws::kSdbMaxQueryResults,
                                       token);
      if (!page) break;
      for (const std::string& item : page->item_names) {
        std::uint64_t segment = 0;
        std::uint64_t chunk = 0;
        if (!lsb::parse_index_item_name(item, segment, chunk)) continue;
        if (segment < delete_to) {
          services_->sdb.delete_attributes(domain, item, {});
          continue;
        }
        if (segment > indexed_to) continue;
        auto attrs = services_->sdb.get_attributes(domain, item);
        if (!attrs) continue;
        std::vector<lsb::Posting> postings;
        for (const auto& [name, values] : *attrs)
          for (const std::string& value : values)
            PROVCLOUD_REQUIRE_MSG(
                lsb::unpack_postings(value, segment, postings),
                "corrupt index chunk: " + item);
        std::lock_guard<std::mutex> lk(mu_);
        SegmentInfo& info = segments_[segment];
        info.chunk_items = std::max(info.chunk_items, chunk + 1);
        info.entries += postings.size();
        for (const lsb::Posting& p : postings) {
          info.bytes += p.second.length;
          index_entry_locked(p.first, p.second);
        }
      }
      if (!page->next_token) break;
      token = *page->next_token;
    }
  });
}

void LsbBackend::replay_orphans() {
  aws::CloudEnv& env = *services_->env;
  std::uint64_t delete_to = 1;
  std::set<std::uint64_t> known;
  {
    std::lock_guard<std::mutex> lk(mu_);
    delete_to = delete_to_;
    for (const auto& [id, info] : segments_) known.insert(id);
  }

  std::vector<std::uint64_t> replay;
  std::vector<std::uint64_t> purge;
  std::string marker;
  for (;;) {
    auto page = services_->s3.list(lsb::kSegmentBucket, lsb::kSegmentPrefix,
                                   marker, 1000);
    if (!page || page->keys.empty()) break;
    for (const std::string& key : page->keys) {
      std::uint64_t id = 0;
      if (!lsb::parse_segment_key(key, id)) continue;
      if (id < delete_to)
        purge.push_back(id);
      else if (!known.contains(id))
        replay.push_back(id);
    }
    if (!page->truncated) break;
    marker = page->keys.back();
  }

  // Finish any crashed trim: everything below the watermark is dead.
  for (std::uint64_t id : purge)
    services_->s3.del(lsb::kSegmentBucket, lsb::segment_key(id));

  // Replay unindexed segments oldest first (list order is id order). Their
  // closes become indexed again and their postings re-enter the publish
  // buffer; a duplicated replay is a no-op on both.
  for (std::uint64_t id : replay) {
    aws::AwsResult<aws::S3GetResult> got =
        services_->s3.get(lsb::kSegmentBucket, lsb::segment_key(id));
    for (std::uint32_t attempt = 0; !got && attempt < 64; ++attempt) {
      charge_read_retry(env);
      got = services_->s3.get(lsb::kSegmentBucket, lsb::segment_key(id));
    }
    if (!got) continue;  // listed but gone: a concurrent trim won the race
    auto seg = lsb::decode_segment(*got->data);
    PROVCLOUD_REQUIRE_MSG(seg.has_value() && seg->id == id,
                          "undecodable segment: " + lsb::segment_key(id));
    std::lock_guard<std::mutex> lk(mu_);
    unlisted_.erase(id);
    SegmentInfo& info = segments_[id];
    info.bytes = got->data->size();
    info.entries = seg->entries.size();
    std::vector<lsb::Posting>& pending = pending_postings_[id];
    pending_posting_count_ -= std::min<std::uint64_t>(pending_posting_count_,
                                                      pending.size());
    pending.clear();
    for (lsb::PlacedEntry& placed : seg->entries) {
      lsb::EntryLocation loc;
      loc.segment = id;
      loc.offset = placed.offset;
      loc.length = placed.length;
      loc.data_bytes =
          placed.entry.data != nullptr ? placed.entry.data->size() : 0;
      index_entry_locked(placed.entry.id, loc);
      pending.emplace_back(placed.entry.id, loc);
      ++pending_posting_count_;
    }
    next_segment_id_ = std::max(next_segment_id_, id + 1);
  }
}

// ---------------------------------------------------------------------------
// Daemon hooks and stats
// ---------------------------------------------------------------------------

void LsbBackend::pump() {
  bool publish = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    publish = pending_posting_count_ >= config_.index_publish_entries;
  }
  if (publish) publish_index();
  bool clean = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    clean = compact_due_locked();
  }
  if (clean) compact();
}

void LsbBackend::quiesce() {
  publish_index();
  for (;;) {
    bool clean = false;
    {
      std::lock_guard<std::mutex> lk(mu_);
      clean = compact_due_locked();
    }
    if (!clean || compact() == 0) break;
  }
}

LsbBackend::SegmentStats LsbBackend::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  SegmentStats out;
  out.segment_count = segments_.size();
  for (const auto& [id, info] : segments_) {
    out.total_bytes += info.bytes;
    out.live_bytes += info.bytes - std::min(info.garbage_bytes, info.bytes);
  }
  out.garbage_ratio =
      out.total_bytes == 0
          ? 0.0
          : 1.0 - static_cast<double>(out.live_bytes) /
                      static_cast<double>(out.total_bytes);
  out.delete_to = delete_to_;
  out.indexed_to = indexed_to_;
  out.pending_postings = pending_posting_count_;
  return out;
}

std::unique_ptr<ProvenanceBackend> make_lsb_backend(CloudServices& services) {
  return std::make_unique<LsbBackend>(services);
}

std::unique_ptr<ProvenanceBackend> make_lsb_backend(
    CloudServices& services, const LsbBackendConfig& config) {
  return std::make_unique<LsbBackend>(services, config);
}

}  // namespace provcloud::cloudprov

#include "cloudprov/wal_backend.hpp"

#include <algorithm>
#include <cstring>
#include <optional>
#include <set>

#include "cloudprov/consistency_read.hpp"
#include "cloudprov/serialize.hpp"
#include "cloudprov/session.hpp"
#include "util/md5.hpp"
#include "util/require.hpp"

namespace provcloud::cloudprov {

namespace {
const util::SharedBytes kEmptyBytes = util::make_shared_bytes(util::Bytes{});
constexpr const char* kTempCreatedMetaKey = "x-temp-created";
/// Rounds of ReceiveMessage per pump (each round fetches <= 10 messages
/// from a shard sample).
constexpr std::uint32_t kReceiveRounds = 24;
/// Visibility timeout of the WAL queue.
constexpr sim::SimTime kVisibilityTimeout = 60 * sim::kSecond;
/// COPY retries against propagation races before deferring the txn.
constexpr std::uint32_t kCopyRetries = 32;
}  // namespace

WalBackend::WalBackend(CloudServices& services, WalBackendConfig config)
    : services_(&services),
      config_(std::move(config)),
      topology_(DomainTopology::make(
          TopologyConfig{.shard_count = config_.shard_count,
                         .parallelism = config_.parallelism,
                         .ledger = &services.env->latency_ledger()})) {
  topology_->ensure_domains(services_->sdb);
  auto queue =
      services_->sqs.create_queue(config_.queue_name, kVisibilityTimeout);
  PROVCLOUD_REQUIRE(queue.has_value());
  queue_url_ = *queue;
}

std::unique_ptr<Session> WalBackend::do_open_session(SessionConfig config) {
  return std::make_unique<Session>(
      *this, std::move(config), &services_->env->latency_ledger(),
      &services_->env->clock(), &services_->env->tracer(),
      &services_->env->metrics());
}

void WalBackend::log_transaction(const pass::FlushUnit& unit,
                                 TicketState* ticket,
                                 sim::LatencyLedger* ledger) {
  aws::CloudEnv& env = *services_->env;
  env.failures().crash_point("wal.store.begin");

  const std::string txid = "tx-" + std::to_string(next_txid_++);
  const std::string nonce = nonce_for_version(unit.version);
  const util::SharedBytes data = unit.data != nullptr ? unit.data : kEmptyBytes;
  const std::string md5 = util::md5_with_nonce(*data, nonce);
  // Transient pnodes carry no data: no temp object, and the commit daemon
  // skips the COPY (their provenance lives only in SimpleDB).
  // The temp name is namespaced by the client's queue: txids count per
  // client, so two clients closing concurrently would otherwise write the
  // same ".tmp/tx-n" object and one commit daemon would promote the other
  // client's data.
  const bool has_data = unit.kind == pass::PnodeKind::kFile;
  const std::string temp_key =
      has_data ? std::string(kTempPrefix) + config_.queue_name + "/" + txid
               : std::string();

  const std::vector<WalRecord> records =
      build_transaction(txid, unit, temp_key, nonce, md5);

  // (b) begin record first: it carries the record count the commit daemon
  // needs to know a transaction is fully present.
  auto sent = services_->sqs.send_message(queue_url_,
                                          encode_wal_record(records.front()));
  PROVCLOUD_REQUIRE_MSG(sent.has_value(),
                        "WAL send failed: " + sent.error().message);
  env.failures().crash_point("wal.store.after_begin");

  // (c) the data goes to a temporary S3 object -- it cannot ride the queue
  // (8 KB limit) -- and a pointer record is logged. The temp PUT is
  // exclusive to this close: charged to the ticket's timeline so in-flight
  // closes overlap it.
  if (has_data) {
    aws::S3Metadata temp_meta;
    temp_meta[kTempCreatedMetaKey] = std::to_string(env.clock().now());
    std::optional<sim::LatencyLedger::ScopedTimeline> bind;
    if (ledger != nullptr && ticket != nullptr)
      bind.emplace(*ledger, ticket->timeline);
    auto temp_put =
        services_->s3.put_shared(kDataBucket, temp_key, data, temp_meta);
    PROVCLOUD_REQUIRE_MSG(temp_put.has_value(),
                          "temp PUT failed: " + temp_put.error().message);
  }
  env.failures().crash_point("wal.store.after_temp_put");

  // (c continued), (d): pointer record, provenance chunks, md5 record.
  for (std::size_t i = 1; i + 1 < records.size(); ++i) {
    auto s = services_->sqs.send_message(queue_url_,
                                         encode_wal_record(records[i]));
    PROVCLOUD_REQUIRE_MSG(s.has_value(),
                          "WAL send failed: " + s.error().message);
    env.failures().crash_point("wal.store.mid_records");
  }
  env.failures().crash_point("wal.store.before_commit");

  // (e) the commit record seals the transaction.
  auto commit = services_->sqs.send_message(queue_url_,
                                            encode_wal_record(records.back()));
  PROVCLOUD_REQUIRE_MSG(commit.has_value(),
                        "WAL send failed: " + commit.error().message);
  if (ticket != nullptr) ticket->done = true;  // the log is durable
  env.failures().crash_point("wal.store.after_commit");
}

void WalBackend::commit_group(const std::vector<TicketState*>& group,
                              sim::LatencyLedger* ledger) {
  if (group.size() <= 1) {
    // A single-close group is the per-close protocol, message for message.
    for (TicketState* ticket : group)
      log_transaction(ticket->unit, ticket, ledger);
    pump();
    return;
  }

  aws::CloudEnv& env = *services_->env;
  struct LoggedTxn {
    TicketState* ticket = nullptr;
    std::vector<WalRecord> records;
    std::string temp_key;
    bool has_data = false;
  };
  std::vector<LoggedTxn> txns;
  txns.reserve(group.size());
  for (TicketState* ticket : group) {
    env.failures().crash_point("wal.store.begin");
    const pass::FlushUnit& unit = ticket->unit;
    const std::string txid = "tx-" + std::to_string(next_txid_++);
    const std::string nonce = nonce_for_version(unit.version);
    const util::SharedBytes data =
        unit.data != nullptr ? unit.data : kEmptyBytes;
    const std::string md5 = util::md5_with_nonce(*data, nonce);
    const bool has_data = unit.kind == pass::PnodeKind::kFile;
    const std::string temp_key =
        has_data ? std::string(kTempPrefix) + config_.queue_name + "/" + txid
                 : std::string();
    LoggedTxn txn;
    txn.ticket = ticket;
    txn.records = build_transaction(txid, unit, temp_key, nonce, md5);
    txn.temp_key = temp_key;
    txn.has_data = has_data;
    txns.push_back(std::move(txn));
  }

  // Up to 10 log records per SQS round trip. `mark` runs after each batch
  // call lands (before its crash point), so commit sends can retire their
  // tickets exactly when the log becomes durable.
  const auto send_batched =
      [&](std::vector<util::Bytes> bodies, const char* point,
          const std::function<void(std::size_t, std::size_t)>& mark) {
        obs::Span span(&env.tracer(), "wal.send_batch", "wal");
        span.arg("records", static_cast<std::uint64_t>(bodies.size()));
        span.arg("phase", point);
        for (std::size_t start = 0; start < bodies.size();
             start += aws::kSqsMaxSendBatch) {
          const std::size_t end =
              std::min(start + aws::kSqsMaxSendBatch, bodies.size());
          std::vector<util::Bytes> chunk(
              bodies.begin() + static_cast<std::ptrdiff_t>(start),
              bodies.begin() + static_cast<std::ptrdiff_t>(end));
          auto sent = services_->sqs.send_message_batch(queue_url_, chunk);
          PROVCLOUD_REQUIRE_MSG(sent.has_value(),
                                "WAL batch send failed: " +
                                    sent.error().message);
          PROVCLOUD_REQUIRE_MSG(sent->ok(),
                                "WAL batch send rejected entry: " +
                                    sent->failed.front().error.message);
          if (mark) mark(start, end);
          env.failures().crash_point(point);
        }
      };

  // (b) every begin record first: each carries the record count the commit
  // daemon needs to know its transaction is fully present.
  std::vector<util::Bytes> begins;
  begins.reserve(txns.size());
  for (const LoggedTxn& txn : txns)
    begins.push_back(encode_wal_record(txn.records.front()));
  send_batched(std::move(begins), "wal.store.after_begin", nullptr);

  // (c) temp objects, one PUT per data-bearing close (exclusive to the
  // close: charged to its ticket's timeline).
  for (const LoggedTxn& txn : txns) {
    if (txn.has_data) {
      aws::S3Metadata temp_meta;
      temp_meta[kTempCreatedMetaKey] = std::to_string(env.clock().now());
      const pass::FlushUnit& unit = txn.ticket->unit;
      const util::SharedBytes data =
          unit.data != nullptr ? unit.data : kEmptyBytes;
      std::optional<sim::LatencyLedger::ScopedTimeline> bind;
      if (ledger != nullptr) bind.emplace(*ledger, txn.ticket->timeline);
      auto temp_put =
          services_->s3.put_shared(kDataBucket, txn.temp_key, data, temp_meta);
      PROVCLOUD_REQUIRE_MSG(temp_put.has_value(),
                            "temp PUT failed: " + temp_put.error().message);
    }
    env.failures().crash_point("wal.store.after_temp_put");
  }

  // (c continued), (d): pointer records, provenance chunks and md5 records
  // of the whole group, submit order.
  std::vector<util::Bytes> middles;
  for (const LoggedTxn& txn : txns)
    for (std::size_t i = 1; i + 1 < txn.records.size(); ++i)
      middles.push_back(encode_wal_record(txn.records[i]));
  send_batched(std::move(middles), "wal.store.mid_records", nullptr);
  env.failures().crash_point("wal.store.before_commit");

  // (e) the commit records seal the transactions, in submit order: a crash
  // between batch calls leaves a committed prefix (those closes are
  // durable) and incomplete suffix transactions the retention reaps.
  std::vector<util::Bytes> commits;
  commits.reserve(txns.size());
  for (const LoggedTxn& txn : txns)
    commits.push_back(encode_wal_record(txn.records.back()));
  send_batched(std::move(commits), "wal.store.after_commit",
               [&](std::size_t start, std::size_t end) {
                 for (std::size_t i = start; i < end; ++i)
                   txns[i].ticket->done = true;
               });

  // One commit-daemon poke per group instead of per close.
  pump();
}

void WalBackend::pump() {
  auto approx = services_->sqs.approximate_number_of_messages(queue_url_);
  if (!approx) return;
  if (*approx < config_.commit_threshold) return;
  commit_phase(/*forced=*/false);
}

void WalBackend::commit_phase(bool forced) {
  aws::CloudEnv& env = *services_->env;
  obs::Span span(&env.tracer(), "wal.commit_phase", "wal");
  span.arg("forced", forced ? "true" : "false");
  env.failures().crash_point("commitd.begin");

  // (a) receive as many messages as possible; SQS sampling means repeated
  // calls are required to see everything.
  std::map<std::string, WalTransaction> txns;
  std::uint32_t quiet_rounds = 0;
  for (std::uint32_t round = 0; round < kReceiveRounds; ++round) {
    auto batch =
        services_->sqs.receive_message(queue_url_, aws::kSqsMaxReceiveBatch);
    if (!batch) break;
    if (batch->empty()) {
      if (++quiet_rounds >= 4 && !forced) break;
      continue;
    }
    quiet_rounds = 0;
    for (const aws::SqsMessage& m : *batch) {
      auto rec = decode_wal_record(m.body);
      if (!rec) continue;  // corrupt message: leave for retention to reap
      WalTransaction& txn = txns[rec->txid];
      txn.txid = rec->txid;
      txn.receipt_handles.push_back(m.receipt_handle);
      switch (rec->kind) {
        case WalRecord::Kind::kBegin: txn.begin = *rec; break;
        case WalRecord::Kind::kData: txn.data = *rec; break;
        case WalRecord::Kind::kProv: txn.prov_chunks.push_back(*rec); break;
        case WalRecord::Kind::kMd5: txn.md5 = *rec; break;
        case WalRecord::Kind::kCommit: txn.committed = true; break;
      }
    }
  }
  env.failures().crash_point("commitd.after_receive");

  // Process complete transactions in txid order (single client: monotonic),
  // so replayed old transactions cannot clobber newer data.
  std::vector<const WalTransaction*> ready;
  for (const auto& [txid, txn] : txns)
    if (txn.complete()) ready.push_back(&txn);
  std::sort(ready.begin(), ready.end(),
            [](const WalTransaction* a, const WalTransaction* b) {
              // txids are "tx-<n>": compare numerically.
              const auto num = [](const std::string& t) {
                return std::stoull(t.substr(3));
              };
              return num(a->txid) < num(b->txid);
            });
  // The batched pipeline: promote every transaction's data first, coalesce
  // all their SimpleDB writes into per-shard batch calls, then delete log
  // messages and temp objects only for transactions whose writes landed.
  // Every step stays idempotent, so a crash between phases replays safely.
  span.arg("txns_seen", static_cast<std::uint64_t>(txns.size()));
  span.arg("ready", static_cast<std::uint64_t>(ready.size()));
  env.metrics().histogram("wal.ready_txns").record(ready.size());
  std::vector<StagedTxn> staged;
  staged.reserve(ready.size());
  for (const WalTransaction* txn : ready) {
    auto prepared = prepare_transaction(*txn);
    if (prepared) staged.push_back(std::move(*prepared));
  }
  flush_staged(staged);
  env.failures().crash_point("commitd.after_sdb");
  for (const StagedTxn& s : staged) {
    if (!s.flushed) continue;  // deferred: a later pump retries
    finish_transaction(s);
    ++committed_count_;
  }
  // Transactions that were incomplete (commit record not yet visible, or
  // sampling missed pieces) keep their messages; the visibility timeout
  // re-exposes them for the next pump. Uncommitted transactions eventually
  // vanish via the 4-day retention.
}

std::optional<WalBackend::StagedTxn> WalBackend::prepare_transaction(
    const WalTransaction& txn) {
  aws::CloudEnv& env = *services_->env;
  PROVCLOUD_REQUIRE(txn.data && txn.md5 && txn.begin);
  const WalRecord& data = *txn.data;

  // (b) promote the temp object to its real name; the COPY stamps the nonce
  // and version metadata. COPY (not rename) keeps replay possible.
  // Transient pnodes logged no data: skip the promotion entirely.
  const bool has_data = data.pnode_kind == pass::PnodeKind::kFile;

  // Ordering guard: a transaction can be delayed past a *newer* version of
  // the same object (its messages hidden by a visibility timeout while a
  // later pump committed the successor). Its COPY must then be suppressed
  // or it would clobber newer data; its provenance item is still valid and
  // still stored below.
  bool superseded = false;
  for (int attempt = 0; has_data && attempt < 4 && !superseded; ++attempt) {
    auto head = services_->s3.head(kDataBucket, data.object);
    if (!head) continue;
    auto v = head->metadata.find(kVersionMetaKey);
    if (v == head->metadata.end()) continue;
    try {
      superseded = std::stoul(v->second) >= data.version;
    } catch (...) {
    }
  }

  aws::S3Metadata meta;
  meta[kNonceMetaKey] = data.nonce;
  meta[kVersionMetaKey] = std::to_string(data.version);
  bool copied = false;
  for (std::uint32_t attempt = 0;
       has_data && !superseded && attempt <= kCopyRetries; ++attempt) {
    auto copy = services_->s3.copy(kDataBucket, data.temp_key, kDataBucket,
                                   data.object, aws::MetadataDirective::kReplace,
                                   meta);
    if (copy) {
      copied = true;
      break;
    }
  }
  if (has_data && !superseded && !copied) {
    // The temp object is gone: either propagation is badly behind (defer to
    // the next pump) or this is a replay whose final DELETE already ran.
    // Distinguish via the destination: if the real object already carries
    // this version (or newer), the transaction was already applied and only
    // the message deletes remain.
    auto head = services_->s3.head(kDataBucket, data.object);
    bool already_applied = false;
    if (head) {
      auto v = head->metadata.find(kVersionMetaKey);
      if (v != head->metadata.end()) {
        try {
          already_applied = std::stoul(v->second) >= data.version;
        } catch (...) {
        }
      }
    }
    if (!already_applied) return std::nullopt;  // defer to a later pump
  }
  env.failures().crash_point("commitd.after_copy");

  // (c) provenance toward SimpleDB. Rebuild the flush unit from the chunks
  // and spill > 1 KB values to S3 now; the attribute writes themselves are
  // coalesced across transactions and flushed by flush_staged.
  pass::FlushUnit unit;
  unit.object = data.object;
  unit.version = data.version;
  unit.kind = data.pnode_kind;
  // Chunks may arrive out of order; restore it.
  std::vector<WalRecord> chunks = txn.prov_chunks;
  std::sort(chunks.begin(), chunks.end(),
            [](const WalRecord& a, const WalRecord& b) {
              return a.chunk_index < b.chunk_index;
            });
  for (const WalRecord& c : chunks)
    for (const pass::ProvenanceRecord& r : c.records)
      unit.records.push_back(r);

  SdbEncoding enc = encode_unit_as_attributes(unit);
  for (std::size_t index : enc.spilled_indexes) {
    const pass::ProvenanceRecord& r = unit.records[index];
    const std::string key = overflow_key(unit.object, unit.version, index);
    auto put = services_->s3.put(kDataBucket, key, r.value_string());
    PROVCLOUD_REQUIRE_MSG(put.has_value(),
                          "overflow PUT failed: " + put.error().message);
  }
  enc.attributes.push_back(
      aws::SdbReplaceableAttribute{kMd5Attribute, txn.md5->md5, true});

  StagedTxn out;
  out.txn = &txn;
  out.has_data = has_data;
  out.domain = topology_->domain_for_object(unit.object);
  out.item = item_name(unit.object, unit.version);
  out.attributes = std::move(enc.attributes);
  return out;
}

void WalBackend::flush_staged(std::vector<StagedTxn>& staged) {
  if (config_.batch_size <= 1) {
    // Legacy path: one PutAttributes per 100-attribute chunk per item.
    for (StagedTxn& s : staged) {
      for (std::size_t start = 0; start < s.attributes.size();
           start += aws::kSdbMaxAttrsPerCall) {
        const std::size_t end =
            std::min(start + aws::kSdbMaxAttrsPerCall, s.attributes.size());
        std::vector<aws::SdbReplaceableAttribute> chunk(
            s.attributes.begin() + static_cast<std::ptrdiff_t>(start),
            s.attributes.begin() + static_cast<std::ptrdiff_t>(end));
        auto put = services_->sdb.put_attributes(s.domain, s.item, chunk);
        PROVCLOUD_REQUIRE_MSG(put.has_value(),
                              "PutAttributes failed: " + put.error().message);
      }
      s.flushed = true;
    }
    return;
  }

  // Batched path: group the staged items per shard domain and write them
  // batch_size (<= 25) at a time, the domains flushed concurrently through
  // the topology (SimpleDB throttles per domain, so independent domains'
  // round trips overlap; parallelism == 1 walks the groups in domain order
  // exactly as before). A replayed transaction can stage the same item
  // twice; duplicates split into the next call because a single
  // BatchPutAttributes rejects repeated item names.
  std::map<std::string, std::vector<StagedTxn*>> by_domain;
  for (StagedTxn& s : staged) by_domain[s.domain].push_back(&s);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(by_domain.size());
  for (auto& [domain, group] : by_domain) {
    const std::string* d = &domain;
    std::vector<StagedTxn*>* g = &group;
    tasks.push_back([this, d, g] { flush_domain_batches(*d, *g); });
  }
  topology_->run_tasks(std::move(tasks));
}

void WalBackend::flush_domain_batches(const std::string& domain,
                                      std::vector<StagedTxn*>& group) {
  const std::size_t batch_limit =
      std::min(config_.batch_size, aws::kSdbMaxItemsPerBatch);
  std::vector<StagedTxn*> pending(group.begin(), group.end());
  while (!pending.empty()) {
    std::vector<StagedTxn*> call;
    std::vector<StagedTxn*> rest;
    std::set<std::string> names;
    for (StagedTxn* s : pending) {
      if (call.size() < batch_limit && names.insert(s->item).second)
        call.push_back(s);
      else
        rest.push_back(s);
    }
    std::vector<aws::SdbBatchEntry> entries;
    entries.reserve(call.size());
    for (StagedTxn* s : call)
      // Moving is safe: a deferred transaction is re-prepared from its WAL
      // records on the next pump, never re-flushed from this staging.
      entries.push_back(aws::SdbBatchEntry{s->item, std::move(s->attributes)});
    auto put = services_->sdb.batch_put_attributes(domain, entries);
    PROVCLOUD_REQUIRE_MSG(put.has_value(), "BatchPutAttributes failed: " +
                                               put.error().message);
    // Per-item rejections are deterministic validation failures (size and
    // pair limits): retrying cannot succeed, so fail as loudly as the
    // legacy PutAttributes path instead of deferring forever.
    PROVCLOUD_REQUIRE_MSG(put->ok(), "BatchPutAttributes rejected item: " +
                                         put->failed.front().error.message);
    for (StagedTxn* s : call) s->flushed = true;
    pending = std::move(rest);
  }
}

void WalBackend::finish_transaction(const StagedTxn& staged) {
  aws::CloudEnv& env = *services_->env;
  const WalTransaction& txn = *staged.txn;
  // (d) delete the WAL messages first, then the temp object: a crash in
  // between leaks only a temp object (the cleaner reaps it); the reverse
  // order would strand undeletable log records that replay against a
  // missing temp.
  for (const std::string& handle : txn.receipt_handles) {
    auto del = services_->sqs.delete_message(queue_url_, handle);
    PROVCLOUD_REQUIRE(del.has_value());
    env.failures().crash_point("commitd.mid_message_delete");
  }
  env.failures().crash_point("commitd.before_temp_delete");
  if (staged.has_data) {
    auto del_temp = services_->s3.del(kDataBucket, txn.data->temp_key);
    PROVCLOUD_REQUIRE(del_temp.has_value());
  }
  env.failures().crash_point("commitd.after_txn");
}

void WalBackend::recover() {
  commit_phase(/*forced=*/true);
  clean_temp_objects();
}

void WalBackend::quiesce() {
  aws::CloudEnv& env = *services_->env;
  obs::Span span(&env.tracer(), "wal.quiesce", "wal");
  std::uint64_t rounds = 0;
  for (int i = 0; i < 64; ++i) {
    commit_phase(/*forced=*/true);
    if (services_->sqs.exact_message_count(queue_url_) == 0) break;
    // In-flight (invisible) messages need the visibility timeout to lapse;
    // propagation needs the consistency window. The client is parked while
    // that virtual time passes, so the wait lands on its ledger timeline as
    // "idle" -- leaving it uncharged flattered Arch 3's elapsed numbers
    // (the daemon's wakeup cadence looked free).
    const sim::SimTime visibility = kVisibilityTimeout;
    const sim::SimTime wakeup =
        env.consistency().propagation_max + sim::kSecond;
    env.latency_ledger().charge(visibility + wakeup, "idle");
    env.metrics().counter("idle.visibility_wait_us").add(visibility);
    env.metrics().counter("idle.daemon_wakeup_us").add(wakeup);
    env.clock().advance_by(visibility + wakeup);
    ++rounds;
  }
  span.arg("wait_rounds", rounds);
}

void WalBackend::clean_temp_objects() {
  aws::CloudEnv& env = *services_->env;
  const sim::SimTime now = env.clock().now();
  std::string marker;
  for (;;) {
    auto page = services_->s3.list(kDataBucket, kTempPrefix, marker);
    if (!page || page->keys.empty()) return;
    for (const std::string& key : page->keys) {
      auto head = services_->s3.head(kDataBucket, key);
      if (!head) continue;
      auto created_it = head->metadata.find(kTempCreatedMetaKey);
      if (created_it == head->metadata.end()) continue;
      sim::SimTime created = 0;
      try {
        created = std::stoull(created_it->second);
      } catch (...) {
        continue;
      }
      if (now >= created && now - created >= aws::kSqsRetention) {
        auto del = services_->s3.del(kDataBucket, key);
        (void)del;
      }
    }
    if (!page->truncated) return;
    marker = page->keys.back();
  }
}

BackendResult<ReadResult> WalBackend::read(const std::string& object,
                                           std::uint32_t max_retries) {
  return consistency_checked_read(*services_, *topology_, object, max_retries);
}

BackendResult<std::vector<pass::ProvenanceRecord>> WalBackend::get_provenance(
    const std::string& object, std::uint32_t version) {
  return fetch_sdb_provenance(*services_, *topology_, object, version, 64);
}

std::unique_ptr<ProvenanceBackend> make_wal_backend(CloudServices& services) {
  return std::make_unique<WalBackend>(services, WalBackendConfig{});
}

std::unique_ptr<ProvenanceBackend> make_wal_backend(
    CloudServices& services, const WalBackendConfig& config) {
  return std::make_unique<WalBackend>(services, config);
}

}  // namespace provcloud::cloudprov

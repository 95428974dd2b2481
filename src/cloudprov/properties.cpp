#include "cloudprov/properties.hpp"

#include <cstring>
#include <set>
#include <memory>

#include "cloudprov/consistency_read.hpp"
#include "cloudprov/lsb/format.hpp"
#include "cloudprov/lsb/lsb_backend.hpp"
#include "cloudprov/manifest/reader.hpp"
#include "cloudprov/manifest/writer.hpp"
#include "cloudprov/query.hpp"
#include "cloudprov/sdb_backend.hpp"
#include "cloudprov/serialize.hpp"
#include "cloudprov/session.hpp"
#include "cloudprov/wal_backend.hpp"
#include "pass/observer.hpp"
#include "util/md5.hpp"
#include "util/require.hpp"
#include "util/string_utils.hpp"
#include "workloads/compile.hpp"

namespace provcloud::cloudprov {

namespace {

/// One disposable world: env + services + backend, laid out and
/// parallelized per the checker options.
struct Fixture {
  explicit Fixture(Architecture arch, std::uint64_t seed,
                   aws::ConsistencyConfig consistency,
                   const PropertyCheckOptions& options)
      : env(seed, consistency), services(env) {
    switch (arch) {
      case Architecture::kS3Only:
        backend = make_backend(arch, services);
        break;
      case Architecture::kS3SimpleDb: {
        auto sdb = std::make_unique<SdbBackend>(
            services, SdbBackendConfig{.shard_count = options.shard_count,
                                       .parallelism = options.parallelism});
        topology = sdb->topology();
        backend = std::move(sdb);
        break;
      }
      case Architecture::kS3SimpleDbSqs: {
        WalBackendConfig cfg;
        cfg.shard_count = options.shard_count;
        cfg.parallelism = options.parallelism;
        auto wal = std::make_unique<WalBackend>(services, cfg);
        topology = wal->topology();
        backend = std::move(wal);
        break;
      }
      case Architecture::kS3SegmentLog: {
        LsbBackendConfig cfg;
        cfg.shard_count = options.shard_count;
        cfg.parallelism = options.parallelism;
        // Small publish threshold: index publications (and their crash
        // points) fire inside the workload, not only at quiesce.
        cfg.index_publish_entries = 8;
        auto lsb = std::make_unique<LsbBackend>(services, cfg);
        topology = lsb->topology();
        backend = std::move(lsb);
        break;
      }
    }
    // Arch 1 has no SimpleDB layout; check_state's S3 branch ignores the
    // topology, but keep a valid single-domain one for uniformity.
    if (topology == nullptr)
      topology = DomainTopology::make(
          TopologyConfig{.ledger = &env.latency_ledger()});
    group_size = options.group_size;
    flush_deadline = options.flush_deadline;
    // Hostile environment: correlated brown-outs and 503 throttle storms
    // across every service the architectures touch. The checks below must
    // reach the same verdicts -- slower, never corrupted.
    for (const char* service : {"s3", "sdb", "sqs", "ebs"}) {
      if (options.service_slowdown > 0)
        env.set_service_slowdown(service, options.service_slowdown);
      if (options.throttle_probability > 0.0 ||
          options.throttle_rate_per_sec > 0) {
        aws::ThrottleConfig throttle;
        throttle.probability = options.throttle_probability;
        throttle.rate_per_sec = options.throttle_rate_per_sec;
        env.set_service_throttle(service, throttle);
      }
    }
  }

  aws::CloudEnv env;
  CloudServices services;
  std::unique_ptr<ProvenanceBackend> backend;
  std::shared_ptr<const DomainTopology> topology;
  std::size_t group_size = 1;
  sim::SimTime flush_deadline = 0;
  // Read-your-writes evidence gathered while driving workloads.
  std::uint64_t ryw_checked = 0;
  std::uint64_t ryw_violations = 0;
};

aws::ConsistencyConfig aggressive_staleness() {
  aws::ConsistencyConfig c;
  c.replicas = 3;
  c.propagation_min = 500 * sim::kMillisecond;
  c.propagation_max = 5 * sim::kSecond;
  c.sqs_sample_fraction = 0.5;
  return c;
}

/// The small hand-built trace the crash sweep runs. Contains: multi-KB env
/// records (spill path), a three-deep derivation chain (causal ordering),
/// and a version bump (write after flush).
pass::SyscallTrace mini_trace(std::uint64_t seed, std::size_t files) {
  util::Rng rng(seed);
  pass::SyscallTrace t;
  const pass::Pid ingest = 11, transform = 12, aggregate = 13, editor = 14;

  t.push_back(pass::ev_exec(ingest, "/bin/ingest", {"ingest", "--all"},
                            workloads::synth_environment(rng, 1600)));
  std::vector<std::string> inputs;
  for (std::size_t i = 0; i < files; ++i) {
    const std::string path = "data/f" + std::to_string(i);
    inputs.push_back(path);
    t.push_back(pass::ev_write(ingest, path,
                               util::Bytes(64 + 32 * (i % 7), 'a' + (i % 23))));
    t.push_back(pass::ev_close(ingest, path));
  }
  t.push_back(pass::ev_exit(ingest));

  t.push_back(pass::ev_exec(transform, "/usr/bin/transform", {"transform"},
                            workloads::synth_environment(rng, 1400)));
  for (std::size_t i = 0; i < std::min<std::size_t>(3, inputs.size()); ++i)
    t.push_back(pass::ev_read(transform, inputs[i]));
  t.push_back(pass::ev_write(transform, "data/derived0", util::Bytes(256, 'd')));
  t.push_back(pass::ev_close(transform, "data/derived0"));
  t.push_back(pass::ev_exit(transform));

  t.push_back(pass::ev_exec(aggregate, "/usr/bin/aggregate", {"aggregate"},
                            workloads::synth_environment(rng, 1200)));
  t.push_back(pass::ev_read(aggregate, "data/derived0"));
  t.push_back(pass::ev_write(aggregate, "data/derived1", util::Bytes(128, 'e')));
  t.push_back(pass::ev_close(aggregate, "data/derived1"));
  t.push_back(pass::ev_exit(aggregate));

  // Version bump: rewrite an already-flushed input.
  t.push_back(pass::ev_exec(editor, "/usr/bin/editor", {"editor"},
                            workloads::synth_environment(rng, 900)));
  if (!inputs.empty()) {
    t.push_back(pass::ev_write(editor, inputs[0], util::Bytes(96, 'z')));
    t.push_back(pass::ev_close(editor, inputs[0]));
  }
  t.push_back(pass::ev_exit(editor));
  return t;
}

/// Run a trace through PASS into the backend via a client session at the
/// checker's group size. Returns false if an injected crash killed the
/// client partway -- with group_size > 1 that crash lands mid-group-commit,
/// which is exactly the scenario the batched-submit sweep must score. With a
/// flush deadline set, the clock advances half a deadline between closes, so
/// crashes also land inside deadline-expiry flushes (the commit daemon, not
/// the submitter, holds the group). Every still-pending close is immediately
/// read back through the session: read-your-writes says the pending submit
/// must be observed without waiting for durability.
bool drive(Fixture& fx, const pass::SyscallTrace& trace,
           pass::PassObserver* observer_out = nullptr) {
  auto session = fx.backend->open_session(
      SessionConfig{.client_id = "client-0",
                    .max_group = fx.group_size,
                    .flush_deadline = fx.flush_deadline});
  pass::PassObserver observer([&fx, &session](const pass::FlushUnit& unit) {
    const Ticket ticket = session->submit(unit);
    if (!ticket.done()) {
      ++fx.ryw_checked;
      const auto got = session->read(unit.object);
      const bool observed =
          got.has_value() && got->version == unit.version &&
          (unit.data == nullptr ||
           (got->data != nullptr && *got->data == *unit.data));
      if (!observed) ++fx.ryw_violations;
    }
    if (fx.flush_deadline > 0)
      fx.env.clock().advance_by(fx.flush_deadline / 2);
  });
  try {
    observer.apply_trace(trace);
    observer.finish();
    const auto synced = session->sync();
    PROVCLOUD_REQUIRE_MSG(synced.has_value(),
                          "session sync failed: " + synced.error().message);
  } catch (const sim::CrashError&) {
    if (observer_out != nullptr) *observer_out = std::move(observer);
    return false;
  }
  if (observer_out != nullptr) *observer_out = std::move(observer);
  return true;
}

/// Let the world settle: all propagation delivered; Arch-3 daemons pumped.
/// An armed crash may fire inside quiesce (Arch 4 publishes its index
/// checkpoint there): the client dies mid-publication, which is exactly a
/// scenario the sweep must score, so swallow it and finish draining.
void settle(Fixture& fx) {
  fx.env.clock().drain();
  try {
    fx.backend->quiesce();
  } catch (const sim::CrashError&) {
  }
  fx.env.clock().drain();
}

std::uint32_t meta_version(const aws::S3Metadata& meta, const char* key) {
  auto it = meta.find(key);
  if (it == meta.end()) return 0;
  try {
    return static_cast<std::uint32_t>(std::stoul(it->second));
  } catch (...) {
    return 0;
  }
}

struct StateViolations {
  std::uint64_t atomicity = 0;
  std::uint64_t causal = 0;
};

/// Invariant check over the settled cloud state (coordinator views; not
/// billed). Sweeps every shard domain of the topology: under sharding an
/// item lives in its object's hash domain, and peeking only the base
/// domain would misreport stored provenance as atomicity/orphan
/// violations.
StateViolations check_state(Architecture arch, CloudServices& services,
                            const DomainTopology& topology) {
  StateViolations v;
  std::vector<std::string> data_keys;
  for (const std::string& key : services.s3.peek_keys(kDataBucket)) {
    if (util::starts_with(key, kOverflowPrefix) ||
        util::starts_with(key, kTempPrefix))
      continue;
    data_keys.push_back(key);
  }
  const std::set<std::string> data_set(data_keys.begin(), data_keys.end());

  if (arch == Architecture::kS3Only) {
    for (const std::string& key : data_keys) {
      auto obj = services.s3.peek(kDataBucket, key);
      PROVCLOUD_REQUIRE(obj.has_value());
      DecodedMetadata decoded = decode_metadata(obj->metadata);
      if (decoded.records.empty()) {
        ++v.atomicity;  // data without provenance
        continue;
      }
      for (const std::string& spill : decoded.spill_keys)
        if (!services.s3.peek(kDataBucket, spill)) ++v.atomicity;
      for (const pass::ProvenanceRecord& r : decoded.records)
        if (r.is_xref() && data_set.count(r.xref().object) == 0) ++v.causal;
    }
    return v;
  }

  if (arch == Architecture::kS3SegmentLog) {
    // The log is the ground truth and data + provenance travel inside one
    // entry, so atomicity can only tear two ways: an undecodable segment
    // object, or a durable index posting that resolves to nothing. Orphan
    // segments above indexed-to are fine (recover() replays them); chunk
    // items outside [delete-to, indexed-to] are in-flight or dead debris
    // the protocol already discounts.
    std::map<std::uint64_t, util::SharedBytes> blobs;
    std::set<pass::ObjectVersion> in_log;
    for (const std::string& key : services.s3.peek_keys(lsb::kSegmentBucket)) {
      std::uint64_t id = 0;
      if (!lsb::parse_segment_key(key, id)) continue;
      auto obj = services.s3.peek(lsb::kSegmentBucket, key);
      PROVCLOUD_REQUIRE(obj.has_value());
      auto seg = lsb::decode_segment(*obj->data);
      if (!seg || seg->id != id) {
        ++v.atomicity;  // torn segment object
        continue;
      }
      for (const lsb::PlacedEntry& placed : seg->entries)
        in_log.insert(placed.entry.id);
      blobs[id] = obj->data;
    }
    // Causal ordering, version-granular: every xref in every entry names
    // an (object, version) present somewhere in the log. Checked against
    // the full set (compaction may rewrite an ancestor into a younger
    // segment than its descendant's).
    for (const auto& [id, blob] : blobs) {
      auto seg = lsb::decode_segment(*blob);
      for (const lsb::PlacedEntry& placed : seg->entries)
        for (const pass::ProvenanceRecord& r : placed.entry.records)
          if (r.is_xref() && in_log.count(r.xref()) == 0) ++v.causal;
    }

    std::uint64_t delete_to = 1;
    std::uint64_t indexed_to = 0;
    if (auto meta = services.sdb.peek_item(topology.domains().front(),
                                           lsb::kMetaItem)) {
      const auto parse = [&meta](const char* attr, std::uint64_t fallback) {
        auto it = meta->find(attr);
        if (it == meta->end() || it->second.empty()) return fallback;
        try {
          return static_cast<std::uint64_t>(
              std::stoull(*it->second.begin()));
        } catch (...) {
          return fallback;
        }
      };
      delete_to = parse(lsb::kDeleteToAttr, 1);
      indexed_to = parse(lsb::kIndexedToAttr, 0);
    }
    for (const std::string& domain : topology.domains()) {
      for (const std::string& item : services.sdb.peek_item_names(domain)) {
        std::uint64_t seg = 0;
        std::uint64_t chunk = 0;
        if (!lsb::parse_index_item_name(item, seg, chunk)) continue;
        if (seg < delete_to || seg > indexed_to) continue;
        auto attrs = services.sdb.peek_item(domain, item);
        PROVCLOUD_REQUIRE(attrs.has_value());
        for (const auto& [name, values] : *attrs) {
          for (const std::string& value : values) {
            std::vector<lsb::Posting> postings;
            if (!lsb::unpack_postings(value, seg, postings)) {
              ++v.atomicity;  // unparseable posting value
              continue;
            }
            for (const auto& [ov, loc] : postings) {
              auto bit = blobs.find(loc.segment);
              if (bit == blobs.end() ||
                  loc.offset + loc.length > bit->second->size()) {
                ++v.atomicity;  // posting into a missing/short segment
                continue;
              }
              auto entry = lsb::decode_entry(
                  bit->second->substr(loc.offset, loc.length));
              if (!entry || !(entry->id == ov)) ++v.atomicity;
            }
          }
        }
      }
    }
    return v;
  }

  // SimpleDB architectures: version-granular checks over every shard
  // domain's coordinator view.
  std::vector<std::pair<std::string, std::string>> domain_items;
  std::set<std::string> item_set;
  for (const std::string& domain : topology.domains()) {
    for (std::string& item : services.sdb.peek_item_names(domain)) {
      item_set.insert(item);
      domain_items.emplace_back(domain, std::move(item));
    }
  }

  // (a) provenance without data (orphans). Transient pnodes carry no data
  // object by design, so only file items can be orphaned.
  for (const auto& [domain, item] : domain_items) {
    std::string object;
    std::uint32_t version = 0;
    if (!parse_item_name(item, object, version)) continue;
    auto attrs = services.sdb.peek_item(domain, item);
    PROVCLOUD_REQUIRE(attrs.has_value());
    auto kind_it = attrs->find("x-kind");
    const bool is_file = kind_it == attrs->end() || kind_it->second.empty() ||
                         *kind_it->second.begin() == "file";
    if (is_file) {
      auto obj = services.s3.peek(kDataBucket, object);
      if (!obj || meta_version(obj->metadata, kVersionMetaKey) < version) {
        ++v.atomicity;
        continue;
      }
    }
    // (c) causal ordering: every xref's (object, version) item must exist.
    for (const auto& [name, values] : *attrs) {
      if (!is_xref_attribute(name)) continue;
      for (const std::string& value : values) {
        if (value.rfind(kSpillMarker, 0) == 0) continue;
        if (item_set.count(value) == 0) ++v.causal;
      }
    }
  }

  // (b) data without matching provenance.
  for (const std::string& key : data_keys) {
    auto obj = services.s3.peek(kDataBucket, key);
    PROVCLOUD_REQUIRE(obj.has_value());
    const std::uint32_t version = meta_version(obj->metadata, kVersionMetaKey);
    auto nonce_it = obj->metadata.find(kNonceMetaKey);
    const std::string nonce = nonce_it == obj->metadata.end()
                                  ? nonce_for_version(version)
                                  : nonce_it->second;
    auto item = services.sdb.peek_item(topology.domain_for_object(key),
                                       item_name(key, version));
    if (!item) {
      ++v.atomicity;
      continue;
    }
    auto md5_it = item->find(kMd5Attribute);
    if (md5_it == item->end() || md5_it->second.empty() ||
        *md5_it->second.begin() != util::md5_with_nonce(*obj->data, nonce))
      ++v.atomicity;
  }
  return v;
}

/// The late derivation stored *after* the first snapshot rolls: the mutable
/// tail the manifest read path must fall back to SimpleDB for.
pass::SyscallTrace tail_trace(std::uint64_t seed) {
  util::Rng rng(seed);
  pass::SyscallTrace t;
  const pass::Pid late = 15;
  t.push_back(pass::ev_exec(late, "/usr/bin/late", {"late"},
                            workloads::synth_environment(rng, 800)));
  t.push_back(pass::ev_read(late, "data/derived1"));
  t.push_back(pass::ev_write(late, "data/late0", util::Bytes(96, 'l')));
  t.push_back(pass::ev_close(late, "data/late0"));
  t.push_back(pass::ev_exit(late));
  return t;
}

/// Full structural equality of two ancestry answers: same nodes (kind,
/// records, ancestor edges) and the same missing list.
bool ancestry_equal(const AncestryResult& a, const AncestryResult& b) {
  if (a.missing != b.missing) return false;
  const auto& an = a.graph.nodes();
  const auto& bn = b.graph.nodes();
  if (an.size() != bn.size()) return false;
  for (const auto& [id, node] : an) {
    const AncestryNode* other = b.graph.find(id);
    if (other == nullptr || node.kind != other->kind ||
        node.records != other->records || node.ancestors != other->ancestors)
      return false;
  }
  return true;
}

/// All crash points the architecture's protocol passes through, discovered
/// from an uninjected run.
std::vector<std::string> discover_crash_points(
    Architecture arch, const PropertyCheckOptions& options) {
  Fixture fx(arch, options.seed, aggressive_staleness(), options);
  drive(fx, mini_trace(options.seed, options.mini_files));
  settle(fx);
  return fx.env.failures().observed_points();
}

}  // namespace

PropertyReport check_properties(Architecture arch,
                                const PropertyCheckOptions& options) {
  PropertyReport report;
  report.arch = arch;

  // ------------------------------------------------------ crash sweep ----
  const std::vector<std::string> points = discover_crash_points(arch, options);
  std::uint64_t atomicity_violations = 0;
  std::uint64_t causal_violations = 0;
  for (const std::string& point : points) {
    for (std::uint64_t occurrence : {std::uint64_t{1}, std::uint64_t{7}}) {
      Fixture fx(arch, options.seed + occurrence, aggressive_staleness(),
                 options);
      fx.env.failures().arm_crash(point, occurrence);
      const bool completed = drive(fx, mini_trace(options.seed, options.mini_files));
      settle(fx);
      // The client is gone, but daemons (Arch 3's commit daemon) are part of
      // the system and keep running -- settle() pumped them. Remedial
      // recovery (Arch 2's orphan scan) is deliberately NOT run: Table 1
      // scores the protocol, not the cleanup.
      const StateViolations v = check_state(arch, fx.services, *fx.topology);
      atomicity_violations += v.atomicity;
      causal_violations += v.causal;
      report.ryw_checked += fx.ryw_checked;
      report.ryw_violations += fx.ryw_violations;
      ++report.crash_scenarios;
      (void)completed;
    }
  }
  report.atomicity_violations = atomicity_violations;
  report.causal_violations = causal_violations;
  report.atomicity = atomicity_violations == 0;
  report.causal_ordering = causal_violations == 0;

  // ------------------------------------------------ consistency hammer ----
  {
    Fixture fx(arch, options.seed ^ 0xc0ffee, aggressive_staleness(), options);
    // The hammer reads right after each close: sync() per close is the
    // durability barrier a reader-visible close implies, so the property
    // stays read-after-durable at every group size.
    auto session = fx.backend->open_session(SessionConfig{
        .client_id = "client-0", .max_group = options.group_size});
    pass::PassObserver observer([&session](const pass::FlushUnit& unit) {
      session->submit(unit);
      const auto synced = session->sync();
      PROVCLOUD_REQUIRE_MSG(synced.has_value(),
                            "hammer sync failed: " + synced.error().message);
    });
    const pass::Pid writer = 21;
    util::Rng rng(options.seed);
    observer.apply(pass::ev_exec(writer, "/bin/writer", {"writer"},
                                 workloads::synth_environment(rng, 1000)));
    for (int version = 0; version < 6; ++version) {
      observer.apply(pass::ev_write(writer, "data/hot",
                                    util::Bytes(512 + 64 * version, 'h')));
      observer.apply(pass::ev_close(writer, "data/hot"));
      // The commit daemon runs between client operations (Arch 3); without
      // it nothing would reach S3/SimpleDB before the reads below.
      fx.backend->recover();
      // Reads race propagation: no draining here.
      for (std::size_t r = 0; r < options.reads_per_version; ++r) {
        fx.env.clock().advance_by(200 * sim::kMillisecond);
        auto result = fx.backend->read("data/hot");
        if (!result) continue;
        ++report.reads_checked;
        if (result->retries > 0) ++report.reads_with_retries;
        if (!result->verified) continue;  // refused to vouch: not a violation
        const auto& truth = observer.ground_truth();
        auto it = truth.find({"data/hot", result->version});
        if (it == truth.end() || *it->second.data != *result->data)
          ++report.consistency_violations;
      }
    }
    report.consistency =
        report.reads_checked > 0 && report.consistency_violations == 0;
  }

  // ------------------------------------------------ query-cost scaling ----
  {
    const auto measure = [&](double scale) -> std::uint64_t {
      Fixture fx(arch, options.seed ^ 0xdead, aws::ConsistencyConfig::strong(),
                 options);
      workloads::WorkloadOptions wo;
      wo.seed = options.seed;
      wo.count_scale = scale;
      wo.size_scale = 0.02;  // tiny payloads; query cost is what matters
      const workloads::CompileWorkload compile;
      drive(fx, compile.generate(wo));
      settle(fx);
      auto engine =
          arch == Architecture::kS3Only ? make_s3_query_engine(fx.services)
          : arch == Architecture::kS3SegmentLog
              ? make_lsb_query_engine(fx.services)
              : make_sdb_query_engine(fx.services, fx.topology);
      const sim::MeterSnapshot before = fx.env.meter().snapshot();
      engine->q2_outputs_of("/usr/bin/gcc");
      const sim::MeterSnapshot diff =
          fx.env.meter().snapshot().diff(before);
      return diff.calls("s3") + diff.calls("sdb");
    };
    report.query_ops_small = measure(0.08);
    report.query_ops_large = measure(0.16);
    report.query_growth =
        report.query_ops_small == 0
            ? 0.0
            : static_cast<double>(report.query_ops_large) /
                  static_cast<double>(report.query_ops_small);
    report.efficient_query = report.query_growth < 1.5;
  }

  return report;
}

std::vector<PropertyReport> check_all_architectures(
    const PropertyCheckOptions& options) {
  return {check_properties(Architecture::kS3Only, options),
          check_properties(Architecture::kS3SimpleDb, options),
          check_properties(Architecture::kS3SimpleDbSqs, options),
          check_properties(Architecture::kS3SegmentLog, options)};
}

ManifestRollReport check_manifest_roll(Architecture arch,
                                       const PropertyCheckOptions& options) {
  PROVCLOUD_REQUIRE_MSG(arch != Architecture::kS3Only,
                        "manifest rolls need a SimpleDB layout");
  ManifestRollReport report;
  report.arch = arch;
  // Small blocks so multi-block rolls exist and after_block_put fires more
  // than once -- the sweep then lands crashes both early and mid-sequence.
  const manifest::ManifestWriterConfig roll_cfg{.block_entries = 4};

  // Discover the roll protocol's crash surface from an uninjected run.
  std::vector<std::string> points;
  {
    Fixture fx(arch, options.seed, aggressive_staleness(), options);
    drive(fx, mini_trace(options.seed, options.mini_files));
    settle(fx);
    manifest::ManifestWriter writer(fx.services, fx.topology, roll_cfg);
    const auto rolled = writer.roll();
    PROVCLOUD_REQUIRE_MSG(rolled.has_value(), "uninjected roll failed");
    for (const std::string& p : fx.env.failures().observed_points())
      if (util::starts_with(p, "manifest.")) points.push_back(p);
  }

  for (const std::string& point : points) {
    for (std::uint64_t occurrence : {std::uint64_t{1}, std::uint64_t{2}}) {
      Fixture fx(arch, options.seed + occurrence, aggressive_staleness(),
                 options);
      drive(fx, mini_trace(options.seed, options.mini_files));
      settle(fx);
      manifest::ManifestWriter writer(fx.services, fx.topology, roll_cfg);
      const auto first = writer.roll();
      PROVCLOUD_REQUIRE_MSG(first.has_value(), "first roll failed");
      const std::uint64_t first_id = first->snapshot_id;

      // The mutable tail lands after snapshot 1.
      drive(fx, tail_trace(options.seed));
      settle(fx);

      // Ground truth from the pure per-shard SimpleDB scatter walk, taken
      // before any crash: the live manifest walk must match it afterwards.
      auto scatter = make_sdb_query_engine(fx.services, fx.topology);
      const AncestryResult want_tail = scatter->ancestry("data/late0", 1);
      const AncestryResult want_frozen = scatter->ancestry("data/derived1", 1);

      fx.env.failures().arm_crash(point, occurrence);
      bool crashed = false;
      try {
        writer.roll();
      } catch (const sim::CrashError&) {
        crashed = true;
      }
      fx.env.failures().disarm(point);
      settle(fx);
      ++report.crash_scenarios;
      if (crashed) ++report.crashed_rolls;

      // The catalog must bind *some* committed snapshot -- never an
      // uncommitted torso, never nothing.
      manifest::ManifestReader reader(fx.services, fx.topology);
      if (!reader.open_current() || reader.snapshot_id() < first_id) {
        ++report.violations;
        continue;
      }
      auto engine = make_manifest_query_engine(fx.services, fx.topology);
      // The live walk (snapshot + tail fallback) must be bit-identical to
      // the scatter walk regardless of where the roll died.
      if (!ancestry_equal(engine->ancestry("data/late0", 1), want_tail))
        ++report.violations;
      // The pre-crash snapshot must keep serving complete, correct
      // time-travel ancestry: nothing lost, nothing duplicated.
      const AncestryResult as_of =
          engine->ancestry_as_of(first_id, "data/derived1", 1);
      if (!as_of.missing.empty() || !ancestry_equal(as_of, want_frozen))
        ++report.violations;
    }
  }
  return report;
}

LsbCrashReport check_lsb_crash_sweep(const PropertyCheckOptions& options) {
  constexpr Architecture arch = Architecture::kS3SegmentLog;
  LsbCrashReport report;

  // Discover the lsb.* crash surface (seal, index publication, cleaner)
  // from an uninjected run that exercises all three phases.
  std::vector<std::string> points;
  {
    Fixture fx(arch, options.seed, aggressive_staleness(), options);
    drive(fx, mini_trace(options.seed, options.mini_files));
    settle(fx);
    auto* lsb = static_cast<LsbBackend*>(fx.backend.get());
    drive(fx, tail_trace(options.seed));
    settle(fx);
    lsb->publish_index();
    lsb->compact();
    for (const std::string& p : fx.env.failures().observed_points())
      if (util::starts_with(p, "lsb.")) points.push_back(p);
  }

  for (const std::string& point : points) {
    for (std::uint64_t occurrence : {std::uint64_t{1}, std::uint64_t{2}}) {
      Fixture fx(arch, options.seed + occurrence, aggressive_staleness(),
                 options);
      // Base workload, fully settled and checkpointed: committed ground
      // truth the crash must never touch.
      drive(fx, mini_trace(options.seed, options.mini_files));
      settle(fx);
      auto* lsb = static_cast<LsbBackend*>(fx.backend.get());
      lsb->publish_index();
      // Ground truth from an object the injected phase never touches:
      // the tail trace re-flushes data/derived1@1 (its observer saw only
      // the read), and a re-stored (object, version) replaces the record
      // set -- by design, on every architecture -- so derived1 itself is
      // not crash-invariant. Its ancestor derived0 is.
      const AncestryResult want = fetch_ancestry(*fx.backend, "data/derived0", 1);

      // The injected phase: more closes, a publication, a cleaner pass.
      fx.env.failures().arm_crash(point, occurrence);
      bool crashed = !drive(fx, tail_trace(options.seed));
      try {
        lsb->publish_index();
      } catch (const sim::CrashError&) {
        crashed = true;
      }
      try {
        lsb->compact();
      } catch (const sim::CrashError&) {
        crashed = true;
      }
      fx.env.failures().disarm(point);
      fx.env.clock().drain();
      ++report.crash_scenarios;
      if (crashed) ++report.crashed_runs;

      // No torn index, no causal hole in the raw settled state.
      const StateViolations v = check_state(arch, fx.services, *fx.topology);
      report.violations += v.atomicity + v.causal;

      // Client restart: a fresh backend over the same store recovers and
      // must serve the committed closure bit-identically.
      LsbBackendConfig cfg;
      cfg.shard_count = options.shard_count;
      cfg.parallelism = options.parallelism;
      LsbBackend fresh(fx.services, cfg);
      fresh.recover();
      if (!ancestry_equal(fetch_ancestry(fresh, "data/derived0", 1), want))
        ++report.violations;
      // And an uninjected cleaner pass must never change query results.
      fresh.compact();
      if (!ancestry_equal(fetch_ancestry(fresh, "data/derived0", 1), want))
        ++report.violations;
    }
  }
  return report;
}

}  // namespace provcloud::cloudprov

#include "cloudprov/properties.hpp"

#include <functional>
#include <memory>
#include <set>

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
      : arch(arch), options(options), env(seed, consistency), services(env) {
    reopen();
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

  /// Build the backend over this world's services with the fixture's own
  /// config. Called again, it is a client restart after a crash: a fresh
  /// backend that knows only what the store holds.
  void reopen() {
    switch (arch) {
      case Architecture::kS3Only:
        backend = make_backend(arch, services);
        break;
      case Architecture::kS3SimpleDb:
        backend = std::make_unique<SdbBackend>(
            services, SdbBackendConfig{.shard_count = options.shard_count,
                                       .parallelism = options.parallelism});
        break;
      case Architecture::kS3SimpleDbSqs: {
        WalBackendConfig cfg;
        cfg.shard_count = options.shard_count;
        cfg.parallelism = options.parallelism;
        backend = std::make_unique<WalBackend>(services, cfg);
        break;
      }
      case Architecture::kS3SegmentLog: {
        LsbBackendConfig cfg;
        cfg.shard_count = options.shard_count;
        cfg.parallelism = options.parallelism;
        // Small publish threshold: index publications (and their crash
        // points) fire inside the workload, not only at quiesce.
        cfg.index_publish_entries = 8;
        backend = std::make_unique<LsbBackend>(services, cfg);
        break;
      }
    }
  }

  LsbBackend& lsb() { return static_cast<LsbBackend&>(*backend); }

  const Architecture arch;
  const PropertyCheckOptions options;
  aws::CloudEnv env;
  CloudServices services;
  std::unique_ptr<ProvenanceBackend> backend;
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
  t.push_back(
      pass::ev_write(transform, "data/derived0", util::Bytes(256, 'd')));
  t.push_back(pass::ev_close(transform, "data/derived0"));
  t.push_back(pass::ev_exit(transform));

  t.push_back(pass::ev_exec(aggregate, "/usr/bin/aggregate", {"aggregate"},
                            workloads::synth_environment(rng, 1200)));
  t.push_back(pass::ev_read(aggregate, "data/derived0"));
  t.push_back(
      pass::ev_write(aggregate, "data/derived1", util::Bytes(128, 'e')));
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
/// checker's group size. An injected crash propagates as CrashError: the
/// client died partway -- with group_size > 1 mid-group-commit, which is
/// exactly the scenario the batched-submit sweep must score. With a
/// flush deadline set, the clock advances half a deadline between closes, so
/// crashes also land inside deadline-expiry flushes (the commit daemon, not
/// the submitter, holds the group). Every still-pending close is immediately
/// read back through the session: read-your-writes says the pending submit
/// must be observed without waiting for durability.
void drive(Fixture& fx, const pass::SyscallTrace& trace) {
  auto session = fx.backend->open_session(
      SessionConfig{.client_id = "client-0",
                    .max_group = fx.options.group_size,
                    .flush_deadline = fx.options.flush_deadline});
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
    if (fx.options.flush_deadline > 0)
      fx.env.clock().advance_by(fx.options.flush_deadline / 2);
  });
  observer.apply_trace(trace);
  observer.finish();
  const auto synced = session->sync();
  PROVCLOUD_REQUIRE_MSG(synced.has_value(),
                        "session sync failed: " + synced.error().message);
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
StateViolations check_state(Fixture& fx) {
  const Architecture arch = fx.arch;
  CloudServices& services = fx.services;
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

  // Arch 1 has no SimpleDB layout; every other architecture has one.
  const auto topology = fx.backend->topology();
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
    if (auto meta = services.sdb.peek_item(topology->domains().front(),
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
    for (const std::string& domain : topology->domains()) {
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
  for (const std::string& domain : topology->domains()) {
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
    auto item = services.sdb.peek_item(topology->domain_for_object(key),
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

/// The invariant a sweep scores after each injected crash. It holds its
/// own ground truth and returns the violations it finds.
using SweepCheck = std::function<std::uint64_t(Fixture&)>;

/// One crash-sweep scenario. `prepare` runs uninjected and returns the
/// invariant check; the armed crash then lands in `steps`, each run under
/// its own CrashError catch, so a crash in one step still lets the later
/// ones run (the dead client's backend keeps being driven).
struct SweepScenario {
  Architecture arch;
  std::string prefix;  // crash points swept: those starting with this
  std::vector<std::uint64_t> occurrences;
  std::function<SweepCheck(Fixture&)> prepare;
  std::vector<std::function<void(Fixture&)>> steps;
};

/// The crash-sweep engine. Discovery runs prepare plus steps once,
/// uninjected, and keeps the points under the prefix. Then every point x
/// occurrence gets a fresh fixture (seed + occurrence): prepare, arm, run
/// the steps, disarm, score the check.
void run_sweep(const SweepScenario& scenario,
               const PropertyCheckOptions& options, CrashSweepReport& report) {
  report.arch = scenario.arch;
  const auto run_steps = [&scenario](Fixture& fx) {
    for (const auto& step : scenario.steps) {
      try {
        step(fx);
      } catch (const sim::CrashError&) {
      }
    }
  };
  {
    Fixture fx(scenario.arch, options.seed, aggressive_staleness(), options);
    scenario.prepare(fx);
    run_steps(fx);
    for (const std::string& p : fx.env.failures().observed_points())
      if (util::starts_with(p, scenario.prefix)) report.points.push_back(p);
  }
  for (const std::string& point : report.points) {
    bool fired = false;
    for (const std::uint64_t occurrence : scenario.occurrences) {
      Fixture fx(scenario.arch, options.seed + occurrence,
                 aggressive_staleness(), options);
      const SweepCheck check = scenario.prepare(fx);
      sim::FailureInjector& failures = fx.env.failures();
      // The armed crash is one-shot: it fired iff the point's hit count
      // reached the armed hit.
      const std::uint64_t crash_hit = failures.hits(point) + occurrence;
      failures.arm_crash(point, occurrence);
      run_steps(fx);
      failures.disarm(point);
      ++report.crash_scenarios;
      if (failures.hits(point) >= crash_hit) {
        ++report.crashed_runs;
        fired = true;
      }
      report.violations += check(fx);
    }
    if (!fired) report.unfired.push_back(point);
  }
}

}  // namespace

PropertyReport check_properties(Architecture arch,
                                const PropertyCheckOptions& options) {
  PropertyReport report;

  // ------------------------------------------------------ crash sweep ----
  // The client is gone, but daemons (Arch 3's commit daemon) are part of the
  // system and keep running: settle() pumps them with the point still armed.
  // Remedial recovery (Arch 2's orphan scan) is deliberately NOT run:
  // Table 1 scores the protocol, not the cleanup.
  const pass::SyscallTrace trace = mini_trace(options.seed, options.mini_files);
  const SweepCheck check = [&report](Fixture& fx) {
    const StateViolations v = check_state(fx);
    report.atomicity_violations += v.atomicity;
    report.causal_violations += v.causal;
    report.ryw_checked += fx.ryw_checked;
    report.ryw_violations += fx.ryw_violations;
    return v.atomicity + v.causal;
  };
  run_sweep({.arch = arch,
             .prefix = "",
             .occurrences = {1, 7},
             .prepare = [&check](Fixture&) { return check; },
             .steps = {[&trace](Fixture& fx) { drive(fx, trace); }, settle}},
            options, report);
  report.atomicity = report.atomicity_violations == 0;
  report.causal_ordering = report.causal_violations == 0;

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
              : make_sdb_query_engine(fx.services, fx.backend->topology());
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

CrashSweepReport check_manifest_roll(Architecture arch,
                                     const PropertyCheckOptions& options) {
  PROVCLOUD_REQUIRE_MSG(arch != Architecture::kS3Only,
                        "manifest rolls need a SimpleDB layout");
  // Small blocks so multi-block rolls exist and after_block_put fires more
  // than once -- the sweep then lands crashes both early and mid-sequence.
  const manifest::ManifestWriterConfig roll_cfg{.block_entries = 4};
  const pass::SyscallTrace trace = mini_trace(options.seed, options.mini_files);
  const pass::SyscallTrace tail = tail_trace(options.seed);
  const auto roll = [&roll_cfg](Fixture& fx) {
    manifest::ManifestWriter writer(fx.services, fx.backend->topology(),
                                    roll_cfg);
    return writer.roll();
  };

  const auto prepare = [&](Fixture& fx) -> SweepCheck {
    drive(fx, trace);
    settle(fx);
    const auto first = roll(fx);
    PROVCLOUD_REQUIRE_MSG(first.has_value(), "first roll failed");
    const std::uint64_t first_id = first->snapshot_id;
    // The mutable tail lands after snapshot 1.
    drive(fx, tail);
    settle(fx);
    // Ground truth from the pure per-shard SimpleDB scatter walk, taken
    // before any crash: the live manifest walk must match it afterwards.
    auto scatter = make_sdb_query_engine(fx.services, fx.backend->topology());
    return [first_id, want_tail = scatter->ancestry("data/late0", 1),
            want_frozen = scatter->ancestry("data/derived1", 1)](
               Fixture& fx) -> std::uint64_t {
      settle(fx);
      // The catalog must bind *some* committed snapshot -- never an
      // uncommitted torso, never nothing.
      manifest::ManifestReader reader(fx.services, fx.backend->topology());
      if (!reader.open_current() || reader.snapshot_id() < first_id) return 1;
      auto engine =
          make_manifest_query_engine(fx.services, fx.backend->topology());
      std::uint64_t violations = 0;
      // The live walk (snapshot + tail fallback) must be bit-identical to
      // the scatter walk regardless of where the roll died.
      if (!ancestry_equal(engine->ancestry("data/late0", 1), want_tail))
        ++violations;
      // The pre-crash snapshot must keep serving complete, correct
      // time-travel ancestry: nothing lost, nothing duplicated.
      const AncestryResult as_of =
          engine->ancestry_as_of(first_id, "data/derived1", 1);
      if (!as_of.missing.empty() || !ancestry_equal(as_of, want_frozen))
        ++violations;
      return violations;
    };
  };

  CrashSweepReport report;
  run_sweep({.arch = arch,
             .prefix = "manifest.",
             .occurrences = {1, 2},
             .prepare = prepare,
             .steps = {[&roll](Fixture& fx) { roll(fx); }}},
            options, report);
  return report;
}

CrashSweepReport check_lsb_crash_sweep(const PropertyCheckOptions& options) {
  const pass::SyscallTrace trace = mini_trace(options.seed, options.mini_files);
  const pass::SyscallTrace tail = tail_trace(options.seed);

  // Base workload, fully settled and checkpointed: committed ground truth
  // the crash must never touch.
  const auto prepare = [&trace](Fixture& fx) -> SweepCheck {
    drive(fx, trace);
    settle(fx);
    fx.lsb().publish_index();
    // Ground truth from an object the injected phase never touches: the
    // tail trace re-flushes data/derived1@1 (its observer saw only the
    // read), and a re-stored (object, version) replaces the record set --
    // by design, on every architecture -- so derived1 itself is not
    // crash-invariant. Its ancestor derived0 is.
    return [want = fetch_ancestry(*fx.backend, "data/derived0", 1)](
               Fixture& fx) -> std::uint64_t {
      fx.env.clock().drain();
      // No torn index, no causal hole in the raw settled state.
      const StateViolations v = check_state(fx);
      std::uint64_t violations = v.atomicity + v.causal;
      // Client restart: a fresh backend over the same store recovers and
      // must serve the committed closure bit-identically ...
      fx.reopen();
      fx.backend->recover();
      if (!ancestry_equal(fetch_ancestry(*fx.backend, "data/derived0", 1),
                          want))
        ++violations;
      // ... and an uninjected cleaner pass must never change query results.
      fx.lsb().compact();
      if (!ancestry_equal(fetch_ancestry(*fx.backend, "data/derived0", 1),
                          want))
        ++violations;
      return violations;
    };
  };

  // The injected phase: more closes, a publication, a cleaner pass.
  CrashSweepReport report;
  run_sweep({.arch = Architecture::kS3SegmentLog,
             .prefix = "lsb.",
             .occurrences = {1, 2},
             .prepare = prepare,
             .steps = {[&tail](Fixture& fx) { drive(fx, tail); },
                       [](Fixture& fx) { fx.lsb().publish_index(); },
                       [](Fixture& fx) { fx.lsb().compact(); }}},
            options, report);
  return report;
}

}  // namespace provcloud::cloudprov

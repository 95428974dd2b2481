// The paper's Table 1, verified empirically: crash sweeps, consistency
// hammering and query-cost scaling per architecture.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "cloudprov/lsb/lsb_backend.hpp"
#include "cloudprov/manifest/writer.hpp"
#include "cloudprov/properties.hpp"
#include "pass/observer.hpp"

namespace {

using namespace provcloud::cloudprov;

PropertyCheckOptions fast_options() {
  PropertyCheckOptions o;
  o.seed = 7;
  o.mini_files = 6;
  o.reads_per_version = 3;
  // CI re-runs the whole ACID suite at session group sizes {1, 8, 25}
  // through this knob (crashes then land mid-group-commit); the group
  // tests below pin their own sizes and are env-independent.
  if (const char* env = std::getenv("PROVCLOUD_PROPERTIES_GROUP_SIZE"))
    o.group_size = static_cast<std::size_t>(std::strtoul(env, nullptr, 10));
  return o;
}

constexpr Architecture kAllArchitectures[] = {
    Architecture::kS3Only, Architecture::kS3SimpleDb,
    Architecture::kS3SimpleDbSqs, Architecture::kS3SegmentLog};

/// Crash points an uninjected run reaches when every backend performs
/// every operation it has: stores with a version bump, a read, a daemon
/// pump, quiesce, recovery, a manifest roll and a cleaner pass.
std::set<std::string> points_reached_by_every_operation() {
  namespace pass = provcloud::pass;
  using provcloud::util::Bytes;
  const pass::SyscallTrace trace = {
      pass::ev_exec(1, "/bin/gen"),
      pass::ev_write(1, "a", Bytes(600, 'a')),
      pass::ev_close(1, "a"),
      pass::ev_read(1, "a"),
      pass::ev_write(1, "b", Bytes(64, 'b')),
      pass::ev_close(1, "b"),
      pass::ev_write(1, "a", Bytes(64, 'c')),  // a version bump
      pass::ev_close(1, "a"),
      pass::ev_exit(1)};
  std::set<std::string> reached;
  for (const Architecture arch : kAllArchitectures) {
    provcloud::aws::CloudEnv env(3);
    CloudServices services(env);
    auto backend = make_backend(arch, services);
    pass::PassObserver observer(
        [&backend](const pass::FlushUnit& unit) { backend->store(unit); });
    observer.apply_trace(trace);
    observer.finish();
    backend->pump();
    backend->quiesce();
    backend->recover();
    EXPECT_TRUE(backend->read("a").has_value()) << to_string(arch);
    if (arch == Architecture::kS3SimpleDb ||
        arch == Architecture::kS3SimpleDbSqs) {
      EXPECT_TRUE(
          manifest::ManifestWriter(services, backend->topology()).roll());
    }
    if (arch == Architecture::kS3SegmentLog) {
      EXPECT_GT(static_cast<LsbBackend&>(*backend).compact(), 0u);
    }
    const auto& observed = env.failures().observed_points();
    reached.insert(observed.begin(), observed.end());
  }
  return reached;
}

class TableOneRow : public ::testing::TestWithParam<Architecture> {};

TEST_P(TableOneRow, MeasuredPropertiesMatchPaperClaims) {
  const PropertyReport report = check_properties(GetParam(), fast_options());

  // Build the backend's claims for comparison.
  provcloud::aws::CloudEnv env(1);
  CloudServices services(env);
  const auto claims = make_backend(GetParam(), services)->claims();

  EXPECT_EQ(report.atomicity, claims.atomicity)
      << "atomicity violations: " << report.atomicity_violations;
  EXPECT_EQ(report.consistency, claims.consistency)
      << "consistency violations: " << report.consistency_violations
      << " of " << report.reads_checked << " reads";
  EXPECT_EQ(report.causal_ordering, claims.causal_ordering)
      << "causal violations: " << report.causal_violations;
  EXPECT_EQ(report.efficient_query, claims.efficient_query)
      << "query growth " << report.query_growth << " ("
      << report.query_ops_small << " -> " << report.query_ops_large
      << " ops)";
  EXPECT_TRUE(report.matches(claims));
  EXPECT_GT(report.crash_scenarios, 4u);
  EXPECT_GT(report.crashed_runs, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllArchitectures, TableOneRow,
                         ::testing::Values(Architecture::kS3Only,
                                           Architecture::kS3SimpleDb,
                                           Architecture::kS3SimpleDbSqs,
                                           Architecture::kS3SegmentLog),
                         [](const auto& info) {
                           switch (info.param) {
                             case Architecture::kS3Only: return "S3";
                             case Architecture::kS3SimpleDb:
                               return "S3SimpleDB";
                             case Architecture::kS3SimpleDbSqs:
                               return "S3SimpleDBSQS";
                             case Architecture::kS3SegmentLog:
                               return "S3SegmentLog";
                           }
                           return "unknown";
                         });

TEST(TableOneTest, ArchTwoAtomicityFailureIsTheBetweenStoresCrash) {
  // The specific counterexample the paper describes must be among the
  // violations found for Architecture 2.
  const PropertyReport report =
      check_properties(Architecture::kS3SimpleDb, fast_options());
  EXPECT_FALSE(report.atomicity);
  EXPECT_GT(report.atomicity_violations, 0u);
}

TEST(TableOneTest, ConsistencyDetectionActuallyFired) {
  // Architectures 2/3 should have *detected* staleness (retries > 0
  // somewhere) rather than passing vacuously.
  const PropertyReport r2 =
      check_properties(Architecture::kS3SimpleDb, fast_options());
  EXPECT_GT(r2.reads_checked, 0u);
  EXPECT_TRUE(r2.consistency);
}

TEST(TableOneTest, QueryGrowthEvidence) {
  const PropertyReport s3 =
      check_properties(Architecture::kS3Only, fast_options());
  const PropertyReport sdb =
      check_properties(Architecture::kS3SimpleDb, fast_options());
  // S3's query cost roughly doubles with a doubled dataset; SimpleDB's
  // stays flat.
  EXPECT_GT(s3.query_growth, 1.5);
  EXPECT_LT(sdb.query_growth, 1.5);
  EXPECT_GT(s3.query_ops_small, sdb.query_ops_small);
}

TEST(TableOneTest, VerdictsAreLayoutIndependentUnderSharding) {
  // PR 1 regression: check_state peeked only kProvenanceDomain, so any
  // sharded layout misreported stored provenance as atomicity violations
  // (data without provenance) while real orphans in shards went unseen.
  PropertyCheckOptions o = fast_options();
  o.shard_count = 4;
  for (const Architecture arch :
       {Architecture::kS3SimpleDb, Architecture::kS3SimpleDbSqs}) {
    const PropertyReport base = check_properties(arch, fast_options());
    const PropertyReport sharded = check_properties(arch, o);
    EXPECT_EQ(sharded.atomicity, base.atomicity) << to_string(arch);
    EXPECT_EQ(sharded.consistency, base.consistency) << to_string(arch);
    EXPECT_EQ(sharded.causal_ordering, base.causal_ordering)
        << to_string(arch);
    EXPECT_EQ(sharded.efficient_query, base.efficient_query)
        << to_string(arch);
  }
}

TEST(TableOneTest, ShardedArchTwoStillFindsTheAtomicityHole) {
  // Sharding must not *hide* the real violations either: Arch 2's crash
  // between provenance and data store remains an atomicity failure.
  PropertyCheckOptions o = fast_options();
  o.shard_count = 4;
  const PropertyReport report =
      check_properties(Architecture::kS3SimpleDb, o);
  EXPECT_FALSE(report.atomicity);
  EXPECT_GT(report.atomicity_violations, 0u);
}

TEST(TableOneTest, VerdictsAreGroupSizeIndependent) {
  // Cross-close group commit must not change any Table 1 verdict: batched
  // submits are a protocol optimization, not a semantics change. The crash
  // sweep inside check_properties now crashes mid-group-commit, so this is
  // the ACID-under-batched-submits verification.
  for (const Architecture arch :
       {Architecture::kS3SimpleDb, Architecture::kS3SimpleDbSqs}) {
    PropertyCheckOptions base_options = fast_options();
    base_options.group_size = 1;
    const PropertyReport base = check_properties(arch, base_options);
    for (const std::size_t group : {std::size_t{8}, std::size_t{25}}) {
      PropertyCheckOptions o = fast_options();
      o.group_size = group;
      const PropertyReport batched = check_properties(arch, o);
      EXPECT_EQ(batched.atomicity, base.atomicity)
          << to_string(arch) << " group " << group;
      EXPECT_EQ(batched.consistency, base.consistency)
          << to_string(arch) << " group " << group;
      EXPECT_EQ(batched.causal_ordering, base.causal_ordering)
          << to_string(arch) << " group " << group;
      EXPECT_EQ(batched.efficient_query, base.efficient_query)
          << to_string(arch) << " group " << group;
    }
  }
}

TEST(TableOneTest, BatchedShardedArchTwoStillFindsTheAtomicityHole) {
  // Group commit widens the hole (one orphan per close in the group) but
  // must not hide it: a crash between the provenance batch and the data
  // PUTs is still an atomicity failure.
  PropertyCheckOptions o = fast_options();
  o.shard_count = 4;
  o.group_size = 8;
  const PropertyReport report = check_properties(Architecture::kS3SimpleDb, o);
  EXPECT_FALSE(report.atomicity);
  EXPECT_GT(report.atomicity_violations, 0u);
}

TEST(TableOneTest, BatchedShardedArchThreeKeepsFullProperties) {
  // Arch 3's WAL makes group commit safe: a crash mid-group leaves a
  // committed prefix the daemon replays and an incomplete suffix it never
  // applies, so all four properties survive batching + sharding.
  PropertyCheckOptions o = fast_options();
  o.shard_count = 4;
  o.group_size = 25;
  const PropertyReport report =
      check_properties(Architecture::kS3SimpleDbSqs, o);
  EXPECT_TRUE(report.atomicity)
      << "violations: " << report.atomicity_violations;
  EXPECT_TRUE(report.consistency);
  EXPECT_TRUE(report.causal_ordering)
      << "violations: " << report.causal_violations;
  EXPECT_TRUE(report.efficient_query);
}

TEST(TableOneTest, VerdictsSurviveDeadlineDrivenFlushes) {
  // With a flush deadline armed, the crash-sweep workload advances the
  // clock between closes, so injected crashes fire while the commit daemon
  // (not the submitter) is mid-deadline-flush. The Table 1 verdicts are a
  // protocol property and must not depend on *who* drained the group.
  for (const Architecture arch :
       {Architecture::kS3SimpleDb, Architecture::kS3SimpleDbSqs}) {
    PropertyCheckOptions base_options = fast_options();
    base_options.group_size = 8;
    const PropertyReport base = check_properties(arch, base_options);
    PropertyCheckOptions o = base_options;
    o.flush_deadline = 100 * provcloud::sim::kMillisecond;
    const PropertyReport deadline = check_properties(arch, o);
    EXPECT_EQ(deadline.atomicity, base.atomicity) << to_string(arch);
    EXPECT_EQ(deadline.consistency, base.consistency) << to_string(arch);
    EXPECT_EQ(deadline.causal_ordering, base.causal_ordering)
        << to_string(arch);
    EXPECT_EQ(deadline.efficient_query, base.efficient_query)
        << to_string(arch);
    EXPECT_GT(deadline.crash_scenarios, 0u) << to_string(arch);
  }
}

TEST(TableOneTest, ReadYourWritesHoldsAcrossTheCrashSweep) {
  // Every close the sweep leaves pending in a group is immediately read
  // back through the session; read-your-writes says the unsynced submit
  // must be observed. group_size > 1 guarantees pending submits exist
  // (Arch 1 flushes per close, so only the SimpleDB architectures produce
  // checkable pending reads).
  for (const Architecture arch :
       {Architecture::kS3SimpleDb, Architecture::kS3SimpleDbSqs}) {
    PropertyCheckOptions o = fast_options();
    o.group_size = 8;
    const PropertyReport report = check_properties(arch, o);
    EXPECT_GT(report.ryw_checked, 0u) << to_string(arch);
    EXPECT_EQ(report.ryw_violations, 0u) << to_string(arch);
  }
}

TEST(TableOneTest, ParallelBackendsReportTheSameProperties) {
  PropertyCheckOptions o = fast_options();
  o.shard_count = 4;
  o.parallelism = 4;
  const PropertyReport parallel =
      check_properties(Architecture::kS3SimpleDbSqs, o);
  EXPECT_TRUE(parallel.atomicity);
  EXPECT_TRUE(parallel.consistency);
  EXPECT_TRUE(parallel.causal_ordering);
  EXPECT_TRUE(parallel.efficient_query);
}

TEST(TableOneTest, CheckAllReturnsFourRows) {
  const auto rows = check_all_architectures(fast_options());
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].arch, Architecture::kS3Only);
  EXPECT_EQ(rows[1].arch, Architecture::kS3SimpleDb);
  EXPECT_EQ(rows[2].arch, Architecture::kS3SimpleDbSqs);
  EXPECT_EQ(rows[3].arch, Architecture::kS3SegmentLog);
}

TEST(TableOneTest, BatchedShardedArchFourKeepsAcidProperties) {
  // The segment log makes group commit atomic by construction: the whole
  // group seals into one immutable object, so a crash leaves either the
  // full group or an ignorable orphan -- never a torn close.
  PropertyCheckOptions o = fast_options();
  o.shard_count = 4;
  o.group_size = 25;
  const PropertyReport report =
      check_properties(Architecture::kS3SegmentLog, o);
  EXPECT_TRUE(report.atomicity)
      << "violations: " << report.atomicity_violations;
  EXPECT_TRUE(report.consistency);
  EXPECT_TRUE(report.causal_ordering)
      << "violations: " << report.causal_violations;
  EXPECT_FALSE(report.efficient_query);  // scan-based search, like Arch 1
}

TEST(TableOneTest, LsbCrashSweepIsCrashSafe) {
  // Dedicated Arch-4 sweep: crashes injected mid-seal, mid-index-publish
  // and mid-compaction must never tear the index or lose a committed
  // close, and an uninjected cleaner pass after recovery must leave
  // ancestry walks bit-identical.
  const CrashSweepReport report = check_lsb_crash_sweep(fast_options());
  EXPECT_GT(report.crash_scenarios, 8u);
  EXPECT_GT(report.crashed_runs, 0u);
  EXPECT_EQ(report.violations, 0u);
  EXPECT_TRUE(report.crash_safe());
}

TEST(TableOneTest, LsbCrashSweepSurvivesGroupedSubmits) {
  PropertyCheckOptions o = fast_options();
  o.group_size = 8;
  const CrashSweepReport report = check_lsb_crash_sweep(o);
  EXPECT_TRUE(report.crash_safe()) << report.violations << " violations in "
                                   << report.crash_scenarios << " scenarios";
}

TEST(TableOneTest, EveryCrashPointIsArmedAndFired) {
  // Every crash point the protocols register. A point the sweeps never
  // reach, or reach but never crash, is an untested protocol step: adding
  // one to the code fails here until a sweep covers it.
  const std::set<std::string> registered = {
      "s3.store.begin", "s3.store.before_put", "s3.store.after_put",
      "s3.store.after_overflow_put",
      "sdb.store.begin", "sdb.store.mid_putattrs",
      "sdb.store.between_prov_and_data", "sdb.store.after_data",
      "sdb.store.after_overflow_put",
      "wal.store.begin", "wal.store.after_begin", "wal.store.after_temp_put",
      "wal.store.mid_records", "wal.store.before_commit",
      "wal.store.after_commit",
      "commitd.begin", "commitd.after_receive", "commitd.after_copy",
      "commitd.after_sdb", "commitd.mid_message_delete",
      "commitd.before_temp_delete", "commitd.after_txn",
      "manifest.roll.begin", "manifest.roll.after_block_put",
      "manifest.roll.after_list_put", "manifest.roll.after_history",
      "manifest.roll.after_commit",
      "lsb.seal.begin", "lsb.seal.after_put",
      "lsb.index.begin", "lsb.index.mid_publish", "lsb.index.after_publish",
      "lsb.index.after_mark",
      "lsb.compact.begin", "lsb.compact.after_put",
      "lsb.compact.mid_republish", "lsb.compact.after_watermark",
      "lsb.compact.mid_delete", "lsb.compact.end"};
  ASSERT_EQ(registered.size(), 39u);

  std::vector<CrashSweepReport> sweeps;
  for (const Architecture arch : kAllArchitectures)
    sweeps.push_back(check_properties(arch, fast_options()));
  sweeps.push_back(
      check_manifest_roll(Architecture::kS3SimpleDb, fast_options()));
  sweeps.push_back(check_lsb_crash_sweep(fast_options()));

  std::set<std::string> discovered;
  for (const CrashSweepReport& sweep : sweeps) {
    discovered.insert(sweep.points.begin(), sweep.points.end());
    for (const std::string& point : sweep.unfired)
      ADD_FAILURE() << to_string(sweep.arch) << ": " << point
                    << " was armed but never fired";
  }
  EXPECT_EQ(discovered, registered);
  // A point on a path the sweeps never run is caught when any operation
  // reaches it.
  for (const std::string& point : points_reached_by_every_operation())
    EXPECT_TRUE(registered.contains(point))
        << point << " is reachable but not registered, so no sweep arms it";
}

TEST(TableOneTest, VerdictsSurviveBrownoutsAndThrottleStorms) {
  // ROADMAP 5b, hostile-environment sweep: a correlated brown-out (every
  // service 250ms slower per request) composed with a 503 throttle storm
  // (30% of attempts throttled, plus a 200 req/s admission rate) may
  // stretch elapsed time arbitrarily, but must not corrupt state or flip
  // any Table-1 verdict on any of the four architectures.
  PropertyCheckOptions o = fast_options();
  o.service_slowdown = 250 * provcloud::sim::kMillisecond;
  o.throttle_probability = 0.3;
  o.throttle_rate_per_sec = 200;

  for (const Architecture arch :
       {Architecture::kS3Only, Architecture::kS3SimpleDb,
        Architecture::kS3SimpleDbSqs, Architecture::kS3SegmentLog}) {
    const PropertyReport stormy = check_properties(arch, o);
    provcloud::aws::CloudEnv env(1);
    CloudServices services(env);
    const auto claims = make_backend(arch, services)->claims();
    EXPECT_TRUE(stormy.matches(claims))
        << to_string(arch) << ": atomicity=" << stormy.atomicity
        << " consistency=" << stormy.consistency
        << " causal=" << stormy.causal_ordering
        << " query=" << stormy.efficient_query << " (violations: "
        << stormy.atomicity_violations << "/" << stormy.consistency_violations
        << "/" << stormy.causal_violations << ")";
    EXPECT_GT(stormy.crash_scenarios, 4u) << to_string(arch);
  }
}

}  // namespace

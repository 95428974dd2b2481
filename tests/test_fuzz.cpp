// Randomized property tests: arbitrary syscall traces through PASS and the
// backends, with and without random crash injection, checking the
// invariants that hold by construction:
//
//   P1  flush order is causal: every xref emitted points to an
//       already-flushed (object, version);
//   P2  the provenance graph is acyclic;
//   P3  no (object, version) is flushed twice, and records within a version
//       are unique;
//   P4  after settling, every latest file version is readable, verified,
//       and byte-identical to PASS's ground truth -- on every architecture;
//   P5  after a random crash + daemon settling, the cloud state passes the
//       same no-torn-state checks the Table-1 sweep uses (for the
//       architectures that claim atomicity).
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "cloudprov/backend.hpp"
#include "cloudprov/consistency_read.hpp"
#include "cloudprov/serialize.hpp"
#include "pass/observer.hpp"
#include "util/md5.hpp"
#include "util/rng.hpp"

namespace {

using namespace provcloud::cloudprov;
using namespace provcloud::pass;
namespace aws = provcloud::aws;
namespace sim = provcloud::sim;
namespace util = provcloud::util;

/// A random but well-formed trace: processes exec, read existing files,
/// write/append files, close, fork, occasionally re-read their own output.
SyscallTrace random_trace(util::Rng& rng, std::size_t events) {
  SyscallTrace t;
  std::vector<Pid> pids;
  std::vector<std::string> files;
  Pid next_pid = 100;

  const auto some_file = [&]() -> std::string {
    if (files.empty() || rng.next_bool(0.3)) {
      files.push_back("f" + std::to_string(files.size()));
      return files.back();
    }
    return files[rng.next_below(files.size())];
  };
  const auto some_pid = [&]() -> Pid {
    if (pids.empty() || rng.next_bool(0.15)) {
      pids.push_back(next_pid++);
      t.push_back(ev_exec(pids.back(),
                          "/bin/tool" + std::to_string(rng.next_below(5)),
                          {"tool"}, {{"E", rng.next_hex(rng.next_below(96))}}));
      return pids.back();
    }
    return pids[rng.next_below(pids.size())];
  };

  for (std::size_t i = 0; i < events; ++i) {
    const Pid pid = some_pid();
    switch (rng.next_below(6)) {
      case 0:
      case 1: {
        const std::string f = some_file();
        t.push_back(ev_write(
            pid, f,
            util::Bytes(1 + rng.next_below(256),
                        static_cast<char>('a' + rng.next_below(26)))));
        if (rng.next_bool(0.7)) t.push_back(ev_close(pid, f));
        break;
      }
      case 2: {
        if (files.empty()) break;
        t.push_back(ev_read(pid, files[rng.next_below(files.size())]));
        break;
      }
      case 3: {
        const Pid child = next_pid++;
        pids.push_back(child);
        t.push_back(ev_fork(pid, child));
        break;
      }
      case 4: {
        if (files.empty()) break;
        t.push_back(ev_close(pid, files[rng.next_below(files.size())]));
        break;
      }
      case 5: {
        t.push_back(ev_exit(pid));
        break;
      }
    }
  }
  return t;
}

/// P1-P3 over the raw flush stream.
void check_flush_invariants(const std::vector<FlushUnit>& units) {
  std::set<std::pair<std::string, std::uint32_t>> flushed;
  for (const FlushUnit& u : units) {
    const auto key = std::make_pair(u.object, u.version);
    EXPECT_EQ(flushed.count(key), 0u)
        << u.object << ":" << u.version << " flushed twice";
    for (const ProvenanceRecord& r : u.records) {
      if (!r.is_xref()) continue;
      EXPECT_TRUE(flushed.count({r.xref().object, r.xref().version}) > 0)
          << u.object << ":" << u.version << " references unflushed "
          << r.xref().to_string();
    }
    // Duplicate records within a version are forbidden.
    for (std::size_t i = 0; i < u.records.size(); ++i)
      for (std::size_t j = i + 1; j < u.records.size(); ++j)
        EXPECT_FALSE(u.records[i] == u.records[j])
            << "duplicate record in " << u.object << ":" << u.version;
    flushed.insert(key);
  }
  // P2 is implied by P1: references only go to already-flushed nodes.
}

class FuzzTrace : public ::testing::TestWithParam<int> {};

TEST_P(FuzzTrace, FlushStreamInvariants) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<FlushUnit> units;
  PassObserver obs([&units](const FlushUnit& u) { units.push_back(u); });
  obs.apply_trace(random_trace(rng, 400));
  obs.finish();
  ASSERT_FALSE(units.empty());
  check_flush_invariants(units);
}

TEST_P(FuzzTrace, AllArchitecturesServeGroundTruth) {
  for (const Architecture arch :
       {Architecture::kS3Only, Architecture::kS3SimpleDb,
        Architecture::kS3SimpleDbSqs}) {
    util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 977);
    aws::ConsistencyConfig c;
    c.replicas = 3;
    c.propagation_min = 10 * sim::kMillisecond;
    c.propagation_max = 800 * sim::kMillisecond;
    aws::CloudEnv env(static_cast<std::uint64_t>(GetParam()), c);
    CloudServices services(env);
    auto backend = make_backend(arch, services);
    PassObserver obs([&backend](const FlushUnit& u) { backend->store(u); });
    obs.apply_trace(random_trace(rng, 250));
    obs.finish();
    env.clock().drain();
    backend->quiesce();
    env.clock().drain();

    // Latest flushed version per file must read back verified and intact.
    std::map<std::string, const FlushUnit*> latest;
    for (const auto& [key, unit] : obs.ground_truth())
      if (unit.kind == PnodeKind::kFile) {
        auto it = latest.find(key.first);
        if (it == latest.end() || it->second->version < unit.version)
          latest[key.first] = &unit;
      }
    for (const auto& [object, unit] : latest) {
      auto got = backend->read(object, 200);
      ASSERT_TRUE(got.has_value()) << to_string(arch) << " " << object;
      EXPECT_TRUE(got->verified) << to_string(arch) << " " << object;
      EXPECT_EQ(got->version, unit->version)
          << to_string(arch) << " " << object;
      EXPECT_EQ(*got->data, *unit->data) << to_string(arch) << " " << object;
    }
  }
}

TEST_P(FuzzTrace, WalSurvivesRandomCrash) {
  // Crash at a random occurrence of a random WAL crash point; after daemon
  // settling, the cloud must show no torn state (data <-> provenance
  // matched via MD5+nonce for every file object).
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 5);
  const std::vector<std::string> points = {
      "wal.store.begin",          "wal.store.after_begin",
      "wal.store.after_temp_put", "wal.store.mid_records",
      "wal.store.before_commit",  "wal.store.after_commit",
      "commitd.begin",            "commitd.after_receive",
      "commitd.after_copy",       "commitd.after_sdb",
      "commitd.mid_message_delete", "commitd.before_temp_delete",
      "commitd.after_txn"};
  aws::CloudEnv env(static_cast<std::uint64_t>(GetParam()),
                    aws::ConsistencyConfig::strong());
  CloudServices services(env);
  auto backend = make_backend(Architecture::kS3SimpleDbSqs, services);
  env.failures().arm_crash(points[rng.next_below(points.size())],
                           1 + rng.next_below(20));

  PassObserver obs([&backend](const FlushUnit& u) { backend->store(u); });
  try {
    obs.apply_trace(random_trace(rng, 300));
    obs.finish();
  } catch (const sim::CrashError&) {
    // client died; daemons keep going below
  }
  env.clock().drain();
  backend->quiesce();
  env.clock().drain();
  backend->recover();

  // No torn state: every file data object has a matching provenance item.
  for (const std::string& key : services.s3.peek_keys(kDataBucket)) {
    if (key.rfind(kOverflowPrefix, 0) == 0 || key.rfind(kTempPrefix, 0) == 0)
      continue;
    auto obj = services.s3.peek(kDataBucket, key);
    ASSERT_TRUE(obj.has_value());
    auto nonce_it = obj->metadata.find(kNonceMetaKey);
    ASSERT_NE(nonce_it, obj->metadata.end()) << key;
    auto item = services.sdb.peek_item(kProvenanceDomain,
                                       key + ":" + nonce_it->second);
    ASSERT_TRUE(item.has_value()) << "data without provenance: " << key;
    auto md5_it = item->find(kMd5Attribute);
    ASSERT_NE(md5_it, item->end()) << key;
    EXPECT_EQ(*md5_it->second.begin(),
              util::md5_with_nonce(*obj->data, nonce_it->second))
        << key;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTrace,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace

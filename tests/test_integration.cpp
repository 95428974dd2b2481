// End-to-end: full workloads through PASS into each architecture, then
// verify the cloud contents against PASS ground truth and compare the
// architectures' answers to each other.
#include <gtest/gtest.h>

#include <memory>

#include "cloudprov/backend.hpp"
#include "cloudprov/consistency_read.hpp"
#include "cloudprov/query.hpp"
#include "cloudprov/serialize.hpp"
#include "pass/observer.hpp"
#include "util/md5.hpp"
#include "workloads/combined.hpp"

namespace {

using namespace provcloud::cloudprov;
using namespace provcloud::pass;
namespace aws = provcloud::aws;
namespace sim = provcloud::sim;
namespace util = provcloud::util;
namespace workloads = provcloud::workloads;

workloads::WorkloadOptions tiny_options() {
  workloads::WorkloadOptions o;
  o.seed = 404;
  o.count_scale = 0.06;
  o.size_scale = 0.02;
  return o;
}

struct Pipeline {
  Pipeline(Architecture arch, const aws::ConsistencyConfig& consistency)
      : env(17, consistency),
        services(env),
        backend(make_backend(arch, services)),
        observer([this](const FlushUnit& u) { backend->store(u); }) {}

  void run(const SyscallTrace& trace) {
    observer.apply_trace(trace);
    observer.finish();
    env.clock().drain();
    backend->quiesce();
    env.clock().drain();
    backend->recover();
    env.clock().drain();
  }

  aws::CloudEnv env;
  CloudServices services;
  std::unique_ptr<ProvenanceBackend> backend;
  PassObserver observer;
};

/// Latest flushed version of each file object from ground truth.
std::map<std::string, const FlushUnit*> latest_files(const PassObserver& obs) {
  std::map<std::string, const FlushUnit*> latest;
  for (const auto& [key, unit] : obs.ground_truth()) {
    if (unit.kind != PnodeKind::kFile) continue;
    auto it = latest.find(key.first);
    if (it == latest.end() || it->second->version < unit.version)
      latest[key.first] = &unit;
  }
  return latest;
}

class PipelineTest : public ::testing::TestWithParam<Architecture> {};

TEST_P(PipelineTest, EveryFileReadableAndMatchesGroundTruth) {
  Pipeline p(GetParam(), aws::ConsistencyConfig::strong());
  p.run(workloads::build_combined_trace(tiny_options()));

  const auto latest = latest_files(p.observer);
  ASSERT_GT(latest.size(), 50u);
  for (const auto& [object, unit] : latest) {
    auto got = p.backend->read(object);
    ASSERT_TRUE(got.has_value()) << object;
    EXPECT_TRUE(got->verified) << object;
    EXPECT_EQ(got->version, unit->version) << object;
    EXPECT_EQ(*got->data, *unit->data) << object;
    EXPECT_FALSE(got->records.empty()) << object;
  }
}

TEST_P(PipelineTest, StoredProvenanceMatchesGroundTruthRecords) {
  Pipeline p(GetParam(), aws::ConsistencyConfig::strong());
  p.run(workloads::build_combined_trace(tiny_options()));

  const auto latest = latest_files(p.observer);
  std::size_t checked = 0;
  for (const auto& [object, unit] : latest) {
    if (checked >= 40) break;  // spot-check a prefix; full check is O(n^2)
    ++checked;
    auto prov = p.backend->get_provenance(object, unit->version);
    ASSERT_TRUE(prov.has_value()) << object;
    // Every ground-truth record must be present (order-insensitive).
    for (const auto& expected : unit->records) {
      bool found = false;
      for (const auto& r : *prov) found = found || r == expected;
      EXPECT_TRUE(found) << object << " missing " << expected.attribute << "="
                         << expected.value_string();
    }
  }
}

TEST_P(PipelineTest, WorksUnderEventualConsistency) {
  aws::ConsistencyConfig c;
  c.replicas = 3;
  c.propagation_min = 100 * sim::kMillisecond;
  c.propagation_max = 2 * sim::kSecond;
  c.sqs_sample_fraction = 0.5;
  Pipeline p(GetParam(), c);
  workloads::WorkloadOptions o = tiny_options();
  o.count_scale = 0.03;
  p.run(workloads::build_combined_trace(o));

  const auto latest = latest_files(p.observer);
  ASSERT_GT(latest.size(), 20u);
  for (const auto& [object, unit] : latest) {
    auto got = p.backend->read(object, 128);
    ASSERT_TRUE(got.has_value()) << object;
    EXPECT_TRUE(got->verified) << object;
    EXPECT_EQ(*got->data, *unit->data) << object;
  }
}

INSTANTIATE_TEST_SUITE_P(AllArchitectures, PipelineTest,
                         ::testing::Values(Architecture::kS3Only,
                                           Architecture::kS3SimpleDb,
                                           Architecture::kS3SimpleDbSqs),
                         [](const auto& info) {
                           switch (info.param) {
                             case Architecture::kS3Only: return "S3";
                             case Architecture::kS3SimpleDb: return "S3SimpleDB";
                             case Architecture::kS3SimpleDbSqs:
                               return "S3SimpleDBSQS";
                           }
                           return "unknown";
                         });

TEST(CrossArchitectureTest, QueryAnswersAgree) {
  // Architectures 2 and 3 must give identical query answers; Architecture
  // 1's scan-based engine must agree on Q2/Q3 for latest versions.
  const SyscallTrace trace = workloads::build_combined_trace(tiny_options());

  Pipeline p1(Architecture::kS3Only, aws::ConsistencyConfig::strong());
  p1.run(trace);
  Pipeline p2(Architecture::kS3SimpleDb, aws::ConsistencyConfig::strong());
  p2.run(trace);
  Pipeline p3(Architecture::kS3SimpleDbSqs, aws::ConsistencyConfig::strong());
  p3.run(trace);

  auto e1 = make_s3_query_engine(p1.services);
  auto e2 = make_sdb_query_engine(p2.services, p2.backend->topology());
  auto e3 = make_sdb_query_engine(p3.services, p3.backend->topology());

  const std::string program = "/usr/bin/blastall";
  const auto q2_1 = e1->q2_outputs_of(program);
  const auto q2_2 = e2->q2_outputs_of(program);
  const auto q2_3 = e3->q2_outputs_of(program);
  EXPECT_EQ(q2_2, q2_3) << "SimpleDB architectures must agree exactly";
  EXPECT_EQ(q2_1, q2_2) << "scan engine must find the same outputs";
  EXPECT_FALSE(q2_2.empty());

  const auto q3_2 = e2->q3_descendants_of(program);
  const auto q3_3 = e3->q3_descendants_of(program);
  EXPECT_EQ(q3_2, q3_3);
  // Descendants include the outputs.
  for (const auto& f : q2_2) EXPECT_EQ(q3_2.count(f), 1u) << f;
  EXPECT_GT(q3_2.size(), q2_2.size());  // summaries exist downstream
}

TEST(CrossArchitectureTest, WalStateConvergesToSdbState) {
  // After quiescence, Architecture 3 must hold exactly the same SimpleDB
  // items and S3 data objects as Architecture 2 given the same trace.
  const SyscallTrace trace = workloads::build_combined_trace(tiny_options());

  Pipeline p2(Architecture::kS3SimpleDb, aws::ConsistencyConfig::strong());
  p2.run(trace);
  Pipeline p3(Architecture::kS3SimpleDbSqs, aws::ConsistencyConfig::strong());
  p3.run(trace);

  const auto items2 = p2.services.sdb.peek_item_names(kProvenanceDomain);
  const auto items3 = p3.services.sdb.peek_item_names(kProvenanceDomain);
  EXPECT_EQ(items2, items3);

  for (const std::string& item : items2) {
    auto a = p2.services.sdb.peek_item(kProvenanceDomain, item);
    auto b = p3.services.sdb.peek_item(kProvenanceDomain, item);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(*a, *b) << item;
  }

  // Data objects: same keys (minus temp leftovers) and same contents.
  auto keys2 = p2.services.s3.peek_keys(kDataBucket);
  auto keys3 = p3.services.s3.peek_keys(kDataBucket);
  std::erase_if(keys3, [](const std::string& k) {
    return k.rfind(kTempPrefix, 0) == 0;
  });
  EXPECT_EQ(keys2, keys3);
}

TEST(IntegrationStatsTest, MeterCapturesAllServices) {
  Pipeline p(Architecture::kS3SimpleDbSqs, aws::ConsistencyConfig::strong());
  workloads::WorkloadOptions o = tiny_options();
  o.count_scale = 0.03;
  p.run(workloads::build_combined_trace(o));
  const auto snap = p.env.meter().snapshot();
  EXPECT_GT(snap.calls("s3", "PUT"), 0u);
  EXPECT_GT(snap.calls("s3", "COPY"), 0u);
  EXPECT_GT(snap.calls("sqs", "SendMessage"), 0u);
  EXPECT_GT(snap.calls("sqs", "ReceiveMessage"), 0u);
  // The commit daemon batches its writes by default.
  EXPECT_GT(snap.calls("sdb", "BatchPutAttributes"), 0u);
  EXPECT_GT(snap.storage_bytes("s3"), 0u);
}

}  // namespace

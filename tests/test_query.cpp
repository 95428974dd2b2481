// The query engines (Table 3): correctness against PASS ground truth and
// the cost asymmetry between the S3 scan and the indexed SimpleDB path.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "cloudprov/backend.hpp"
#include "cloudprov/query.hpp"
#include "cloudprov/serialize.hpp"
#include "pass/observer.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace provcloud::cloudprov;
using namespace provcloud::pass;
namespace aws = provcloud::aws;
namespace util = provcloud::util;

/// A small blast-shaped world: db files, two blast runs, one downstream
/// summary, plus unrelated noise files.
SyscallTrace blast_world() {
  util::Rng rng(3);
  SyscallTrace t;
  // Unrelated noise.
  t.push_back(ev_exec(1, "/bin/noise", {"noise"},
                      provcloud::workloads::synth_environment(rng, 600)));
  t.push_back(ev_write(1, "noise/a", "zzz"));
  t.push_back(ev_close(1, "noise/a"));
  t.push_back(ev_exit(1));
  // Database.
  t.push_back(ev_exec(2, "/usr/bin/formatdb", {"formatdb"},
                      provcloud::workloads::synth_environment(rng, 900)));
  t.push_back(ev_write(2, "blast/nr.psq", "database"));
  t.push_back(ev_close(2, "blast/nr.psq"));
  t.push_back(ev_exit(2));
  // Two blast runs.
  for (int q = 0; q < 2; ++q) {
    const Pid pid = 10 + q;
    const std::string query = "blast/q" + std::to_string(q);
    const std::string hits = "blast/hits" + std::to_string(q);
    t.push_back(ev_write(3, query, "seq"));
    t.push_back(ev_close(3, query));
    t.push_back(ev_exec(pid, "/usr/bin/blastall", {"blastall"},
                        provcloud::workloads::synth_environment(rng, 1200)));
    t.push_back(ev_read(pid, query));
    t.push_back(ev_read(pid, "blast/nr.psq"));
    t.push_back(ev_write(pid, hits, "alignment results"));
    t.push_back(ev_close(pid, hits));
    t.push_back(ev_exit(pid));
  }
  // Downstream: summary of hits0 (a blast descendant), and a second-level
  // descendant derived from the summary.
  t.push_back(ev_exec(20, "/usr/bin/python", {"python", "summarize.py"},
                      provcloud::workloads::synth_environment(rng, 700)));
  t.push_back(ev_read(20, "blast/hits0"));
  t.push_back(ev_write(20, "blast/summary", "stats"));
  t.push_back(ev_close(20, "blast/summary"));
  t.push_back(ev_exit(20));
  t.push_back(ev_exec(21, "/usr/bin/plot", {"plot"},
                      provcloud::workloads::synth_environment(rng, 700)));
  t.push_back(ev_read(21, "blast/summary"));
  t.push_back(ev_write(21, "blast/plot.png", "image"));
  t.push_back(ev_close(21, "blast/plot.png"));
  t.push_back(ev_exit(21));
  return t;
}

struct World {
  explicit World(Architecture arch)
      : env(51, aws::ConsistencyConfig::strong()), services(env) {
    backend = make_backend(arch, services);
    PassObserver obs([this](const FlushUnit& u) { backend->store(u); });
    obs.apply_trace(blast_world());
    obs.finish();
    env.clock().drain();
    backend->quiesce();
    env.clock().drain();
    stats = obs.stats();
    engine = arch == Architecture::kS3Only
                 ? make_s3_query_engine(services)
                 : make_sdb_query_engine(services, backend->topology());
  }
  aws::CloudEnv env;
  CloudServices services;
  std::unique_ptr<ProvenanceBackend> backend;
  std::unique_ptr<QueryEngine> engine;
  ObserverStats stats;
};

class QueryEngineTest : public ::testing::TestWithParam<Architecture> {};

TEST_P(QueryEngineTest, Q1RetrievesEveryObjectVersion) {
  World w(GetParam());
  const Q1Result r = w.engine->q1_all_provenance();
  if (GetParam() == Architecture::kS3Only) {
    // Arch 1 keeps one (the latest) provenance set per data object.
    EXPECT_EQ(r.object_versions,
              w.services.s3.peek_keys(kDataBucket).size() -
                  w.services.s3.peek_keys(kDataBucket, kOverflowPrefix).size());
  } else {
    // SimpleDB keeps one item per flushed object version.
    EXPECT_EQ(r.object_versions, w.stats.flush_units);
  }
  EXPECT_GT(r.records, 0u);
}

TEST_P(QueryEngineTest, Q2FindsExactlyTheBlastOutputs) {
  World w(GetParam());
  const std::set<std::string> outputs =
      w.engine->q2_outputs_of("/usr/bin/blastall");
  EXPECT_EQ(outputs,
            (std::set<std::string>{"blast/hits0", "blast/hits1"}));
}

TEST_P(QueryEngineTest, Q2OfUnknownProgramIsEmpty) {
  World w(GetParam());
  EXPECT_TRUE(w.engine->q2_outputs_of("/usr/bin/never-ran").empty());
}

TEST_P(QueryEngineTest, Q3FindsTransitiveDescendants) {
  World w(GetParam());
  const std::set<std::string> desc =
      w.engine->q3_descendants_of("/usr/bin/blastall");
  // hits0/hits1 themselves, the summary derived from hits0, and the plot
  // derived from the summary. Noise and inputs excluded.
  EXPECT_EQ(desc, (std::set<std::string>{"blast/hits0", "blast/hits1",
                                         "blast/summary", "blast/plot.png"}));
}

INSTANTIATE_TEST_SUITE_P(BothEngines, QueryEngineTest,
                         ::testing::Values(Architecture::kS3Only,
                                           Architecture::kS3SimpleDb),
                         [](const auto& info) {
                           return info.param == Architecture::kS3Only
                                      ? "S3"
                                      : "SimpleDB";
                         });

TEST(QueryCostTest, SimpleDbQ2IsOrdersOfMagnitudeCheaperThanS3) {
  World s3_world(Architecture::kS3Only);
  World sdb_world(Architecture::kS3SimpleDb);

  const auto s3_before = s3_world.env.meter().snapshot();
  s3_world.engine->q2_outputs_of("/usr/bin/blastall");
  const auto s3_cost = s3_world.env.meter().snapshot().diff(s3_before);

  const auto sdb_before = sdb_world.env.meter().snapshot();
  sdb_world.engine->q2_outputs_of("/usr/bin/blastall");
  const auto sdb_cost = sdb_world.env.meter().snapshot().diff(sdb_before);

  // S3 scans everything (HEAD per object + spill GETs); SimpleDB issues a
  // handful of indexed queries.
  EXPECT_GT(s3_cost.calls("s3"), 10u);
  EXPECT_LT(sdb_cost.calls("sdb"), 10u);
  EXPECT_GT(s3_cost.total_calls(), 3 * sdb_cost.total_calls());
  // And moves far more bytes.
  EXPECT_GT(s3_cost.bytes_out("s3"), sdb_cost.bytes_out("sdb"));
}

TEST(QueryCostTest, SdbQ1IssuesOneLookupPerItem) {
  World w(Architecture::kS3SimpleDb);
  const auto before = w.env.meter().snapshot();
  const Q1Result r = w.engine->q1_all_provenance();
  const auto diff = w.env.meter().snapshot().diff(before);
  // "needs to issue one query per item": GetAttributes per item plus the
  // enumeration pages.
  EXPECT_GE(diff.calls("sdb", "GetAttributes"), r.object_versions);
}

TEST(QueryCostTest, S3QueriesCostTheSameScanRegardlessOfQuery) {
  World w(Architecture::kS3Only);
  const auto before2 = w.env.meter().snapshot();
  w.engine->q2_outputs_of("/usr/bin/blastall");
  const auto q2 = w.env.meter().snapshot().diff(before2);
  const auto before3 = w.env.meter().snapshot();
  w.engine->q3_descendants_of("/usr/bin/blastall");
  const auto q3 = w.env.meter().snapshot().diff(before3);
  // Table 3: the S3 column is identical for all three queries -- the cost
  // is one full metadata scan.
  EXPECT_EQ(q2.calls("s3"), q3.calls("s3"));
  EXPECT_EQ(q2.bytes_out("s3"), q3.bytes_out("s3"));
}

}  // namespace

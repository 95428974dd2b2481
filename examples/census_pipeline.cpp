// The paper's introductory scenario, end to end.
//
// "Data from the US Census databases are released on the cloud by US Census
// Bureau. Scientists who wish to analyze this data for trends can download
// the data set to their local compute grid, process it, and then upload the
// results back to the cloud, easily sharing their results with fellow
// researchers."
//
// This example runs that workflow provenance-aware: the Census Bureau
// publishes shards, two research groups process them with different tool
// versions, and a third party then asks the provenance questions the paper
// motivates -- where did this result come from, and exactly how was it
// produced?
//
// Build & run:  ./build/examples/census_pipeline
#include <cstdio>

#include "cloudprov/backend.hpp"
#include "cloudprov/query.hpp"
#include "pass/observer.hpp"
#include "workloads/datagen.hpp"
#include "workloads/workload.hpp"

using namespace provcloud;
using namespace provcloud::cloudprov;

int main() {
  aws::CloudEnv env(/*seed=*/1790);  // first census year
  CloudServices services(env);
  auto backend = make_backend(Architecture::kS3SimpleDbSqs, services);
  pass::PassObserver observer(
      [&backend](const pass::FlushUnit& unit) { backend->store(unit); });
  util::Rng rng(1790);

  // --- The Census Bureau publishes the public data set -------------------
  const pass::Pid bureau = 10;
  observer.apply(pass::ev_exec(bureau, "/opt/census/publish",
                               {"publish", "--release", "acs-2008"},
                               workloads::synth_environment(rng, 1200)));
  std::vector<std::string> shards;
  for (int s = 0; s < 4; ++s) {
    const std::string shard = "census/acs-2008/part" + std::to_string(s);
    shards.push_back(shard);
    observer.apply(pass::ev_write(bureau, shard,
                                  workloads::synth_content(rng, 64 * 1024)));
    observer.apply(pass::ev_close(bureau, shard));
  }
  observer.apply(pass::ev_exit(bureau));
  std::printf("published %zu census shards\n", shards.size());

  // --- Group A: trend analysis with trendtool v1.2 ------------------------
  const pass::Pid group_a = 20;
  observer.apply(pass::ev_exec(group_a, "/opt/tools/trendtool",
                               {"trendtool", "--version=1.2", "--by-county"},
                               workloads::synth_environment(rng, 1600)));
  for (const std::string& shard : shards)
    observer.apply(pass::ev_read(group_a, shard));
  observer.apply(pass::ev_write(group_a, "results/groupA/county-trends.csv",
                                workloads::synth_content(rng, 24 * 1024)));
  observer.apply(pass::ev_close(group_a, "results/groupA/county-trends.csv"));
  observer.apply(pass::ev_exit(group_a));

  // --- Group B: reproduces the analysis with trendtool v1.3 ---------------
  const pass::Pid group_b = 30;
  observer.apply(pass::ev_exec(group_b, "/opt/tools/trendtool",
                               {"trendtool", "--version=1.3", "--by-county"},
                               workloads::synth_environment(rng, 1600)));
  for (const std::string& shard : shards)
    observer.apply(pass::ev_read(group_b, shard));
  observer.apply(pass::ev_write(group_b, "results/groupB/county-trends.csv",
                                workloads::synth_content(rng, 24 * 1024)));
  observer.apply(pass::ev_close(group_b, "results/groupB/county-trends.csv"));
  observer.apply(pass::ev_exit(group_b));

  backend->quiesce();
  env.clock().drain();

  // --- A third group compares the published results -----------------------
  // "If the reproduction does not yield identical results, comparing the
  // provenance will shed insight into the differences in the experiment."
  std::printf("\ncomparing the provenance of the two results:\n");
  for (const char* result : {"results/groupA/county-trends.csv",
                             "results/groupB/county-trends.csv"}) {
    auto read = backend->read(result);
    if (!read) {
      std::fprintf(stderr, "cannot read %s\n", result);
      return 1;
    }
    std::printf("  %s (v%u, verified=%s)\n", result, read->version,
                read->verified ? "yes" : "no");
    // Walk to the producing process and report the tool invocation.
    for (const pass::ProvenanceRecord& r : read->records) {
      if (!r.is_xref() || r.attribute != pass::attr::kInput) continue;
      auto proc = backend->get_provenance(r.xref().object, r.xref().version);
      if (!proc) continue;
      for (const pass::ProvenanceRecord& p : *proc) {
        if (p.attribute == pass::attr::kArgv)
          std::printf("    produced by: %s\n", p.value_string().c_str());
        if (p.attribute == pass::attr::kInput && p.is_xref())
          std::printf("    consumed:    %s\n", p.xref().to_string().c_str());
      }
    }
  }
  std::printf("  -> the provenance pinpoints the difference: "
              "--version=1.2 vs --version=1.3\n");

  // --- And a lineage query over the whole repository ---------------------
  auto engine = make_sdb_query_engine(services, backend->topology());
  const auto derived = engine->q3_descendants_of("/opt/tools/trendtool");
  std::printf("\nevery file derived from trendtool (indexed SimpleDB "
              "query):\n");
  for (const std::string& f : derived) std::printf("  %s\n", f.c_str());
  return 0;
}

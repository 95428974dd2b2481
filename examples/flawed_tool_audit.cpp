// The paper's flagship motivation, executed.
//
// "Imagine that a researcher discovers that a particular version of a
// widely-used analysis tool is flawed. She can identify all data sets
// affected by the flawed software by querying the provenance."
//
// This example builds a repository where many groups ran `blastall` (one
// version of which is flawed), then audits the cloud: find every output of
// the flawed tool version and everything transitively derived from those
// outputs -- the full contamination set -- with a handful of indexed
// SimpleDB queries instead of downloading the world.
//
// Build & run:  ./build/examples/flawed_tool_audit
#include <cstdio>
#include <set>

#include "cloudprov/backend.hpp"
#include "cloudprov/query.hpp"
#include "pass/observer.hpp"
#include "workloads/datagen.hpp"
#include "workloads/workload.hpp"

using namespace provcloud;
using namespace provcloud::cloudprov;

namespace {

/// One analysis campaign: `tool` reads the shared database and a query
/// file, writes a hits file; a summarizer derives a report from the hits.
void run_campaign(pass::PassObserver& observer, util::Rng& rng,
                  pass::Pid base_pid, const std::string& tool, int campaign) {
  const std::string dir = "lab" + std::to_string(campaign) + "/";
  const pass::Pid blast = base_pid, summarize = base_pid + 1;

  observer.apply(pass::ev_write(1, dir + "query.fa",
                                workloads::synth_content(rng, 2048)));
  observer.apply(pass::ev_close(1, dir + "query.fa"));

  observer.apply(pass::ev_exec(blast, tool,
                               {"blastall", "-i", dir + "query.fa"},
                               workloads::synth_environment(rng, 1500)));
  observer.apply(pass::ev_read(blast, dir + "query.fa"));
  observer.apply(pass::ev_read(blast, "shared/nr.psq"));
  observer.apply(pass::ev_write(blast, dir + "hits.out",
                                workloads::synth_content(rng, 16 * 1024)));
  observer.apply(pass::ev_close(blast, dir + "hits.out"));
  observer.apply(pass::ev_exit(blast));

  observer.apply(pass::ev_exec(summarize, "/usr/bin/python",
                               {"python", "report.py"},
                               workloads::synth_environment(rng, 1100)));
  observer.apply(pass::ev_read(summarize, dir + "hits.out"));
  observer.apply(pass::ev_write(summarize, dir + "report.pdf",
                                workloads::synth_content(rng, 8 * 1024)));
  observer.apply(pass::ev_close(summarize, dir + "report.pdf"));
  observer.apply(pass::ev_exit(summarize));
}

}  // namespace

int main() {
  aws::CloudEnv env(/*seed=*/13);
  CloudServices services(env);
  auto backend = make_backend(Architecture::kS3SimpleDb, services);
  pass::PassObserver observer(
      [&backend](const pass::FlushUnit& unit) { backend->store(unit); });
  util::Rng rng(13);

  // Shared reference database everyone reads.
  observer.apply(pass::ev_exec(1, "/usr/bin/formatdb", {"formatdb"},
                               workloads::synth_environment(rng, 1200)));
  observer.apply(pass::ev_write(1, "shared/nr.psq",
                                workloads::synth_content(rng, 256 * 1024)));
  observer.apply(pass::ev_close(1, "shared/nr.psq"));

  // Six campaigns: three used the good build, three the flawed one.
  const std::string good = "/opt/blast-2.2.18/bin/blastall";
  const std::string flawed = "/opt/blast-2.2.19-rc1/bin/blastall";
  for (int c = 0; c < 6; ++c)
    run_campaign(observer, rng, static_cast<pass::Pid>(100 + 10 * c),
                 c % 2 == 0 ? good : flawed, c);
  observer.finish();
  backend->quiesce();
  env.clock().drain();

  // --- the audit -----------------------------------------------------------
  auto engine = make_sdb_query_engine(services, backend->topology());

  const auto before = env.meter().snapshot();
  const std::set<std::string> direct = engine->q2_outputs_of(flawed);
  const std::set<std::string> contaminated = engine->q3_descendants_of(flawed);
  const auto cost = env.meter().snapshot().diff(before);

  std::printf("flawed tool: %s\n\n", flawed.c_str());
  std::printf("direct outputs of the flawed version:\n");
  for (const std::string& f : direct) std::printf("  %s\n", f.c_str());
  std::printf("\nfull contamination set (outputs + derived data):\n");
  for (const std::string& f : contaminated) {
    auto read = backend->read(f);
    std::printf("  %-24s %s\n", f.c_str(),
                read && read->verified ? "(verified readable)" : "");
  }

  // Everything produced by the good version must be untouched.
  const std::set<std::string> good_outputs = engine->q2_outputs_of(good);
  bool clean = true;
  for (const std::string& f : good_outputs) clean &= contaminated.count(f) == 0;
  std::printf("\ngood-version outputs incorrectly flagged: %s\n",
              clean ? "none" : "SOME (bug!)");

  std::printf("\naudit cost: %llu SimpleDB ops, %llu bytes out "
              "(no bulk download required)\n",
              static_cast<unsigned long long>(cost.calls("sdb")),
              static_cast<unsigned long long>(cost.bytes_out("sdb")));
  return clean ? 0 : 1;
}

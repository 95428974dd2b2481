// The First Provenance Challenge, answered from the cloud.
//
// The Provenance Challenge (Moreau et al.) defined an fMRI workflow and a
// set of canonical queries every provenance system was asked to answer.
// This example runs that workflow through PASS into Architecture 3, then
// answers the challenge's core query -- "find the process that led to
// Atlas X Graphic, i.e. everything it depends on" -- using the ancestry
// module, and emits the lineage as Graphviz for visualization.
//
// Build & run:  ./build/examples/provenance_challenge_queries
#include <cstdio>

#include "cloudprov/ancestry.hpp"
#include "cloudprov/backend.hpp"
#include "cloudprov/query.hpp"
#include "pass/observer.hpp"
#include "workloads/provchallenge.hpp"

using namespace provcloud;
using namespace provcloud::cloudprov;

int main() {
  aws::CloudEnv env(/*seed=*/2006);  // the year of the first challenge
  CloudServices services(env);
  auto backend = make_backend(Architecture::kS3SimpleDbSqs, services);

  // Run the five-stage fMRI workflow (align_warp -> reslice -> softmean ->
  // slicer -> convert) with 5 subjects.
  pass::PassObserver observer(
      [&backend](const pass::FlushUnit& unit) { backend->store(unit); });
  workloads::WorkloadOptions options;
  options.seed = 2006;
  options.size_scale = 0.05;  // small payloads; lineage is the point
  observer.apply_trace(
      workloads::ProvenanceChallengeWorkload().generate(options));
  observer.finish();
  backend->quiesce();
  env.clock().drain();
  std::printf("workflow stored: %llu object versions\n",
              static_cast<unsigned long long>(observer.stats().flush_units));

  // --- Challenge query 1: everything that led to the Atlas X Graphic ------
  const std::string target = "fmri/run0/atlas-x.gif";
  const AncestryResult lineage = fetch_ancestry(*backend, target, 1);
  std::printf("\nlineage of %s: %zu nodes (%zu unresolvable)\n", target.c_str(),
              lineage.graph.nodes().size(), lineage.missing.size());

  // Stage-by-stage narration, ancestors first.
  std::printf("\nexecution order (topological):\n");
  for (const pass::ObjectVersion& id : lineage.graph.topological_order()) {
    const AncestryNode* node = lineage.graph.find(id);
    if (node->kind != "process") continue;
    std::string name;
    for (const auto& r : node->records)
      if (r.attribute == pass::attr::kName && !r.is_xref()) name = r.text();
    std::printf("  %-22s (%s)\n", name.c_str(), id.to_string().c_str());
  }

  // The challenge's acceptance criterion: the lineage must reach back to
  // every anatomy input through all five stages.
  const auto ancestors = lineage.graph.ancestor_closure({target, 1});
  int anatomy_inputs = 0;
  bool saw_softmean = false, saw_align = false;
  for (const pass::ObjectVersion& a : ancestors) {
    if (a.object.find("anatomy") != std::string::npos &&
        a.object.find(".img") != std::string::npos)
      ++anatomy_inputs;
    const AncestryNode* node = lineage.graph.find(a);
    if (node == nullptr) continue;
    for (const auto& r : node->records) {
      if (r.attribute != pass::attr::kName || r.is_xref()) continue;
      saw_softmean |= r.text().find("softmean") != std::string::npos;
      saw_align |= r.text().find("align_warp") != std::string::npos;
    }
  }
  std::printf("\nlineage reaches %d anatomy inputs; softmean %s; align_warp "
              "%s\n",
              anatomy_inputs, saw_softmean ? "present" : "MISSING",
              saw_align ? "present" : "MISSING");

  // --- Challenge-style forward query: what came out of softmean? ----------
  auto engine = make_sdb_query_engine(services, backend->topology());
  const auto outputs = engine->q2_outputs_of("/usr/local/fsl/softmean");
  std::printf("\noutputs of softmean (indexed query):\n");
  for (const std::string& f : outputs) std::printf("  %s\n", f.c_str());

  // --- Graphviz export -----------------------------------------------------
  const std::string dot = lineage.graph.to_dot("atlas_x_lineage");
  std::printf("\nGraphviz lineage (first lines; pipe the full graph to "
              "`dot -Tsvg`):\n");
  std::size_t shown = 0, pos = 0;
  while (shown < 8 && pos < dot.size()) {
    const std::size_t nl = dot.find('\n', pos);
    std::printf("  %.*s\n", static_cast<int>(nl - pos), dot.c_str() + pos);
    pos = nl + 1;
    ++shown;
  }
  std::printf("  ... (%zu bytes total)\n", dot.size());

  return (anatomy_inputs == 5 && saw_softmean && saw_align) ? 0 : 1;
}

// Experiment A6: provenance as a cloud-side hint (the paper's section 7
// future work, quantified).
//
// A researcher's access pattern is provenance-correlated: open one output
// of a run, then its siblings, then the derived summary. We replay such a
// pattern over the blast dataset against a cloud edge cache, with and
// without the provenance prefetcher, across cache sizes.
//
// The claim to verify: mining the (already-stored) provenance index lifts
// the cache hit rate substantially at modest prefetch traffic -- the cloud
// can "take advantage of this provenance".
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "cloudprov/hints.hpp"
#include "cloudprov/manifest/reader.hpp"
#include "cloudprov/manifest/writer.hpp"
#include "cloudprov/query.hpp"
#include "workloads/blast.hpp"

using namespace provcloud;
using namespace provcloud::cloudprov;

namespace {

/// The provenance-correlated access pattern: for each blast run, read the
/// hits file, then the sibling hits of the same summary group, then the
/// summary itself. Interleave with unrelated re-reads for realism.
std::vector<std::string> build_access_pattern(std::size_t queries,
                                              std::size_t per_summary,
                                              util::Rng& rng) {
  std::vector<std::string> out;
  for (std::size_t group = 0; group * per_summary < queries; ++group) {
    const std::size_t start = group * per_summary;
    const std::size_t end = std::min(start + per_summary, queries);
    for (std::size_t q = start; q < end; ++q)
      out.push_back("blast/hits" + std::to_string(q) + ".out");
    out.push_back("blast/summary" + std::to_string(group) + ".txt");
    // Revisit one earlier object (temporal locality the LRU also exploits).
    if (group > 0 && rng.next_bool(0.5))
      out.push_back("blast/summary" + std::to_string(rng.next_below(group)) +
                    ".txt");
  }
  return out;
}

struct RunResult {
  PrefetchStats stats;
  std::uint64_t prefetch_gets = 0;
  std::uint64_t prefetch_queries = 0;
  std::uint64_t item_gets = 0;  // per-item GetAttributes hint mining issued
};

RunResult replay(bench::WorkloadRun& run, const std::vector<std::string>& pattern,
                 PrefetchConfig config,
                 std::shared_ptr<manifest::AncestorCache> ancestors = nullptr) {
  ProvenanceCache cache(run.services, config, run.backend->topology());
  if (ancestors != nullptr) cache.attach_ancestor_cache(std::move(ancestors));
  const auto before = run.env.meter().snapshot();
  for (const std::string& object : pattern) cache.read(object);
  const auto diff = run.env.meter().snapshot().diff(before);
  RunResult r;
  r.stats = cache.stats();
  r.prefetch_gets = diff.calls("s3", "GET.prefetch");
  r.prefetch_queries = diff.calls("sdb", "Query.prefetch");
  r.item_gets = diff.calls("sdb", "GetAttributes");
  return r;
}

}  // namespace

int main() {
  bench::print_header(
      "A6: provenance-hint prefetching vs plain LRU (paper section 7 "
      "future work)");

  // Build the blast dataset on Architecture 2.
  workloads::WorkloadOptions options;
  options.seed = 2009;
  options.count_scale = 1.0;
  options.size_scale = 0.25;  // smaller payloads; hit *rates* are the metric
  const workloads::BlastConfig blast_cfg;
  bench::WorkloadRun run(Architecture::kS3SimpleDb);
  run.run(workloads::BlastWorkload(blast_cfg).generate(options));

  util::Rng rng(2009);
  const std::vector<std::string> pattern = build_access_pattern(
      blast_cfg.queries, blast_cfg.queries_per_summary, rng);
  std::printf("dataset: blast workload; access pattern of %zu reads "
              "(run-correlated)\n\n",
              pattern.size());

  std::printf("%-10s | %-9s %12s | %-9s %12s %12s %10s\n", "cache", "LRU",
              "hit rate", "hints", "hit rate", "accuracy", "pf-traffic");
  bench::print_rule();

  bool ok = true;
  for (std::size_t capacity : {4u, 8u, 16u, 32u, 64u}) {
    PrefetchConfig lru;
    lru.cache_capacity = capacity;
    lru.use_provenance_hints = false;
    const RunResult plain = replay(run, pattern, lru);

    PrefetchConfig hints;
    hints.cache_capacity = capacity;
    hints.use_provenance_hints = true;
    const RunResult smart = replay(run, pattern, hints);

    std::printf("%-10zu | %5llu/%-3llu %11.1f%% | %5llu/%-3llu %11.1f%% %11.1f%% %10llu\n",
                capacity,
                static_cast<unsigned long long>(plain.stats.hits),
                static_cast<unsigned long long>(plain.stats.reads),
                100.0 * plain.stats.hit_rate(),
                static_cast<unsigned long long>(smart.stats.hits),
                static_cast<unsigned long long>(smart.stats.reads),
                100.0 * smart.stats.hit_rate(),
                100.0 * smart.stats.prefetch_accuracy(),
                static_cast<unsigned long long>(smart.prefetch_gets +
                                                smart.prefetch_queries));
    if (capacity >= 8) ok = ok && smart.stats.hit_rate() > plain.stats.hit_rate();
  }

  std::printf("\nshape check (provenance hints beat plain LRU at every "
              "reasonable cache size): %s\n",
              ok ? "PASS" : "FAIL");

  // --- hint mining through a warmed, shared AncestorCache ---
  //
  // An ancestry walk over the summaries already pulled every fragment the
  // hint miner wants. Sharing the walk's AncestorCache lets the prefetcher
  // skip its per-item GetAttributes reads entirely.
  bench::print_header("Hints + shared AncestorCache (walk-warmed)");
  const auto topology = run.backend->topology();
  manifest::ManifestWriter writer(run.services, topology);
  const auto rolled = writer.roll();
  PROVCLOUD_REQUIRE_MSG(rolled.has_value(), "snapshot roll failed");
  auto reader = std::make_shared<manifest::ManifestReader>(run.services,
                                                           topology);
  PROVCLOUD_REQUIRE_MSG(reader->open_current().has_value(),
                        "snapshot bind failed");
  auto engine = make_manifest_query_engine(run.services, reader);
  for (std::size_t group = 0;
       group * blast_cfg.queries_per_summary < blast_cfg.queries; ++group)
    engine->ancestry("blast/summary" + std::to_string(group) + ".txt", 1);

  PrefetchConfig warm_cfg;
  warm_cfg.cache_capacity = 32;
  const RunResult cold = replay(run, pattern, warm_cfg);
  const RunResult warm = replay(run, pattern, warm_cfg, reader->cache());
  std::printf("%-22s %12s %12s %14s %12s\n", "", "hit rate", "item-gets",
              "ancestor-hits", "pf-traffic");
  std::printf("%-22s %11.1f%% %12llu %14llu %12llu\n", "hints (cold)",
              100.0 * cold.stats.hit_rate(),
              static_cast<unsigned long long>(cold.item_gets),
              static_cast<unsigned long long>(cold.stats.ancestor_cache_hits),
              static_cast<unsigned long long>(cold.prefetch_gets +
                                              cold.prefetch_queries));
  std::printf("%-22s %11.1f%% %12llu %14llu %12llu\n", "hints (walk-warmed)",
              100.0 * warm.stats.hit_rate(),
              static_cast<unsigned long long>(warm.item_gets),
              static_cast<unsigned long long>(warm.stats.ancestor_cache_hits),
              static_cast<unsigned long long>(warm.prefetch_gets +
                                              warm.prefetch_queries));
  const bool warm_ok = warm.stats.ancestor_cache_hits > 0 &&
                       warm.item_gets < cold.item_gets;
  std::printf("\nshape check (warmed cache skips per-item provenance reads): "
              "%s\n",
              warm_ok ? "PASS" : "FAIL");
  ok = ok && warm_ok;
  std::printf("(the provenance index doubles as a prefetch oracle the cloud "
              "already stores -- the paper's closing conjecture.)\n");
  return ok ? 0 : 1;
}

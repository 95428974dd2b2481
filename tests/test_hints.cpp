// The provenance-hint edge cache (the paper's section 7 future work).
#include <gtest/gtest.h>

#include "cloudprov/hints.hpp"
#include "cloudprov/sdb_backend.hpp"
#include "pass/observer.hpp"

namespace {

using namespace provcloud::cloudprov;
using namespace provcloud::pass;
namespace aws = provcloud::aws;

/// One process writes a family of sibling outputs; a second derives a
/// report from out0.
SyscallTrace family_trace() {
  SyscallTrace t;
  t.push_back(ev_exec(1, "/bin/run", {"run"}));
  for (int i = 0; i < 6; ++i) {
    t.push_back(ev_write(1, "out" + std::to_string(i),
                         "data" + std::to_string(i)));
    t.push_back(ev_close(1, "out" + std::to_string(i)));
  }
  t.push_back(ev_exit(1));
  t.push_back(ev_exec(2, "/bin/report", {"report"}));
  t.push_back(ev_read(2, "out0"));
  t.push_back(ev_write(2, "report.pdf", "report"));
  t.push_back(ev_close(2, "report.pdf"));
  t.push_back(ev_exit(2));
  return t;
}

struct World {
  explicit World(std::size_t shard_count = 1, std::size_t parallelism = 1)
      : env(71, aws::ConsistencyConfig::strong()), services(env) {
    auto sdb = std::make_unique<SdbBackend>(
        services, SdbBackendConfig{.shard_count = shard_count,
                                   .parallelism = parallelism});
    topology = sdb->topology();
    backend = std::move(sdb);
    PassObserver obs([this](const FlushUnit& u) { backend->store(u); });
    obs.apply_trace(family_trace());
    obs.finish();
    env.clock().drain();
  }
  aws::CloudEnv env;
  CloudServices services;
  std::unique_ptr<ProvenanceBackend> backend;
  std::shared_ptr<const DomainTopology> topology;
};

TEST(HintsTest, MissFetchesFromS3) {
  World w;
  ProvenanceCache cache(w.services, PrefetchConfig{}, w.topology);
  auto data = cache.read("out0");
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(*data, "data0");
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(HintsTest, RepeatReadHits) {
  World w;
  ProvenanceCache cache(w.services, PrefetchConfig{}, w.topology);
  cache.read("out0");
  cache.read("out0");
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(HintsTest, SiblingsArePrefetched) {
  World w;
  ProvenanceCache cache(w.services, PrefetchConfig{}, w.topology);
  cache.read("out0");
  EXPECT_GT(cache.stats().prefetches, 0u);
  // Reading a sibling is now a hit.
  const std::uint64_t misses_before = cache.stats().misses;
  cache.read("out1");
  EXPECT_EQ(cache.stats().misses, misses_before);
  EXPECT_GT(cache.stats().prefetch_hits, 0u);
}

TEST(HintsTest, DescendantsArePrefetched) {
  World w;
  ProvenanceCache cache(w.services, PrefetchConfig{}, w.topology);
  cache.read("out0");
  // report.pdf derives from out0 via /bin/report: should be warm.
  EXPECT_TRUE(cache.is_cached("report.pdf"));
}

TEST(HintsTest, DisabledHintsMeanNoPrefetch) {
  World w;
  PrefetchConfig cfg;
  cfg.use_provenance_hints = false;
  ProvenanceCache cache(w.services, cfg, w.topology);
  cache.read("out0");
  EXPECT_EQ(cache.stats().prefetches, 0u);
  const std::uint64_t misses_before = cache.stats().misses;
  cache.read("out1");
  EXPECT_EQ(cache.stats().misses, misses_before + 1);
}

TEST(HintsTest, LruEvictionRespectsCapacity) {
  World w;
  PrefetchConfig cfg;
  cfg.cache_capacity = 2;
  cfg.use_provenance_hints = false;
  ProvenanceCache cache(w.services, cfg, w.topology);
  cache.read("out0");
  cache.read("out1");
  cache.read("out2");  // evicts out0
  EXPECT_LE(cache.cached_objects(), 2u);
  EXPECT_FALSE(cache.is_cached("out0"));
  EXPECT_TRUE(cache.is_cached("out2"));
}

TEST(HintsTest, TouchKeepsHotEntriesAlive) {
  World w;
  PrefetchConfig cfg;
  cfg.cache_capacity = 2;
  cfg.use_provenance_hints = false;
  ProvenanceCache cache(w.services, cfg, w.topology);
  cache.read("out0");
  cache.read("out1");
  cache.read("out0");  // refresh out0
  cache.read("out2");  // evicts out1, not out0
  EXPECT_TRUE(cache.is_cached("out0"));
  EXPECT_FALSE(cache.is_cached("out1"));
}

TEST(HintsTest, MissingObjectReturnsNull) {
  World w;
  ProvenanceCache cache(w.services, PrefetchConfig{}, w.topology);
  EXPECT_EQ(cache.read("never-existed"), nullptr);
}

TEST(HintsTest, PrefetchTrafficIsSeparatelyMetered) {
  World w;
  ProvenanceCache cache(w.services, PrefetchConfig{}, w.topology);
  const auto before = w.env.meter().snapshot();
  cache.read("out0");
  const auto diff = w.env.meter().snapshot().diff(before);
  EXPECT_EQ(diff.calls("s3", "GET") - diff.calls("s3", "GET.prefetch"),
            diff.calls("s3", "GET.prefetch") > 0
                ? diff.calls("s3", "GET") - diff.calls("s3", "GET.prefetch")
                : diff.calls("s3", "GET"));
  EXPECT_GT(diff.calls("s3", "GET.prefetch"), 0u);
  EXPECT_GT(diff.calls("sdb", "Query.prefetch"), 0u);
}

TEST(HintsTest, PrefetchAccuracyAccounting) {
  World w;
  ProvenanceCache cache(w.services, PrefetchConfig{}, w.topology);
  cache.read("out0");
  for (int i = 1; i < 6; ++i) cache.read("out" + std::to_string(i));
  const PrefetchStats& s = cache.stats();
  EXPECT_GT(s.prefetch_accuracy(), 0.3);
  EXPECT_GT(s.hit_rate(), 0.3);
}

// --- sharded layouts: hints must follow the topology, not assume the ---
// --- single "provenance" domain                                      ---

TEST(ShardedHintsTest, SiblingsPrefetchedAcrossShardDomains) {
  // PR 1 regression: with shard_count > 1 the old cache queried only
  // kProvenanceDomain and silently missed every non-shard-0 object.
  World w(/*shard_count=*/4);
  ProvenanceCache cache(w.services, PrefetchConfig{}, w.topology);
  cache.read("out0");
  EXPECT_GT(cache.stats().prefetches, 0u);
  const std::uint64_t misses_before = cache.stats().misses;
  cache.read("out1");
  EXPECT_EQ(cache.stats().misses, misses_before);
  EXPECT_GT(cache.stats().prefetch_hits, 0u);
}

TEST(ShardedHintsTest, DescendantsPrefetchedAcrossShardDomains) {
  World w(/*shard_count=*/4);
  ProvenanceCache cache(w.services, PrefetchConfig{}, w.topology);
  cache.read("out0");
  EXPECT_TRUE(cache.is_cached("report.pdf"));
}

TEST(ShardedHintsTest, HitRateMatchesSingleDomainLayout) {
  // The same access pattern must warm the same objects at any shard count.
  const auto stats_for = [](std::size_t shards, std::size_t parallelism) {
    World w(shards, parallelism);
    ProvenanceCache cache(w.services, PrefetchConfig{}, w.topology);
    cache.read("out0");
    for (int i = 1; i < 6; ++i) cache.read("out" + std::to_string(i));
    cache.read("report.pdf");
    return std::make_tuple(cache.stats().hits, cache.stats().misses,
                           cache.stats().prefetch_hits);
  };
  const auto base = stats_for(1, 1);
  EXPECT_EQ(stats_for(4, 1), base);
  EXPECT_EQ(stats_for(4, 4), base);  // parallel prefetch: same outcome
}

TEST(ShardedHintsTest, PrefetchQueriesScatterToEveryShard) {
  World w(/*shard_count=*/4);
  ProvenanceCache cache(w.services, PrefetchConfig{}, w.topology);
  const auto before = w.env.meter().snapshot();
  cache.read("out0");
  const auto diff = w.env.meter().snapshot().diff(before);
  // Each hint round scatters to all 4 domains, so prefetch queries come in
  // multiples of the shard count.
  EXPECT_GT(diff.calls("sdb", "Query.prefetch"), 0u);
  EXPECT_EQ(diff.calls("sdb", "Query.prefetch") % 4, 0u);
}

}  // namespace

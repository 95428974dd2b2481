// lineage: the read path. Set-up stores the combined trace into Arch 2 over
// four shard domains (scatter threads = 4) and rolls a manifest snapshot
// over most of it. The timed phase is one client's closed loop of a seeded
// query mix -- ancestry walks from roots drawn uniformly over every stored
// version, plus a few Q2/Q3 searches -- with a trickle of closes from the
// held-back tail of the trace beside it and periodic manifest rolls. After
// it, the manifest and scatter engines must answer a seeded sample of walks
// and both searches identically, and every file must read back as PASS
// submitted it.
#include <map>
#include <memory>
#include <set>

#include "cloudprov/manifest/reader.hpp"
#include "cloudprov/manifest/writer.hpp"
#include "cloudprov/query.hpp"
#include "cloudprov/sdb_backend.hpp"
#include "cloudprov/session.hpp"
#include "common.hpp"
#include "pass/observer.hpp"
#include "util/rng.hpp"
#include "workloads/blast.hpp"
#include "workloads/compile.hpp"
#include "workloads/provchallenge.hpp"

namespace perfbench {

namespace workloads = provcloud::workloads;
namespace manifest = provcloud::cloudprov::manifest;

namespace {

constexpr double kCountScale = 4.0;
constexpr std::size_t kShards = 4;
constexpr std::size_t kScatterThreads = 4;
constexpr std::size_t kGroup = 25;
/// Share of the trace's events stored (and rolled) during set-up; the rest
/// trickles in beside the queries.
constexpr double kRolledShare = 0.78;
constexpr std::size_t kQueries = 12000;
/// One Q2/Q3 search per this many queries, alternating.
constexpr std::size_t kSearchEvery = 6000;
/// Manifest rolls during the timed phase (evenly spaced).
constexpr std::size_t kRolls = 3;
constexpr std::size_t kCheckWalks = 40;

/// The combined trace with blast first: blast writes its outputs (the
/// Q2/Q3 answers) at its very end, so the set-up share must cover it. The
/// three traces are independent, so their order changes no dataset.
pass::SyscallTrace blast_first_trace(const workloads::WorkloadOptions& wl) {
  const workloads::BlastWorkload blast;
  const workloads::ProvenanceChallengeWorkload challenge;
  const workloads::CompileWorkload compile;
  pass::SyscallTrace trace;
  for (const workloads::Workload* w :
       {static_cast<const workloads::Workload*>(&blast),
        static_cast<const workloads::Workload*>(&challenge),
        static_cast<const workloads::Workload*>(&compile)}) {
    pass::SyscallTrace part = w->generate(wl);
    trace.insert(trace.end(), std::make_move_iterator(part.begin()),
                 std::make_move_iterator(part.end()));
  }
  return trace;
}

bool same_walk(const cloudprov::AncestryResult& a,
               const cloudprov::AncestryResult& b) {
  if (a.missing != b.missing) return false;
  if (a.graph.nodes().size() != b.graph.nodes().size()) return false;
  for (const auto& [id, node] : a.graph.nodes()) {
    const cloudprov::AncestryNode* other = b.graph.find(id);
    if (other == nullptr || other->ancestors != node.ancestors ||
        !same_records(other->records, node.records))
      return false;
  }
  return true;
}

}  // namespace

RepResult run_lineage(const RepOptions& options) {
  RepResult result;
  SpanRecorder* spans = options.spans;
  Tally tally;
  LayerInputs layers;

  // Set-up: store the first kRolledShare of the trace, roll a snapshot.
  const WallTimer setup;
  workloads::WorkloadOptions wl;
  wl.seed = options.seed;
  wl.count_scale = kCountScale;
  const pass::SyscallTrace trace = blast_first_trace(wl);
  aws::CloudEnv env(options.seed, aws::ConsistencyConfig::strong());
  cloudprov::CloudServices services(env);
  cloudprov::SdbBackend backend(
      services, cloudprov::SdbBackendConfig{.shard_count = kShards,
                                            .parallelism = kScatterThreads});
  const auto topology = backend.topology();
  auto session = backend.open_session(
      cloudprov::SessionConfig{.client_id = "lineage", .max_group = kGroup});
  std::vector<cloudprov::Ticket> tickets;
  std::vector<std::uint64_t> ticket_bytes;
  SpanRecorder* timed_spans = nullptr;  // set-up is not traced
  pass::PassObserver observer([&](const pass::FlushUnit& unit) {
    Span span(timed_spans, "session.submit");
    tickets.push_back(session->submit(unit));
    ticket_bytes.push_back(unit_bytes(unit));
  });
  const auto cut = static_cast<std::size_t>(
      static_cast<double>(trace.size()) * kRolledShare);
  for (std::size_t i = 0; i < cut; ++i) observer.apply(trace[i]);
  if (!session->sync().has_value()) result.fail("set-up sync failed");
  backend.quiesce();
  env.clock().drain();
  manifest::ManifestWriter writer(services, topology);
  if (!writer.roll().has_value()) result.fail("set-up roll failed");
  auto reader = std::make_shared<manifest::ManifestReader>(services, topology);
  auto engine = cloudprov::make_manifest_query_engine(services, reader);
  auto scatter = cloudprov::make_sdb_query_engine(services, topology);
  const std::size_t setup_closes = tickets.size();
  result.setup_s = setup.seconds();

  // Walk roots: every version durable so far, extended at each sync.
  std::vector<pass::ObjectVersion> roots;
  std::set<std::pair<std::string, std::uint32_t>> rooted;
  auto add_roots = [&] {
    for (const auto& [key, unit] : observer.ground_truth())
      if (rooted.insert(key).second) roots.push_back({key.first, key.second});
  };
  add_roots();

  // The close path beside the queries: a slice of held-back events, or the
  // final finish + sync. Priced and timed as close work.
  auto close_work = [&](auto&& work) {
    const sim::MeterSnapshot m0 = env.meter().snapshot();
    const WallTimer wall;
    work();
    tally.close_wall_s += wall.seconds();
    tally.close_usd += usd_between(m0, env.meter().snapshot());
  };
  auto sync = [&] {
    close_work([&] {
      Span span(spans, "session.sync");
      if (!session->sync().has_value()) result.fail("trickle sync failed");
    });
    add_roots();
  };

  timed_spans = spans;
  layers.base = layer_baseline(env);
  const WallTimer timed;
  const std::string program = workloads::BlastWorkload::kBlastProgram;
  util::Rng rng(options.seed ^ 0x11a9eull);
  const std::size_t tail = trace.size() - cut;
  const std::size_t per_query = (tail + kQueries - 1) / kQueries;
  std::size_t next_event = cut;
  std::set<std::pair<std::string, std::uint32_t>> walked;
  for (std::size_t q = 0; q < kQueries && result.correct; ++q) {
    close_work([&] {
      for (std::size_t k = 0; k < per_query && next_event < trace.size(); ++k) {
        Span span(spans, "pass.apply");
        observer.apply(trace[next_event++]);
      }
    });
    if (q > 0 && q % (kQueries / (kRolls + 1)) == 0) {
      sync();
      const sim::MeterSnapshot m0 = env.meter().snapshot();
      Span span(spans, "manifest.roll");
      if (!writer.roll().has_value()) result.fail("manifest roll failed");
      const sim::MeterSnapshot m1 = env.meter().snapshot();
      layers.roll_usd += usd_between(m0, m1);
      layers.roll_put_bytes +=
          m1.bytes_in("s3", "PUT") - m0.bytes_in("s3", "PUT");
    }

    if (spans != nullptr) spans->set_request(q + 1);
    const bool search = q % kSearchEvery == kSearchEvery / 2;
    const sim::MeterSnapshot m0 = env.meter().snapshot();
    const sim::SimTime v0 = env.elapsed_time();
    const WallTimer wall;
    if (search) {
      Span span(spans, "query.search");
      const bool q2 = (q / kSearchEvery) % 2 == 0;
      const std::size_t found = q2 ? engine->q2_outputs_of(program).size()
                                   : engine->q3_descendants_of(program).size();
      if (found == 0) result.fail("search found no blast outputs");
    } else {
      const pass::ObjectVersion& root = roots[rng.next_below(roots.size())];
      Span span(spans, "query.walk");
      const cloudprov::AncestryResult walk =
          engine->ancestry(root.object, root.version);
      if (!walk.missing.empty())
        result.fail("walk from " + root.to_string() + " missed " +
                    walk.missing.front().to_string());
      for (const auto& [id, node] : walk.graph.nodes())
        walked.insert({id.object, id.version});
    }
    const double wall_s = wall.seconds();
    tally.query_wall_s += wall_s;
    (search ? tally.search_ms : tally.walk_ms).push_back(wall_s * 1e3);
    tally.query_us.push_back(static_cast<double>(env.elapsed_time() - v0));
    tally.query_usd += usd_between(m0, env.meter().snapshot());
  }
  close_work([&] {
    Span span(spans, "pass.finish");
    while (next_event < trace.size()) observer.apply(trace[next_event++]);
    observer.finish();
  });
  sync();
  tally.walk_nodes = walked.size();

  for (std::size_t i = setup_closes; i < tickets.size(); ++i) {
    if (!tickets[i].ok()) {
      ++layers.ops.failed;
      continue;
    }
    tally.close_us.push_back(static_cast<double>(tickets[i].elapsed()));
  }
  for (std::size_t i = 0; i < tickets.size(); ++i)
    if (tickets[i].ok()) tally.user_bytes += ticket_bytes[i];
  if (layers.ops.failed > 0)
    result.fail(std::to_string(layers.ops.failed) + " closes not durable");
  tally.stored_bytes = stored_bytes(env.meter().snapshot());
  layers.cache = reader->cache()->stats();

  // Check: both engines answer a seeded sample of walks and both searches
  // identically (they are not timed).
  {
    Span span(spans, "bench.check");
    for (std::size_t i = 0; i < kCheckWalks && result.correct; ++i) {
      const pass::ObjectVersion& root = roots[rng.next_below(roots.size())];
      if (!same_walk(engine->ancestry(root.object, root.version),
                     scatter->ancestry(root.object, root.version)))
        result.fail("manifest and scatter walks differ from " +
                    root.to_string());
    }
    if (engine->q2_outputs_of(program) != scatter->q2_outputs_of(program))
      result.fail("manifest and scatter Q2 answers differ");
    if (engine->q3_descendants_of(program) !=
        scatter->q3_descendants_of(program))
      result.fail("manifest and scatter Q3 answers differ");
  }

  // Read back every file at its latest version.
  if (result.correct)
    layers.ops.failed += read_back_files(backend, env, observer.ground_truth(),
                                         spans, "query.read", tally, result);
  result.timed_s = timed.seconds();

  layers.env = &env;
  layers.spans = spans == nullptr ? nullptr : &spans->spans();
  layers.tally = &tally;
  layers.pass_events = trace.size() - cut;
  layers.closes = tally.close_us.size();
  layers.reads = tally.read_us.size();
  layers.queries = tally.query_us.size();
  layers.ops.attempted = tickets.size() - setup_closes + layers.reads +
                         layers.queries;
  result.ops = layers.ops;
  // The manifest reader scatters block GETs over the topology's threads;
  // their latency draws interleave in the env's RNG in thread order, so the
  // tail of the walk latencies is not bit-identical run to run.
  result.scheduling_dependent = {"query_p50_us", "query_p99_us"};
  add_end_to_end(tally, result);
  add_per_layer(layers, result);
  return result;
}

}  // namespace perfbench

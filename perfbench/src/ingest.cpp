// ingest: the paper's combined trace through PASS into Arch 4 (segment
// log), closed loop, one session, group 25, strong consistency, default
// LsbBackendConfig (auto-cleaner on). After the ingest, every file is read
// back and the ancestry of every version is walked; both must equal what
// PASS submitted.
#include <map>
#include <memory>
#include <set>

#include "cloudprov/ancestry.hpp"
#include "cloudprov/session.hpp"
#include "common.hpp"
#include "pass/observer.hpp"
#include "workloads/combined.hpp"

namespace perfbench {

namespace workloads = provcloud::workloads;

namespace {

constexpr double kCountScale = 4.0;
constexpr std::size_t kGroup = 25;

struct Submitted {
  cloudprov::Ticket ticket;
  std::uint64_t bytes = 0;
  bool cleaner_flush = false;  // made durable by a flush that ran the cleaner
};

}  // namespace

RepResult run_ingest(const RepOptions& options) {
  RepResult result;
  SpanRecorder* spans = options.spans;
  Tally tally;

  const WallTimer setup;
  workloads::WorkloadOptions wl;
  wl.seed = options.seed;
  wl.count_scale = kCountScale;
  const pass::SyscallTrace trace = workloads::build_combined_trace(wl);
  aws::CloudEnv env(options.seed, aws::ConsistencyConfig::strong());
  cloudprov::CloudServices services(env);
  cloudprov::LsbBackend backend(services);
  auto session = backend.open_session(
      cloudprov::SessionConfig{.client_id = "ingest", .max_group = kGroup});
  const obs::Counter& compactions = env.metrics().counter("lsb.compactions");
  result.setup_s = setup.seconds();

  // Timed: every event through PASS; each close PASS emits is a submit.
  LayerInputs layers;
  layers.base = layer_baseline(env);
  const WallTimer timed;
  std::vector<Submitted> submitted;
  std::size_t first_pending = 0;
  pass::PassObserver observer([&](const pass::FlushUnit& unit) {
    if (spans != nullptr) spans->set_request(submitted.size() + 1);
    Span span(spans, "session.submit");
    const std::uint64_t before = compactions.value();
    submitted.push_back(Submitted{session->submit(unit), unit_bytes(unit)});
    // A group flushes in submit order: the closes this submit made durable
    // are a prefix of the pending ones.
    const bool cleaned = compactions.value() != before;
    if (cleaned) span.rename("session.submit+cleaner");
    for (; first_pending < submitted.size() &&
           submitted[first_pending].ticket.done();
         ++first_pending)
      submitted[first_pending].cleaner_flush = cleaned;
  });
  for (const pass::SyscallEvent& event : trace) {
    Span span(spans, "pass.apply");
    observer.apply(event);
  }
  {
    Span span(spans, "pass.finish");
    observer.finish();
  }
  {
    Span span(spans, "session.sync");
    const auto synced = session->sync();
    if (!synced.has_value()) result.fail("sync: " + synced.error().message);
  }
  {
    Span span(spans, "lsb.quiesce");
    backend.quiesce();
    env.clock().drain();
  }
  tally.close_wall_s = timed.seconds();
  const sim::MeterSnapshot after_ingest = env.meter().snapshot();

  for (const Submitted& s : submitted) {
    if (!s.ticket.ok()) {
      ++layers.ops.failed;
      continue;
    }
    const auto us = static_cast<double>(s.ticket.elapsed());
    tally.close_us.push_back(us);
    tally.user_bytes += s.bytes;
    (s.cleaner_flush ? layers.cleaner_close_us : layers.other_close_us)
        .push_back(us);
  }
  tally.close_usd = usd_between(sim::MeterSnapshot{}, after_ingest);
  tally.stored_bytes = stored_bytes(after_ingest);
  if (layers.ops.failed > 0)
    result.fail(std::to_string(layers.ops.failed) + " closes not durable");

  // Read back every file at its latest version.
  const GroundTruth& truth = observer.ground_truth();
  if (result.correct)
    layers.ops.failed += read_back_files(backend, env, truth, spans, "lsb.read",
                                         tally, result);

  // Walk the ancestry of every version; every node's records must equal
  // the records PASS submitted for it.
  std::set<std::pair<std::string, std::uint32_t>> walked;
  const sim::MeterSnapshot before_walks = env.meter().snapshot();
  std::size_t i = 0;
  for (auto it = truth.begin(); it != truth.end() && result.correct; ++it, ++i) {
    const pass::ObjectVersion root{it->first.first, it->first.second};
    if (spans != nullptr) spans->set_request(i + 1);
    const sim::SimTime v0 = env.elapsed_time();
    const WallTimer wall;
    const cloudprov::AncestryResult walk = [&] {
      Span span(spans, "query.walk");
      return cloudprov::fetch_ancestry(backend, root.object, root.version);
    }();
    const double wall_s = wall.seconds();
    tally.query_wall_s += wall_s;
    tally.walk_ms.push_back(wall_s * 1e3);
    tally.query_us.push_back(static_cast<double>(env.elapsed_time() - v0));
    for (const auto& [id, node] : walk.graph.nodes())
      walked.insert({id.object, id.version});
    if (!walk.missing.empty()) {
      result.fail("walk from " + root.to_string() + " missed " +
                  walk.missing.front().to_string());
      break;
    }
    for (const auto& [id, node] : walk.graph.nodes()) {
      const auto it = truth.find({id.object, id.version});
      if (it == truth.end() || !same_records(node.records, it->second.records)) {
        result.fail("walk node " + id.to_string() + " differs from submitted");
        break;
      }
    }
  }
  tally.query_usd = usd_between(before_walks, env.meter().snapshot());
  tally.walk_nodes = walked.size();
  result.timed_s = timed.seconds();

  layers.env = &env;
  layers.spans = spans == nullptr ? nullptr : &spans->spans();
  layers.tally = &tally;
  layers.pass_events = observer.stats().events;
  layers.closes = tally.close_us.size();
  layers.reads = tally.read_us.size();
  layers.queries = tally.query_us.size();
  layers.lsb = backend.stats();
  layers.ops.attempted = submitted.size() + layers.reads + layers.queries;
  result.ops = layers.ops;
  add_end_to_end(tally, result);
  add_per_layer(layers, result);
  return result;
}

}  // namespace perfbench

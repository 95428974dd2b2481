#include "common.hpp"

#include <algorithm>
#include <tuple>

#include "cost/pricing.hpp"

namespace perfbench {
namespace cost = provcloud::cost;

void MetricSet::add(std::string name, double value, std::string unit,
                    std::uint64_t samples, MetricClass cls, std::string note) {
  metrics_.push_back(Metric{std::move(name), value, std::move(unit), samples,
                            cls, std::move(note)});
}

const Metric* MetricSet::find(const std::string& name) const {
  for (const Metric& m : metrics_)
    if (m.name == name) return &m;
  return nullptr;
}

double usd_between(const sim::MeterSnapshot& before,
                   const sim::MeterSnapshot& after) {
  sim::MeterSnapshot diff = after.diff(before);
  for (auto& [service, bytes] : diff.storage) {
    const auto it = before.storage.find(service);
    const std::uint64_t prior = it == before.storage.end() ? 0 : it->second;
    bytes = bytes > prior ? bytes - prior : 0;
  }
  return cost::estimate_cost(diff).total();
}

std::uint64_t stored_bytes(const sim::MeterSnapshot& snapshot) {
  std::uint64_t total = 0;
  for (const auto& [service, bytes] : snapshot.storage) total += bytes;
  return total;
}

bool same_records(std::vector<pass::ProvenanceRecord> a,
                  std::vector<pass::ProvenanceRecord> b) {
  auto key = [](const pass::ProvenanceRecord& r) {
    return std::tie(r.attribute, r.value);
  };
  auto less = [&key](const pass::ProvenanceRecord& x,
                     const pass::ProvenanceRecord& y) {
    return key(x) < key(y);
  };
  std::sort(a.begin(), a.end(), less);
  std::sort(b.begin(), b.end(), less);
  return a == b;
}

std::uint64_t read_back_files(cloudprov::ProvenanceBackend& backend,
                              aws::CloudEnv& env, const GroundTruth& truth,
                              SpanRecorder* spans, const char* span_name,
                              Tally& tally, RepResult& result) {
  std::map<std::string, std::uint32_t> latest;
  for (const auto& [key, unit] : truth)
    if (unit.kind == pass::PnodeKind::kFile) latest[key.first] = key.second;
  std::uint64_t failed = 0;
  for (const auto& [object, version] : latest) {
    const pass::FlushUnit& expect = truth.at({object, version});
    if (spans != nullptr) spans->set_request(tally.read_us.size() + 1);
    const sim::SimTime v0 = env.elapsed_time();
    const auto got = [&] {
      Span span(spans, span_name);
      return backend.read(object);
    }();
    tally.read_us.push_back(static_cast<double>(env.elapsed_time() - v0));
    if (!got.has_value()) {
      ++failed;
      result.fail("read " + object + ": " + got.error().message);
      break;
    }
    const std::string_view want =
        expect.data == nullptr ? std::string_view() : *expect.data;
    const std::string_view have =
        got->data == nullptr ? std::string_view() : *got->data;
    if (got->version != version || have != want ||
        !same_records(got->records, expect.records)) {
      result.fail("read-back of " + object + " differs from what was submitted");
      break;
    }
  }
  return failed;
}

std::uint64_t calls_of(const sim::MeterSnapshot& snapshot,
                       const std::string& service,
                       std::initializer_list<const char*> ops) {
  std::uint64_t n = 0;
  for (const char* op : ops) n += snapshot.calls(service, op);
  return n;
}

LayerBaseline layer_baseline(aws::CloudEnv& env) {
  LayerBaseline base;
  for (const std::string& name : env.metrics().counter_names())
    base.counters[name] = env.metrics().find_counter(name)->value();
  base.meter = env.meter().snapshot();
  base.elapsed_by_service = env.elapsed_by_service();
  return base;
}

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Adds `<prefix>_p50<suffix>` and `<prefix>_p99<suffix>`; a p99 needs at
/// least ten samples beyond it (1000 samples), or the rep fails.
void add_latency_pair(RepResult& result, const std::string& prefix,
                      const std::vector<double>& values) {
  if (tail_quantile(values.size()) < kP99) {
    result.fail(prefix + ": " + std::to_string(values.size()) +
                " samples, too few for a p99 with ten samples beyond it");
  }
  result.metrics.add(prefix + "_p50_us", percentile(values, kP50), "us_virt",
                     values.size(), MetricClass::kExact);
  result.metrics.add(prefix + "_p99_us", percentile(values, kP99), "us_virt",
                     values.size(), MetricClass::kExact);
}

/// Highest percentile the rule allows, for per-layer tails that may hold
/// fewer than 1000 samples; the note names the percentile used.
void add_tail(RepResult& result, const std::string& name,
              const std::vector<double>& values, const std::string& unit,
              MetricClass cls) {
  const Quantile q = std::min(tail_quantile(values.size()), kP99);
  const double value = q == 0 ? 0.0 : percentile(values, q);
  result.metrics.add(name, value, unit, values.size(), cls,
                     q == kP99 ? "" : (q == 0 ? "n<20" : quantile_label(q)));
}

}  // namespace

void add_end_to_end(const Tally& t, RepResult& result) {
  const auto closes = static_cast<double>(t.close_us.size());
  const auto queries = static_cast<double>(t.query_us.size());
  add_latency_pair(result, "close", t.close_us);
  result.metrics.add("usd_per_close", ratio(t.close_usd, closes), "usd",
                     t.close_us.size(), MetricClass::kExact);
  result.metrics.add("user_mb", static_cast<double>(t.user_bytes) / kMiB,
                     "MiB", t.close_us.size(), MetricClass::kExact,
                     "workload size, not a JSON metric");
  result.metrics.add("stored_bytes_per_user_byte",
                     ratio(static_cast<double>(t.stored_bytes),
                           static_cast<double>(t.user_bytes)),
                     "B/B", t.close_us.size(), MetricClass::kExact);
  add_latency_pair(result, "query", t.query_us);
  result.metrics.add("usd_per_query", ratio(t.query_usd, queries), "usd",
                     t.query_us.size(), MetricClass::kExact);
  add_latency_pair(result, "read", t.read_us);
  result.metrics.add("closes_per_s", ratio(closes, t.close_wall_s), "1/s",
                     t.close_us.size(), MetricClass::kWall);
  result.metrics.add("queries_per_s", ratio(queries, t.query_wall_s), "1/s",
                     t.query_us.size(), MetricClass::kWall);
}

void add_per_layer(const LayerInputs& in, RepResult& result) {
  MetricSet& m = result.metrics;
  const auto E = MetricClass::kExact;
  const auto W = MetricClass::kWall;
  const obs::MetricsRegistry& reg = in.env->metrics();
  auto counter = [&reg, &in](const char* name) -> double {
    const obs::Counter* c = reg.find_counter(name);
    if (c == nullptr) return 0.0;
    const auto base = in.base.counters.find(name);
    return static_cast<double>(
        c->value() - (base == in.base.counters.end() ? 0 : base->second));
  };
  auto hist_q = [&reg](const char* name, double q) -> double {
    const obs::Histogram* h = reg.find_histogram(name);
    return h == nullptr ? 0.0 : static_cast<double>(h->quantile(q));
  };
  auto hist_n = [&reg](const char* name) -> std::uint64_t {
    const obs::Histogram* h = reg.find_histogram(name);
    return h == nullptr ? 0 : h->count();
  };
  const sim::MeterSnapshot meter =
      in.env->meter().snapshot().diff(in.base.meter);
  const double closes = static_cast<double>(in.closes);
  const double ops = static_cast<double>(in.closes + in.reads + in.queries);

  // Span self time and per-call wall times, by span name.
  std::map<std::string, double> self_ms;
  std::map<std::string, std::vector<double>> call_ns;
  if (in.spans != nullptr) {
    const std::vector<std::int64_t> self = self_times(*in.spans);
    for (std::size_t i = 0; i < in.spans->size(); ++i) {
      const SpanRecord& s = (*in.spans)[i];
      self_ms[s.name] += static_cast<double>(self[i]) / 1e6;
      call_ns[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  auto self_of = [&self_ms](std::initializer_list<const char*> names) {
    double total = 0.0;
    for (const char* n : names) {
      const auto it = self_ms.find(n);
      if (it != self_ms.end()) total += it->second;
    }
    return total;
  };
  const std::uint64_t n_spans = in.spans == nullptr ? 0 : in.spans->size();

  // pass
  m.add("pass.events", static_cast<double>(in.pass_events), "count",
        in.pass_events, E);
  m.add("pass.closes", closes, "count", in.closes, E);
  m.add("pass.self_ms", self_of({"pass.apply", "pass.finish"}), "ms", n_spans,
        W);

  // session
  const double groups = counter("daemon.flush.group_full") +
                        counter("daemon.flush.deadline") +
                        counter("daemon.flush.sync");
  m.add("session.submit_ms", self_of({"session.submit", "session.submit+cleaner"}),
        "ms", n_spans, W);
  m.add("session.sync_ms", self_of({"session.sync", "frontend.sync_all"}), "ms",
        n_spans, W);
  m.add("session.groups", groups, "count", static_cast<std::uint64_t>(groups),
        E);
  m.add("session.group_size_p50", hist_q("daemon.group_size", 0.5), "count",
        hist_n("daemon.group_size"), E);
  m.add("session.flush_deadline_share",
        ratio(counter("daemon.flush.deadline"), groups), "ratio",
        static_cast<std::uint64_t>(groups), E);
  m.add("session.queue_wait_us_per_close",
        ratio(counter("idle.queue_wait_us"), closes), "us_virt", in.closes, E);

  // frontend
  cloudprov::Frontend::TenantStats totals;
  std::size_t tenants = 0;
  if (in.frontend != nullptr) {
    for (const std::string& name : in.frontend->tenants()) {
      const cloudprov::Frontend::TenantStats s = in.frontend->tenant_stats(name);
      totals.offered += s.offered;
      totals.accepted += s.accepted;
      totals.throttled += s.throttled + s.rejected;
      totals.shed += s.shed;
      ++tenants;
    }
  }
  const std::vector<double> no_calls;
  const auto offers = call_ns.find("frontend.offer");
  add_tail(result, "frontend.offer_ns_p99",
           offers == call_ns.end() ? no_calls : offers->second, "ns", W);
  m.add("frontend.pump_ms", self_of({"frontend.pump"}), "ms", n_spans, W);
  m.add("frontend.accept_ratio",
        ratio(static_cast<double>(totals.accepted),
              static_cast<double>(totals.offered)),
        "ratio", totals.offered, E);
  m.add("frontend.throttled", static_cast<double>(totals.throttled), "count",
        totals.offered, E);
  m.add("frontend.shed", static_cast<double>(totals.shed), "count",
        totals.offered, E);
  m.add("frontend.queue_depth_p99", hist_q("frontend.queue_depth", 0.99),
        "count", hist_n("frontend.queue_depth"), E);
  m.add("frontend.tenants_seen", static_cast<double>(tenants), "count",
        tenants, E);

  // lsb
  const double seal_bytes = counter("lsb.seal.bytes");
  const double rewritten = counter("lsb.compact.rewritten_bytes");
  const double reclaimed = counter("lsb.compact.reclaimed_bytes");
  const cloudprov::LsbBackend::SegmentStats lsb = in.lsb.value_or(
      cloudprov::LsbBackend::SegmentStats{});
  m.add("lsb.seals", counter("lsb.seals"), "count",
        static_cast<std::uint64_t>(counter("lsb.seals")), E);
  m.add("lsb.seal_mb", seal_bytes / kMiB, "MiB", 0, E);
  m.add("lsb.index_publishes", counter("lsb.index.publishes"), "count", 0, E);
  m.add("lsb.compactions", counter("lsb.compactions"), "count", 0, E);
  m.add("lsb.compact_rewritten_mb", rewritten / kMiB, "MiB", 0, E);
  m.add("lsb.compact_reclaimed_mb", reclaimed / kMiB, "MiB", 0, E);
  m.add("lsb.compact_useful_ratio", ratio(reclaimed, rewritten), "ratio", 0, E);
  m.add("lsb.write_amplification", ratio(seal_bytes, seal_bytes - rewritten),
        "ratio", 0, E);
  m.add("lsb.segments_live", static_cast<double>(lsb.segment_count), "count",
        0, E);
  m.add("lsb.garbage_ratio", lsb.garbage_ratio, "ratio", 0, E);
  add_tail(result, "lsb.cleaner_close_p99_us", in.cleaner_close_us, "us_virt",
           E);
  add_tail(result, "lsb.other_close_p99_us", in.other_close_us, "us_virt", E);

  // wal
  const double sqs_calls = static_cast<double>(meter.calls("sqs"));
  m.add("wal.pump_ms", self_of({"wal.pump", "wal.quiesce"}), "ms", n_spans, W);
  m.add("wal.sqs_calls_per_close", ratio(sqs_calls, closes), "ratio",
        in.closes, E);
  m.add("wal.sqs_receive_calls",
        static_cast<double>(meter.calls("sqs", "ReceiveMessage")), "count", 0,
        E);
  m.add("wal.ready_txns_p99", hist_q("wal.ready_txns", 0.99), "count",
        hist_n("wal.ready_txns"), E);

  // query / manifest
  const Tally& t = *in.tally;
  m.add("query.walk_ms_p50", percentile(t.walk_ms, kP50), "ms",
        t.walk_ms.size(), W);
  add_tail(result, "query.walk_ms_p99", t.walk_ms, "ms", W);
  m.add("query.search_ms_p50", percentile(t.search_ms, kP50), "ms",
        t.search_ms.size(), W);
  const double queries = static_cast<double>(in.queries);
  m.add("query.sdb_reads_per_query",
        ratio(static_cast<double>(calls_of(meter, "sdb",
                                           {"GetAttributes", "Query",
                                            "QueryWithAttributes", "Select"})),
              queries),
        "ratio", in.queries, E);
  m.add("query.s3_gets_per_query",
        ratio(static_cast<double>(meter.calls("s3", "GET")), queries), "ratio",
        in.queries, E);
  m.add("query.walk_nodes", static_cast<double>(t.walk_nodes), "count",
        t.walk_ms.size(), E);
  const auto cache =
      in.cache.value_or(cloudprov::manifest::AncestorCacheStats{});
  m.add("manifest.cache_hit_rate",
        ratio(static_cast<double>(cache.hits),
              static_cast<double>(cache.hits + cache.misses)),
        "ratio", cache.hits + cache.misses, E);
  m.add("manifest.roll_ms", self_of({"manifest.roll"}), "ms", n_spans, W);
  m.add("manifest.roll_usd", in.roll_usd, "usd", 0, E);
  m.add("manifest.roll_put_mb", static_cast<double>(in.roll_put_bytes) / kMiB,
        "MiB", 0, E);

  // aws. The critical-path shares are virtual time, but when scatter
  // branches tie the ledger's pick of the slowest one depends on thread
  // timing, so they are not bit-identical: they are reported as wall-class.
  auto by_service = in.env->elapsed_by_service();
  for (auto& [service, us] : by_service) {
    const auto base = in.base.elapsed_by_service.find(service);
    if (base != in.base.elapsed_by_service.end()) us -= base->second;
  }
  sim::SimTime critical = 0;
  for (const auto& [service, us] : by_service) critical += us;
  auto share = [&](const char* service) {
    const auto it = by_service.find(service);
    return it == by_service.end()
               ? 0.0
               : ratio(static_cast<double>(it->second),
                       static_cast<double>(critical));
  };
  m.add("aws.s3.put_mb_per_close",
        ratio(static_cast<double>(meter.bytes_in("s3", "PUT")) / kMiB, closes),
        "MiB", in.closes, E);
  m.add("aws.s3.gets_per_op",
        ratio(static_cast<double>(meter.calls("s3", "GET")), ops), "ratio", 0,
        E);
  m.add("aws.sdb.writes_per_close",
        ratio(static_cast<double>(
                  calls_of(meter, "sdb", {"PutAttributes", "BatchPutAttributes"})),
              closes),
        "ratio", in.closes, E);
  m.add("aws.sdb.reads_per_op",
        ratio(static_cast<double>(calls_of(
                  meter, "sdb",
                  {"GetAttributes", "Query", "QueryWithAttributes", "Select"})),
              ops),
        "ratio", 0, E);
  m.add("aws.throttle_injected", counter("throttle.injected"), "count", 0, E);
  m.add("aws.throttle_backoff_us_per_op",
        ratio(counter("idle.throttle_backoff_us"), ops), "us_virt", 0, E);
  for (const char* service : {"s3", "sdb", "sqs", "idle"})
    m.add(std::string("aws.critical_path_share.") + service, share(service),
          "ratio_wall", 0, W);
  m.add("aws.read_retries_per_read",
        ratio(counter("read.retries"), static_cast<double>(in.reads)), "ratio",
        in.reads, E);
  m.add("aws.read_retry_idle_us", counter("idle.read_retry_us"), "us_virt", 0,
        E);

  // end-to-end figures that only make sense next to the layer numbers
  m.add("error_rate", error_rate(in.ops), "ratio", in.ops.attempted, E);
  m.add("max_rate_ok", in.max_rate_ok, "1/s_virt", 0, E);
}

}  // namespace perfbench

// tenants: open loop in virtual time. Deterministic Poisson arrivals over
// zipfian tenants go through the Frontend (admission on, deadline flushes)
// into Arch 3 (S3 + SimpleDB + SQS) under the default eventually
// consistent replicas, with a SimpleDB partition throttle as the shared
// bottleneck and one storm window on the hottest tenant. A fifth of the
// arrivals are reads of objects whose tickets are already durable. The
// offered rate steps up through fixed rungs; each request is timed from its
// due time. After the run, every durable close must read back with its
// submitted bytes, and a provenance query of each must return the
// submitted records.
#include <deque>
#include <memory>

#include "cloudprov/query.hpp"
#include "cloudprov/serialize.hpp"
#include "cloudprov/wal_backend.hpp"
#include "common.hpp"
#include "util/rng.hpp"
#include "workloads/openloop.hpp"

namespace perfbench {

namespace workloads = provcloud::workloads;

namespace {

constexpr std::size_t kTenants = 10000;
constexpr double kZipf = 1.0;
/// Offered arrivals per virtual second, one rung after another.
constexpr double kRungRates[] = {100.0, 200.0, 300.0, 400.0};
constexpr sim::SimTime kRungLength = 10 * sim::kSecond;
/// The storm: the hottest tenant fires this rate during rung 2.
constexpr std::size_t kStormRung = 1;
constexpr double kStormRate = 400.0;
constexpr sim::SimTime kStormLength = 2 * sim::kSecond;
constexpr double kReadShare = 0.2;
/// How long after the daemon applied a close it may be read. Replicas catch
/// up 50 ms to 2 s after a write: at 500 ms a replica is stale with
/// probability 0.77, so a read attempt sees the close with probability at
/// least (1/3 + 2/3 * 0.23)^2 = 0.24, and 65 attempts all miss with
/// probability below 1e-7.
constexpr sim::SimTime kReadSettle = 500 * sim::kMillisecond;
constexpr std::uint64_t kCloseBytes = 1024;
/// The commit daemon's tick: an explicit WAL pump every virtual second.
constexpr sim::SimTime kDaemonTick = 1 * sim::kSecond;
/// SimpleDB partition throttle (requests per virtual second).
constexpr std::uint64_t kSdbRate = 60;
/// close_p99 limit of a rung for max_rate_ok.
constexpr double kLatencyLimitUs = 30.0 * 1e6;
constexpr std::size_t kQueryRounds = 5;

struct Arrival {
  sim::SimTime at = 0;
  std::size_t tenant = 0;
  std::size_t rung = 0;
  bool read = false;
};

std::vector<Arrival> schedule(std::uint64_t seed) {
  std::vector<Arrival> all;
  util::Rng kind(seed ^ 0x7e4a47ull);
  for (std::size_t r = 0; r < std::size(kRungRates); ++r) {
    workloads::OpenLoopOptions o;
    o.seed = seed * 31 + r;
    o.tenants = kTenants;
    o.zipf_s = kZipf;
    o.arrivals_per_sec = kRungRates[r];
    o.duration = kRungLength;
    o.close_bytes = kCloseBytes;
    if (r == kStormRung) {
      o.storm_tenant = 0;
      o.storm_rate = kStormRate;
      o.storm_start = kRungLength / 2;
      o.storm_duration = kStormLength;
    }
    const sim::SimTime offset = static_cast<sim::SimTime>(r) * kRungLength;
    for (const workloads::TenantArrival& a : workloads::open_loop_arrivals(o))
      all.push_back(Arrival{offset + a.at, a.tenant, r, kind.next_bool(kReadShare)});
  }
  return all;
}

/// Rebuild a histogram's samples at bucket resolution: the i-th smallest
/// sample is the upper edge of the bucket holding rank i.
std::vector<double> histogram_samples(const obs::Histogram& h) {
  const std::uint64_t n = h.count();
  std::vector<double> out;
  out.reserve(n);
  for (std::uint64_t i = 1; i <= n; ++i)
    out.push_back(static_cast<double>(
        h.quantile((static_cast<double>(i) - 0.5) / static_cast<double>(n))));
  return out;
}

/// Spread each bucket's samples evenly over the bucket: the j-th of k
/// samples at upper edge `hi` of bucket [lo, hi] becomes lo + (hi - lo) j/k,
/// the usual linear interpolation of a histogram quantile. Without it every
/// seed's p50 would read the same bucket edge. Takes the sorted edges
/// histogram_samples returns.
std::vector<double> interpolate_buckets(std::vector<double> edges) {
  for (std::size_t start = 0; start < edges.size();) {
    std::size_t end = start;
    while (end < edges.size() && edges[end] == edges[start]) ++end;
    const auto bucket =
        obs::Histogram::bucket_index(static_cast<std::uint64_t>(edges[start]));
    const auto lo = static_cast<double>(obs::Histogram::bucket_lower(bucket));
    const double hi = edges[start];
    const auto k = static_cast<double>(end - start);
    for (std::size_t i = start; i < end; ++i)
      edges[i] = lo + (hi - lo) * static_cast<double>(i - start + 1) / k;
    start = end;
  }
  return edges;
}

/// Multiset difference of two sorted sample lists (later minus earlier).
std::vector<double> sorted_difference(const std::vector<double>& later,
                                      const std::vector<double>& earlier) {
  std::vector<double> out;
  std::size_t j = 0;
  for (const double v : later) {
    if (j < earlier.size() && earlier[j] == v) {
      ++j;
      continue;
    }
    out.push_back(v);
  }
  return out;
}

struct Pending {
  cloudprov::FrontendTicket ticket;
  pass::FlushUnit unit;
  std::size_t rung = 0;
};

}  // namespace

RepResult run_tenants(const RepOptions& options) {
  RepResult result;
  SpanRecorder* spans = options.spans;
  Tally tally;
  LayerInputs layers;

  const WallTimer setup;
  const std::vector<Arrival> arrivals = schedule(options.seed);
  aws::CloudEnv env(options.seed);  // default: eventually consistent
  cloudprov::CloudServices services(env);
  cloudprov::WalBackend backend(services, cloudprov::WalBackendConfig{});
  aws::ThrottleConfig sdb_throttle;
  sdb_throttle.rate_per_sec = kSdbRate;
  sdb_throttle.burst = kSdbRate;
  env.set_service_throttle("sdb", sdb_throttle);
  cloudprov::FrontendConfig config;
  config.session.max_group = 32;
  config.session.flush_deadline = 200 * sim::kMillisecond;
  // 1 KB closes cost 2 units: 100 closes/s per tenant, twice what the
  // hottest tenant offers at the top rung, so only the storm is refused.
  config.default_quota.rate_per_sec = 200.0;
  config.default_quota.burst = 400.0;
  cloudprov::Frontend frontend(backend, env, config);
  result.setup_s = setup.seconds();

  layers.base = layer_baseline(env);
  const WallTimer timed;
  const obs::Histogram& close_hist = env.metrics().histogram("close.latency_us");
  util::Rng pick(options.seed ^ 0x4ead5ull);
  std::vector<std::uint64_t> seq(kTenants, 0);
  std::vector<Pending> pending;
  sim::SimTime now = 0, next_tick = kDaemonTick;
  // Durable closes in the order they were seen. A durable WAL close becomes
  // readable once the commit daemon applied it -- data under its real name
  // and its provenance item on the coordinators, checked with the services'
  // unbilled verification reads -- and kReadSettle has passed: some replicas
  // may still be stale, so reads retry, but the coordinator is always fresh
  // and the chance that a read exhausts its retries is negligible.
  std::vector<pass::FlushUnit> ok_closes;
  std::deque<std::size_t> unapplied;
  std::deque<std::pair<sim::SimTime, std::size_t>> settling;
  std::vector<std::size_t> readable;
  auto track_applied = [&] {
    for (std::size_t n = unapplied.size(); n > 0; --n) {
      const std::size_t index = unapplied.front();
      unapplied.pop_front();
      const pass::FlushUnit& unit = ok_closes[index];
      const bool applied =
          services.s3.peek(cloudprov::kDataBucket, unit.object).has_value() &&
          services.sdb
              .peek_item(backend.topology()->domain_for_object(unit.object),
                         cloudprov::item_name(unit.object, unit.version))
              .has_value();
      if (applied)
        settling.emplace_back(now, index);
      else
        unapplied.push_back(index);
    }
    while (!settling.empty() && settling.front().first + kReadSettle <= now) {
      readable.push_back(settling.front().second);
      settling.pop_front();
    }
  };
  std::vector<std::uint64_t> refused(std::size(kRungRates), 0);
  std::vector<double> rung_wall_s(std::size(kRungRates), 0.0);
  // Backlog at every daemon tick, per rung.
  std::vector<std::vector<double>> backlogs(std::size(kRungRates));
  std::vector<std::vector<double>> rung_samples(std::size(kRungRates));
  std::vector<double> seen_before;
  std::uint64_t forwarded = 0, closes_attempted = 0;
  std::size_t rung = 0;

  // Closes admitted and not shed, that the WAL daemon has not applied yet.
  auto backlog = [&] {
    return static_cast<double>(forwarded) -
           static_cast<double>(backend.committed_count());
  };
  auto reap = [&] {
    auto keep = pending.begin();
    for (auto it = pending.begin(); it != pending.end(); ++it) {
      if (!it->ticket.done()) {
        if (keep != it) *keep = std::move(*it);
        ++keep;
        continue;
      }
      if (it->ticket.ok()) {
        unapplied.push_back(ok_closes.size());
        ok_closes.push_back(std::move(it->unit));
      } else if (it->ticket.error().code ==
                 cloudprov::BackendErrorCode::kThrottled) {
        ++layers.ops.shed;
        --forwarded;
        ++refused[it->rung];
      } else {
        ++layers.ops.failed;
        result.fail("close " + it->unit.object + ": " +
                    it->ticket.error().message);
      }
    }
    pending.erase(keep, pending.end());
  };
  auto end_rung = [&] {
    std::vector<double> seen = histogram_samples(close_hist);
    rung_samples[rung] = sorted_difference(seen, seen_before);
    seen_before = std::move(seen);
  };

  for (std::size_t i = 0; i < arrivals.size() && result.correct; ++i) {
    const Arrival& a = arrivals[i];
    while (rung < a.rung) {
      end_rung();
      ++rung;
    }
    // Advance virtual time to the arrival's due time, ticking the daemon.
    while (next_tick <= a.at) {
      env.clock().advance_by(next_tick - now);
      now = next_tick;
      next_tick += kDaemonTick;
      {
        Span span(spans, "wal.pump");
        backend.pump();
      }
      track_applied();
      const auto tick_rung = std::min<std::size_t>(
          std::size(kRungRates) - 1, (now - 1) / kRungLength);
      backlogs[tick_rung].push_back(backlog());
    }
    if (a.at > now) {
      env.clock().advance_by(a.at - now);
      now = a.at;
    }
    if (spans != nullptr) spans->set_request(i + 1);

    if (a.read) {
      if (readable.empty()) continue;  // nothing applied and settled yet
      const pass::FlushUnit& unit =
          ok_closes[readable[pick.next_below(readable.size())]];
      const sim::SimTime v0 = env.elapsed_time();
      const auto got = [&] {
        Span span(spans, "wal.read");
        return backend.read(unit.object);
      }();
      tally.read_us.push_back(static_cast<double>(env.elapsed_time() - v0));
      if (!got.has_value()) {
        ++layers.ops.failed;
        result.fail("read of durable " + unit.object + ": " +
                    got.error().message);
      } else if (got->data == nullptr || *got->data != *unit.data) {
        result.fail("read of durable " + unit.object + " differs");
      }
      continue;
    }

    ++closes_attempted;
    const pass::FlushUnit unit =
        workloads::make_tenant_close(a.tenant, seq[a.tenant]++, kCloseBytes);
    const sim::MeterSnapshot m0 = env.meter().snapshot();
    const WallTimer wall;
    {
      const auto offered = [&] {
        Span span(spans, "frontend.offer");
        return frontend.offer("t" + std::to_string(a.tenant), unit);
      }();
      if (offered.has_value()) {
        ++forwarded;
        pending.push_back(Pending{*offered, unit, a.rung});
      } else {
        ++layers.ops.refused;
        ++refused[a.rung];
      }
      Span span(spans, "frontend.pump");
      frontend.pump();
    }
    tally.close_wall_s += wall.seconds();
    rung_wall_s[a.rung] += wall.seconds();
    tally.close_usd += usd_between(m0, env.meter().snapshot());
    reap();
  }
  {
    const sim::MeterSnapshot m0 = env.meter().snapshot();
    const WallTimer wall;
    {
      Span span(spans, "frontend.sync_all");
      if (!frontend.sync_all().has_value()) result.fail("sync_all failed");
    }
    reap();
    end_rung();
    {
      Span span(spans, "wal.quiesce");
      backend.quiesce();
      env.clock().drain();
    }
    tally.close_wall_s += wall.seconds();
    tally.close_usd += usd_between(m0, env.meter().snapshot());
  }
  if (!pending.empty()) result.fail("closes still pending after sync_all");

  // Per-rung latency (refusals count as missing the limit) and backlog.
  std::vector<Rung> rungs;
  for (std::size_t r = 0; r < std::size(kRungRates); ++r) {
    std::vector<double> samples = interpolate_buckets(rung_samples[r]);
    samples.insert(samples.end(), refused[r],
                   std::numeric_limits<double>::infinity());
    const double p99 = samples.empty() ? std::numeric_limits<double>::infinity()
                                       : percentile(samples, kP99);
    rungs.push_back(Rung{kRungRates[r], p99,
                         backlog_growing(backlogs[r], kRungRates[r])});
    std::printf("  rung %4.0f/s: %5zu closes, %4llu refused, %6.1f us wall/close, "
                "close p99 %9.0f us, backlog trend %+6.1f/s%s\n",
                kRungRates[r], rung_samples[r].size(),
                static_cast<unsigned long long>(refused[r]),
                rung_samples[r].empty()
                    ? 0.0
                    : rung_wall_s[r] * 1e6 /
                          static_cast<double>(rung_samples[r].size()),
                rungs.back().close_p99_us, trend(backlogs[r]),
                rungs.back().backlog_growing ? " (growing)" : "");
  }
  layers.max_rate_ok = max_rate_ok(rungs, kLatencyLimitUs);
  tally.close_us = interpolate_buckets(seen_before);
  for (const pass::FlushUnit& unit : ok_closes) tally.user_bytes += unit_bytes(unit);
  tally.stored_bytes = stored_bytes(env.meter().snapshot());
  if (tally.close_us.size() != ok_closes.size())
    result.fail("close.latency_us holds " + std::to_string(tally.close_us.size()) +
                " samples for " + std::to_string(ok_closes.size()) +
                " durable closes");

  // Check: every durable close reads back with its submitted bytes.
  {
    Span span(spans, "bench.check");
    for (const pass::FlushUnit& unit : ok_closes) {
      const auto got = backend.read(unit.object);
      if (!got.has_value() || got->data == nullptr || *got->data != *unit.data) {
        result.fail("durable close " + unit.object + " does not read back");
        break;
      }
    }
  }

  // Provenance queries: every durable close, kQueryRounds times over (one
  // round takes only tens of milliseconds, too short to time steadily).
  auto engine = cloudprov::make_sdb_query_engine(services, backend.topology());
  const std::size_t queries = kQueryRounds * ok_closes.size();
  const sim::MeterSnapshot before_queries = env.meter().snapshot();
  for (std::size_t i = 0; i < queries && result.correct; ++i) {
    const pass::FlushUnit& unit = ok_closes[i % ok_closes.size()];
    if (spans != nullptr) spans->set_request(i + 1);
    const sim::SimTime v0 = env.elapsed_time();
    const WallTimer wall;
    const cloudprov::AncestryResult walk = [&] {
      Span span(spans, "query.walk");
      return engine->ancestry(unit.object, unit.version);
    }();
    const double wall_s = wall.seconds();
    tally.query_wall_s += wall_s;
    tally.walk_ms.push_back(wall_s * 1e3);
    tally.query_us.push_back(static_cast<double>(env.elapsed_time() - v0));
    const cloudprov::AncestryNode* node =
        walk.graph.find({unit.object, unit.version});
    if (node == nullptr || !same_records(node->records, unit.records))
      result.fail("provenance of " + unit.object + " differs from submitted");
  }
  tally.query_usd = usd_between(before_queries, env.meter().snapshot());
  tally.walk_nodes = ok_closes.size();
  result.timed_s = timed.seconds();

  layers.env = &env;
  layers.spans = spans == nullptr ? nullptr : &spans->spans();
  layers.tally = &tally;
  layers.closes = ok_closes.size();
  layers.reads = tally.read_us.size();
  layers.queries = tally.query_us.size();
  layers.frontend = &frontend;
  layers.ops.attempted = closes_attempted + layers.reads + layers.queries;
  result.ops = layers.ops;
  add_end_to_end(tally, result);
  add_per_layer(layers, result);
  return result;
}

}  // namespace perfbench

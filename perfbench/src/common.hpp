// What every workload shares: the metric record, one repetition's result,
// the per-operation tally the end-to-end metrics are computed from, and
// small helpers over the library's public counters.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "aws/common/env.hpp"
#include "cloudprov/frontend/frontend.hpp"
#include "cloudprov/lsb/lsb_backend.hpp"
#include "cloudprov/manifest/ancestor_cache.hpp"
#include "pass/local_cache.hpp"
#include "sim/metering.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

namespace aws = provcloud::aws;
namespace cloudprov = provcloud::cloudprov;
namespace obs = provcloud::obs;
namespace pass = provcloud::pass;
namespace sim = provcloud::sim;
namespace util = provcloud::util;

/// Exact metrics come from the virtual clock and the meters: bit-identical
/// for a seed. Wall metrics come from the real clock and vary run to run.
enum class MetricClass { kExact, kWall };

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
  MetricClass cls = MetricClass::kExact;
  std::string note;  // e.g. which percentile the rule allowed
};

/// Ordered metric list with by-name lookup.
class MetricSet {
 public:
  void add(std::string name, double value, std::string unit,
           std::uint64_t samples, MetricClass cls, std::string note = "");
  const std::vector<Metric>& all() const { return metrics_; }
  const Metric* find(const std::string& name) const;

 private:
  std::vector<Metric> metrics_;
};

/// One repetition of a workload: set-up plus the timed phase plus checks.
struct RepResult {
  MetricSet metrics;
  OpCounts ops;
  bool correct = true;
  std::string failure;  // first failed output check
  double setup_s = 0.0;
  double timed_s = 0.0;  // wall time of the timed phase
  std::vector<SpanRecord> spans;
  /// Exact-class metrics whose value in this workload depends on thread
  /// scheduling (latency draws of concurrent scatter branches interleave in
  /// the env's one RNG stream): reported as the median over repetitions and
  /// left out of the bit-identity check.
  std::vector<std::string> scheduling_dependent;

  void fail(const std::string& why) {
    if (correct) failure = why;
    correct = false;
  }
};

struct RepOptions {
  std::uint64_t seed = 1;
  SpanRecorder* spans = nullptr;  // null: untraced
};

RepResult run_ingest(const RepOptions& options);
RepResult run_lineage(const RepOptions& options);
RepResult run_tenants(const RepOptions& options);

/// Seconds on the real clock since construction.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Per-operation measurements of one repetition: virtual latencies, wall
/// time spent inside the calls, and the dollars their meter diffs price at.
struct Tally {
  std::vector<double> close_us, read_us, query_us;
  double close_wall_s = 0.0, query_wall_s = 0.0;
  double close_usd = 0.0, query_usd = 0.0;
  std::uint64_t user_bytes = 0;    // data bytes of durable closes
  std::uint64_t stored_bytes = 0;  // bytes held by every service at the end
  std::uint64_t walk_nodes = 0;             // distinct nodes walked
  std::vector<double> walk_ms, search_ms;  // wall, per query
};

/// USD of the activity between two snapshots of one meter: requests,
/// transfer and box usage of the diff, plus one month of the storage the
/// interval added.
double usd_between(const sim::MeterSnapshot& before,
                   const sim::MeterSnapshot& after);

/// Bytes stored across all services in a snapshot.
std::uint64_t stored_bytes(const sim::MeterSnapshot& snapshot);

/// Order-insensitive record comparison.
bool same_records(std::vector<pass::ProvenanceRecord> a,
                  std::vector<pass::ProvenanceRecord> b);

/// Data bytes of a unit (0 for transient objects).
inline std::uint64_t unit_bytes(const pass::FlushUnit& unit) {
  return unit.data == nullptr ? 0 : unit.data->size();
}

/// PASS's ground truth: every unit it emitted, by (object, version).
using GroundTruth =
    std::map<std::pair<std::string, std::uint32_t>, pass::FlushUnit>;

/// Read every file in `truth` at its latest version through `backend`,
/// timing each read (virtual and wall) into `tally`. Each must return the
/// submitted data, version and records, or `result` fails. Returns the
/// number of reads the backend answered with an error.
std::uint64_t read_back_files(cloudprov::ProvenanceBackend& backend,
                              aws::CloudEnv& env, const GroundTruth& truth,
                              SpanRecorder* spans, const char* span_name,
                              Tally& tally, RepResult& result);

/// Sum of the calls a snapshot holds for `ops` of `service`.
std::uint64_t calls_of(const sim::MeterSnapshot& snapshot,
                       const std::string& service,
                       std::initializer_list<const char*> ops);

/// Counters, meter and client critical path at one instant.
struct LayerBaseline {
  std::map<std::string, std::uint64_t> counters;
  sim::MeterSnapshot meter;
  std::map<std::string, sim::SimTime, std::less<>> elapsed_by_service;
};
LayerBaseline layer_baseline(aws::CloudEnv& env);

/// Everything the per-layer metrics are computed from. Workloads fill the
/// pieces that apply to them; the rest stay empty and report 0.
struct LayerInputs {
  aws::CloudEnv* env = nullptr;
  /// The env as the timed phase found it; counters, meter and critical
  /// path are reported as growth since then.
  LayerBaseline base;
  const std::vector<SpanRecord>* spans = nullptr;
  const Tally* tally = nullptr;
  std::uint64_t pass_events = 0;
  std::uint64_t closes = 0;  // durable closes
  std::uint64_t reads = 0;
  std::uint64_t queries = 0;
  std::optional<cloudprov::LsbBackend::SegmentStats> lsb;
  std::vector<double> cleaner_close_us, other_close_us;
  const cloudprov::Frontend* frontend = nullptr;
  std::optional<cloudprov::manifest::AncestorCacheStats> cache;
  double roll_usd = 0.0;
  std::uint64_t roll_put_bytes = 0;
  double max_rate_ok = 0.0;
  OpCounts ops;
};

/// The end-to-end metrics every workload reports (setup_s and peak_rss_mb
/// are added by main()). Fails `result` when a latency set has too few
/// samples for its named percentile.
void add_end_to_end(const Tally& tally, RepResult& result);

/// Every per-layer metric, 0 where a layer is not exercised
/// (obs.trace_overhead_ratio is added by main()).
void add_per_layer(const LayerInputs& in, RepResult& result);

}  // namespace perfbench

// perfbench: one named workload, one seed, a fixed measuring time.
//
//   perfbench --workload <ingest|lineage|tenants> --seed <n> --seconds <s>
//             --trace <0|1> [--trace-out <path>]
//   perfbench --list-metrics
//
// A run repeats the workload (fresh set-up each time, same seed) until
// --seconds of wall time have passed, at least kMinReps times. Exact
// metrics (virtual clock, meters) must come out bit-identical in every
// repetition, or the run fails; wall-clock metrics report the median.
// --trace 1 alternates untraced and traced repetitions: the traced ones give
// the per-layer numbers and the Chrome trace, the pair gives the tracing
// overhead. The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the exit code is non-zero when any output check failed.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common.hpp"

using namespace perfbench;

namespace {

/// The metrics the final JSON line carries, per mode, with their classes.
/// BENCHMARK.json lists exactly these names and units.
struct MetricSpec {
  const char* name;
  const char* unit;
  MetricClass cls;
};

constexpr MetricClass E = MetricClass::kExact;
constexpr MetricClass W = MetricClass::kWall;

const std::vector<MetricSpec>& end_to_end_specs() {
  static const std::vector<MetricSpec> specs = {
      {"close_p50_us", "us_virt", E},
      {"close_p99_us", "us_virt", E},
      {"usd_per_close", "usd", E},
      {"stored_bytes_per_user_byte", "B/B", E},
      {"query_p50_us", "us_virt", E},
      {"query_p99_us", "us_virt", E},
      {"usd_per_query", "usd", E},
      {"read_p50_us", "us_virt", E},
      {"read_p99_us", "us_virt", E},
      {"closes_per_s", "1/s", W},
      {"queries_per_s", "1/s", W},
      {"setup_s", "s", W},
      {"peak_rss_mb", "MB", W},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_specs() {
  static const std::vector<MetricSpec> specs = {
      {"pass.events", "count", E},
      {"pass.closes", "count", E},
      {"pass.self_ms", "ms", W},
      {"session.submit_ms", "ms", W},
      {"session.sync_ms", "ms", W},
      {"session.groups", "count", E},
      {"session.group_size_p50", "count", E},
      {"session.flush_deadline_share", "ratio", E},
      {"session.queue_wait_us_per_close", "us_virt", E},
      {"frontend.offer_ns_p99", "ns", W},
      {"frontend.pump_ms", "ms", W},
      {"frontend.accept_ratio", "ratio", E},
      {"frontend.throttled", "count", E},
      {"frontend.shed", "count", E},
      {"frontend.queue_depth_p99", "count", E},
      {"frontend.tenants_seen", "count", E},
      {"lsb.seals", "count", E},
      {"lsb.seal_mb", "MiB", E},
      {"lsb.index_publishes", "count", E},
      {"lsb.compactions", "count", E},
      {"lsb.compact_rewritten_mb", "MiB", E},
      {"lsb.compact_reclaimed_mb", "MiB", E},
      {"lsb.compact_useful_ratio", "ratio", E},
      {"lsb.write_amplification", "ratio", E},
      {"lsb.segments_live", "count", E},
      {"lsb.garbage_ratio", "ratio", E},
      {"lsb.cleaner_close_p99_us", "us_virt", E},
      {"lsb.other_close_p99_us", "us_virt", E},
      {"wal.pump_ms", "ms", W},
      {"wal.sqs_calls_per_close", "ratio", E},
      {"wal.sqs_receive_calls", "count", E},
      {"wal.ready_txns_p99", "count", E},
      {"query.walk_ms_p50", "ms", W},
      {"query.walk_ms_p99", "ms", W},
      {"query.search_ms_p50", "ms", W},
      {"query.sdb_reads_per_query", "ratio", E},
      {"query.s3_gets_per_query", "ratio", E},
      {"query.walk_nodes", "count", E},
      {"manifest.cache_hit_rate", "ratio", E},
      {"manifest.roll_ms", "ms", W},
      {"manifest.roll_usd", "usd", E},
      {"manifest.roll_put_mb", "MiB", E},
      {"aws.s3.put_mb_per_close", "MiB", E},
      {"aws.s3.gets_per_op", "ratio", E},
      {"aws.sdb.writes_per_close", "ratio", E},
      {"aws.sdb.reads_per_op", "ratio", E},
      {"aws.throttle_injected", "count", E},
      {"aws.throttle_backoff_us_per_op", "us_virt", E},
      {"aws.critical_path_share.s3", "ratio_wall", W},
      {"aws.critical_path_share.sdb", "ratio_wall", W},
      {"aws.critical_path_share.sqs", "ratio_wall", W},
      {"aws.critical_path_share.idle", "ratio_wall", W},
      {"aws.read_retries_per_read", "ratio", E},
      {"aws.read_retry_idle_us", "us_virt", E},
      {"error_rate", "ratio", E},
      {"max_rate_ok", "1/s_virt", E},
      {"obs.trace_overhead_ratio", "ratio_wall", W},
  };
  return specs;
}

constexpr int kMinReps = 3;
constexpr int kMinTracedReps = 2;  // per side: traced and untraced

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_out;
  bool list_metrics = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<ingest|lineage|tenants> --seed <n> --seconds <s> --trace "
               "<0|1> [--trace-out <path>]\n       perfbench --list-metrics\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      a.list_metrics = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("--seed must be a whole number");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value, &end);
      if (*end != '\0' || a.seconds <= 0) usage("--seconds must be > 0");
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        usage("--trace must be 0 or 1");
      a.trace = value[0] - '0';
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.list_metrics) return a;
  if (a.workload.empty() || a.seconds <= 0 || a.trace < 0)
    usage("--workload, --seed, --seconds and --trace are required");
  return a;
}

const char* class_name(MetricClass cls) {
  return cls == MetricClass::kExact ? "exact" : "wall";
}

void list_metrics() {
  auto dump = [](const char* key, const std::vector<MetricSpec>& specs,
                 bool last) {
    std::printf("\"%s\": [", key);
    for (std::size_t i = 0; i < specs.size(); ++i)
      std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\", \"class\": \"%s\"}",
                  i == 0 ? "" : ", ", specs[i].name, specs[i].unit,
                  class_name(specs[i].cls));
    std::printf("]%s", last ? "" : ", ");
  };
  std::printf("{");
  dump("end_to_end", end_to_end_specs(), false);
  dump("per_layer", per_layer_specs(), true);
  std::printf("}\n");
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Self time per layer over one traced repetition, printed as a table.
void print_self_time_table(const std::vector<SpanRecord>& spans) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<std::string, std::pair<double, std::uint64_t>> by_layer;
  double total = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& row = by_layer[span_layer(spans[i].name)];
    row.first += static_cast<double>(self[i]) / 1e6;
    row.second += 1;
    total += static_cast<double>(self[i]) / 1e6;
  }
  std::printf("\nper-layer self time (last traced repetition)\n");
  std::printf("  %-10s %12s %8s %10s\n", "layer", "self_ms", "share", "spans");
  for (const auto& [layer, row] : by_layer)
    std::printf("  %-10s %12.3f %7.1f%% %10llu\n", layer.c_str(), row.first,
                total > 0 ? 100.0 * row.first / total : 0.0,
                static_cast<unsigned long long>(row.second));
}

bool bit_identical(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (args.list_metrics) {
    list_metrics();
    return 0;
  }
  RepResult (*run)(const RepOptions&) = nullptr;
  if (args.workload == "ingest") run = run_ingest;
  if (args.workload == "lineage") run = run_lineage;
  if (args.workload == "tenants") run = run_tenants;
  if (run == nullptr) usage("unknown workload");

  const bool tracing = args.trace == 1;
  const WallTimer clock;
  std::vector<RepResult> reps;
  std::vector<bool> traced;
  int traced_count = 0;
  while (true) {
    const bool this_traced = tracing && reps.size() % 2 == 1;
    SpanRecorder recorder;
    RepOptions options{args.seed, this_traced ? &recorder : nullptr};
    RepResult rep = run(options);
    if (this_traced) rep.spans = recorder.spans();
    std::printf("rep %zu%s: setup %.3f s, timed %.3f s%s%s\n", reps.size() + 1,
                this_traced ? " (traced)" : "", rep.setup_s, rep.timed_s,
                rep.correct ? "" : ", CHECK FAILED: ", rep.failure.c_str());
    std::fflush(stdout);
    traced_count += this_traced ? 1 : 0;
    traced.push_back(this_traced);
    const bool correct = rep.correct;
    reps.push_back(std::move(rep));
    if (!correct) break;
    const int untraced_count = static_cast<int>(reps.size()) - traced_count;
    const bool enough =
        tracing ? traced_count >= kMinTracedReps &&
                      untraced_count >= kMinTracedReps
                : static_cast<int>(reps.size()) >= kMinReps;
    if (enough && clock.seconds() >= args.seconds) break;
  }

  // Exact metrics must repeat bit for bit across repetitions of one seed.
  const RepResult& first = reps.front();
  auto scheduling_dependent = [&first](const std::string& name) {
    const auto& names = first.scheduling_dependent;
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  bool correct = true;
  std::string failure;
  std::set<std::string> differing;
  for (const RepResult& rep : reps) {
    if (!rep.correct && correct) {
      correct = false;
      failure = rep.failure;
    }
    for (const Metric& m : rep.metrics.all()) {
      if (m.cls != MetricClass::kExact || scheduling_dependent(m.name))
        continue;
      const Metric* ref = first.metrics.find(m.name);
      if (ref == nullptr || !bit_identical(ref->value, m.value))
        differing.insert(m.name);
    }
  }
  if (!differing.empty() && correct) {
    correct = false;
    failure = "exact metrics differ between repetitions:";
    for (const std::string& name : differing) failure += " " + name;
  }

  // Wall metrics: median over untraced repetitions (span-derived ones, which
  // are 0 untraced, over traced repetitions). Scheduling-dependent exact
  // metrics: median over all repetitions.
  MetricSet out;
  auto wall_median = [&](const std::string& name, bool from_traced) {
    std::vector<double> values;
    for (std::size_t i = 0; i < reps.size(); ++i) {
      if (traced[i] != from_traced) continue;
      if (const Metric* m = reps[i].metrics.find(name)) values.push_back(m->value);
    }
    return median(values);
  };
  for (const Metric& m : first.metrics.all()) {
    Metric agg = m;
    if (m.cls == MetricClass::kWall) {
      const bool span_derived =
          m.name.find('.') != std::string::npos && tracing;
      agg.value = wall_median(m.name, span_derived);
    } else if (scheduling_dependent(m.name)) {
      std::vector<double> values;
      for (const RepResult& rep : reps)
        values.push_back(rep.metrics.find(m.name)->value);
      agg.value = median(values);
      agg.note = "varies with thread scheduling";
    }
    out.add(agg.name, agg.value, agg.unit, agg.samples, agg.cls, agg.note);
  }
  std::vector<double> setups, untraced_s, traced_s;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    setups.push_back(reps[i].setup_s);
    (traced[i] ? traced_s : untraced_s).push_back(reps[i].timed_s);
  }
  out.add("setup_s", median(setups), "s", reps.size(), W);
  out.add("peak_rss_mb", peak_rss_mb(), "MB", 1, W);
  if (tracing) {
    const double base = median(untraced_s);
    out.add("obs.trace_overhead_ratio",
            base > 0 ? median(traced_s) / base : 0.0, "ratio_wall",
            traced_s.size(), W);
  }

  std::printf("\nworkload %s, seed %llu, %zu repetitions, %s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), reps.size(),
              tracing ? "traced" : "untraced");
  std::printf("  %-34s %16s %-10s %8s %-6s %s\n", "metric", "value", "unit",
              "samples", "class", "note");
  for (const Metric& m : out.all())
    std::printf("  %-34s %16.6g %-10s %8llu %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples),
                class_name(m.cls), m.note.c_str());

  if (tracing) {
    for (std::size_t i = reps.size(); i-- > 0;) {
      if (!traced[i]) continue;
      print_self_time_table(reps[i].spans);
      const std::string path =
          args.trace_out.empty()
              ? ".bench_build/traces/" + args.workload + ".json"
              : args.trace_out;
      std::error_code ec;
      const std::filesystem::path parent =
          std::filesystem::path(path).parent_path();
      if (!parent.empty()) std::filesystem::create_directories(parent, ec);
      if (!write_chrome_json(reps[i].spans, path)) {
        correct = false;
        failure = "could not write trace " + path;
      } else {
        std::printf("chrome trace: %s (%zu spans)\n", path.c_str(),
                    reps[i].spans.size());
      }
      break;
    }
  }
  const std::vector<MetricSpec>& specs =
      tracing ? per_layer_specs() : end_to_end_specs();
  for (const MetricSpec& spec : specs) {
    if (out.find(spec.name) == nullptr && correct) {
      correct = false;
      failure = std::string("metric ") + spec.name + " was not measured";
    }
  }
  if (!correct) std::printf("CHECK FAILED: %s\n", failure.c_str());

  // The one-line result.
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(first.ops.attempted),
              static_cast<unsigned long long>(first.ops.failed));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const Metric* m = out.find(specs[i].name);
    const double value = m == nullptr ? 0.0 : m->value;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", specs[i].name, value, specs[i].unit);
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}

// provcloudctl -- a command-line driver for the library.
//
// Builds the combined workload dataset in an in-memory cloud, then executes
// one command against it. Useful for poking at the system without writing
// code:
//
//   provcloudctl stats                     dataset + meter + USD summary
//   provcloudctl q1                        retrieve all provenance (Q.1)
//   provcloudctl q2 <program>              outputs of <program> (Q.2)
//   provcloudctl q3 <program>              descendants of <program> (Q.3)
//   provcloudctl read <object>             consistency-checked read
//   provcloudctl ancestry <object> [--dot] lineage walk (optionally Graphviz)
//
// Options (before the command):
//   --arch s3|sdb|wal     architecture (default wal)
//   --seed N              workload seed (default 2009)
//   --scale X             workload count/size scale (default 0.25)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cloudprov/ancestry.hpp"
#include "cloudprov/backend.hpp"
#include "cloudprov/query.hpp"
#include "cost/pricing.hpp"
#include "pass/observer.hpp"
#include "util/string_utils.hpp"
#include "workloads/combined.hpp"

using namespace provcloud;
using namespace provcloud::cloudprov;

namespace {

struct Options {
  Architecture arch = Architecture::kS3SimpleDbSqs;
  std::uint64_t seed = 2009;
  double scale = 0.25;
  std::string command;
  std::vector<std::string> args;
};

int usage() {
  std::fprintf(stderr,
               "usage: provcloudctl [--arch s3|sdb|wal] [--seed N] "
               "[--scale X] <command> [args]\n"
               "commands: stats | q1 | q2 <program> | q3 <program> | "
               "read <object> | ancestry <object> [--dot]\n");
  return 2;
}

bool parse_options(int argc, char** argv, Options& out) {
  int i = 1;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--arch" && i + 1 < argc) {
      const std::string v = argv[++i];
      if (v == "s3")
        out.arch = Architecture::kS3Only;
      else if (v == "sdb")
        out.arch = Architecture::kS3SimpleDb;
      else if (v == "wal")
        out.arch = Architecture::kS3SimpleDbSqs;
      else
        return false;
    } else if (arg == "--seed" && i + 1 < argc) {
      out.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--scale" && i + 1 < argc) {
      out.scale = std::atof(argv[++i]);
      if (out.scale <= 0) return false;
    } else if (!arg.empty() && arg[0] != '-') {
      out.command = arg;
      for (++i; i < argc; ++i) out.args.emplace_back(argv[i]);
      return true;
    } else {
      return false;
    }
  }
  return !out.command.empty();
}

void print_records(const std::vector<pass::ProvenanceRecord>& records) {
  for (const auto& r : records)
    std::printf("  %-12s %.100s\n", r.attribute.c_str(),
                r.value_string().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_options(argc, argv, opt)) return usage();

  // Build the world: combined workload through PASS into the architecture.
  aws::CloudEnv env(opt.seed);
  CloudServices services(env);
  auto backend = make_backend(opt.arch, services);
  pass::PassObserver observer(
      [&backend](const pass::FlushUnit& u) { backend->store(u); });
  workloads::WorkloadOptions wo;
  wo.seed = opt.seed;
  wo.count_scale = opt.scale;
  wo.size_scale = opt.scale;
  observer.apply_trace(workloads::build_combined_trace(wo));
  observer.finish();
  backend->quiesce();
  env.clock().drain();
  std::fprintf(stderr, "[%s] dataset ready: %llu versions, %s data, %s "
               "provenance\n",
               to_string(opt.arch),
               static_cast<unsigned long long>(observer.stats().flush_units),
               util::format_bytes(observer.stats().data_bytes_flushed).c_str(),
               util::format_bytes(observer.stats().provenance_bytes).c_str());

  auto engine = opt.arch == Architecture::kS3Only
                    ? make_s3_query_engine(services)
                    : make_sdb_query_engine(services, backend->topology());
  const auto before = env.meter().snapshot();

  if (opt.command == "stats") {
    const auto snap = env.meter().snapshot();
    std::printf("operations: total %s (s3 %s, sdb %s, sqs %s)\n",
                util::format_count(snap.total_calls()).c_str(),
                util::format_count(snap.calls("s3")).c_str(),
                util::format_count(snap.calls("sdb")).c_str(),
                util::format_count(snap.calls("sqs")).c_str());
    std::printf("storage: s3 %s, sdb %s\n",
                util::format_bytes(snap.storage_bytes("s3")).c_str(),
                util::format_bytes(snap.storage_bytes("sdb")).c_str());
    const cost::CostEstimate usd = cost::estimate_cost(snap);
    std::printf("estimated cost (Jan-2009 prices): %s total\n",
                cost::format_usd(usd.total()).c_str());
    return 0;
  }

  if (opt.command == "q1") {
    const Q1Result r = engine->q1_all_provenance();
    std::printf("retrieved provenance of %llu object versions (%llu "
                "records)\n",
                static_cast<unsigned long long>(r.object_versions),
                static_cast<unsigned long long>(r.records));
  } else if (opt.command == "q2" || opt.command == "q3") {
    if (opt.args.empty()) return usage();
    const auto result = opt.command == "q2"
                            ? engine->q2_outputs_of(opt.args[0])
                            : engine->q3_descendants_of(opt.args[0]);
    for (const std::string& f : result) std::printf("%s\n", f.c_str());
    std::fprintf(stderr, "[%zu results]\n", result.size());
  } else if (opt.command == "read") {
    if (opt.args.empty()) return usage();
    auto got = backend->read(opt.args[0]);
    if (!got) {
      std::fprintf(stderr, "read failed: %s\n", got.error().message.c_str());
      return 1;
    }
    std::printf("%s v%u: %zu bytes, verified=%s, retries=%u\n",
                opt.args[0].c_str(), got->version, got->data->size(),
                got->verified ? "yes" : "no", got->retries);
    print_records(got->records);
  } else if (opt.command == "ancestry") {
    if (opt.args.empty()) return usage();
    auto read = backend->read(opt.args[0]);
    if (!read) {
      std::fprintf(stderr, "no such object: %s\n", opt.args[0].c_str());
      return 1;
    }
    const AncestryResult lineage =
        fetch_ancestry(*backend, opt.args[0], read->version);
    const bool want_dot =
        opt.args.size() > 1 && opt.args[1] == "--dot";
    if (want_dot) {
      std::fputs(lineage.graph.to_dot(opt.args[0]).c_str(), stdout);
    } else {
      for (const pass::ObjectVersion& id : lineage.graph.topological_order())
        std::printf("%s (%s)\n", id.to_string().c_str(),
                    lineage.graph.find(id)->kind.c_str());
      if (!lineage.missing.empty())
        std::fprintf(stderr, "[%zu ancestors unresolvable]\n",
                     lineage.missing.size());
    }
  } else {
    return usage();
  }

  const auto diff = env.meter().snapshot().diff(before);
  std::fprintf(stderr, "[query cost: %llu ops, %s out]\n",
               static_cast<unsigned long long>(diff.total_calls()),
               util::format_bytes(diff.bytes_out("s3") + diff.bytes_out("sdb"))
                   .c_str());
  return 0;
}

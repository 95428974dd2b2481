// Reproduces Table 2: storage cost comparison.
//
// The paper column layout:
//
//            Raw        S3            S3+SimpleDB    S3+SimpleDB+SQS
//   Data     1.27GB     121.8MB(9.3%) 167.8MB(13.6%) 421.4MB(32.2%)
//   ops      31,180     24,952(0.8x)  168,514(5.4x)  231,287(7.41x)
//
// We regenerate the combined compile+blast+provenance-challenge dataset,
// actually run each architecture's store protocol against the simulators,
// and report the measured provenance bytes / extra ops next to the paper's
// closed-form estimates (src/cost/analysis) computed from our trace. The
// shape to check: arch1 ops ~ large records only (<1x raw), arch2 adds one
// item per version (several x raw), arch3 roughly doubles again via the
// WAL, with provenance bytes ordered arch1 < arch2 < arch3.
#include <cstdio>

#include "bench_common.hpp"
#include "cloudprov/lsb/lsb_backend.hpp"
#include "cloudprov/sdb_backend.hpp"
#include "cost/analysis.hpp"

using namespace provcloud;
using namespace provcloud::cloudprov;
using namespace provcloud::cost;

namespace {

struct Row {
  std::string name;
  std::uint64_t prov_bytes_measured = 0;
  std::uint64_t extra_ops_measured = 0;
  std::uint64_t prov_bytes_estimate = 0;
  std::uint64_t extra_ops_estimate = 0;
};

/// SimpleDB write round trips: what the batched pipeline is built to cut.
std::uint64_t sdb_write_round_trips(const sim::MeterSnapshot& snap) {
  return snap.calls("sdb", "PutAttributes") +
         snap.calls("sdb", "BatchPutAttributes");
}

struct SweepRow {
  std::string arch;
  std::size_t batch = 0;
  std::size_t shards = 0;
  std::uint64_t write_rts = 0;
  std::uint64_t total_calls = 0;
};

/// Run the trace through one (architecture, batch_size, shard_count) point.
SweepRow sweep_point(const pass::SyscallTrace& trace, Architecture arch,
                     std::size_t batch, std::size_t shards) {
  bench::WorkloadRun::BackendFactory factory;
  if (arch == Architecture::kS3SimpleDb) {
    factory = [=](CloudServices& s) {
      return make_sdb_backend(
          s, SdbBackendConfig{.shard_count = shards, .batch_size = batch});
    };
  } else {
    factory = [=](CloudServices& s) {
      WalBackendConfig cfg;
      cfg.shard_count = shards;
      cfg.batch_size = batch;
      return make_wal_backend(s, cfg);
    };
  }
  bench::WorkloadRun run(factory);
  run.run(trace);
  const auto snap = run.env.meter().snapshot();
  SweepRow r;
  r.arch = to_string(arch);
  r.batch = batch;
  r.shards = shards;
  r.write_rts = sdb_write_round_trips(snap);
  r.total_calls = snap.total_calls();
  return r;
}

/// Provenance-attributable stored bytes for a run: total service storage
/// minus the raw data bytes.
std::uint64_t provenance_bytes_stored(bench::WorkloadRun& run,
                                      std::uint64_t raw_bytes) {
  const auto snap = run.env.meter().snapshot();
  const std::uint64_t total = snap.storage_bytes("s3") +
                              snap.storage_bytes("sdb") +
                              snap.storage_bytes("sqs");
  return total > raw_bytes ? total - raw_bytes : 0;
}

}  // namespace

int main() {
  const workloads::WorkloadOptions options = bench::bench_workload_options();
  bench::print_header("Table 2: Storage cost comparison");
  std::printf("workload: combined linux-compile + blast + provenance "
              "challenge (count_scale %.2f, size_scale %.2f, seed %llu)\n",
              options.count_scale, options.size_scale,
              static_cast<unsigned long long>(options.seed));

  const pass::SyscallTrace trace = workloads::build_combined_trace(options);

  // Raw baseline: what storing only the data costs (one PUT per version).
  bench::WorkloadRun probe(Architecture::kS3Only);
  probe.run(trace);
  const TraceQuantities q = quantities_from(probe.stats);
  const std::uint64_t raw_bytes = q.data_bytes;
  const std::uint64_t raw_ops = estimate_raw(q).extra_ops;

  std::printf("\nraw dataset: %s in %s object versions; provenance %s in %s "
              "records (%s records over 1KB)\n",
              bench::fmt_bytes(raw_bytes).c_str(),
              bench::fmt_count(q.n_objects).c_str(),
              bench::fmt_bytes(q.provenance_bytes).c_str(),
              bench::fmt_count(probe.stats.records_emitted).c_str(),
              bench::fmt_count(q.n_large_records).c_str());

  std::vector<Row> rows;
  {
    Row r;
    r.name = "S3";
    // probe already ran arch 1: measure from it.
    r.prov_bytes_measured = provenance_bytes_stored(probe, raw_bytes);
    const auto snap = probe.env.meter().snapshot();
    r.extra_ops_measured = snap.total_calls() - raw_ops;
    r.prov_bytes_estimate = estimate_arch1(q).provenance_bytes;
    r.extra_ops_estimate = estimate_arch1(q).extra_ops;
    rows.push_back(r);
  }
  {
    bench::WorkloadRun run(Architecture::kS3SimpleDb);
    run.run(trace);
    Row r;
    r.name = "S3+SimpleDB";
    r.prov_bytes_measured = provenance_bytes_stored(run, raw_bytes);
    r.extra_ops_measured = run.env.meter().snapshot().total_calls() - raw_ops;
    r.prov_bytes_estimate = estimate_arch2(q).provenance_bytes;
    r.extra_ops_estimate = estimate_arch2(q).extra_ops;
    rows.push_back(r);
  }
  {
    bench::WorkloadRun run(Architecture::kS3SimpleDbSqs);
    run.run(trace);
    Row r;
    r.name = "S3+SimpleDB+SQS";
    // SQS storage drains to ~0 after quiescence; charge the transient WAL
    // residency the way the paper does: provenance passes through SQS twice.
    r.prov_bytes_measured =
        provenance_bytes_stored(run, raw_bytes) + 2 * q.provenance_bytes;
    r.extra_ops_measured = run.env.meter().snapshot().total_calls() - raw_ops;
    r.prov_bytes_estimate = estimate_arch3(q).provenance_bytes;
    r.extra_ops_estimate = estimate_arch3(q).extra_ops;
    rows.push_back(r);
  }

  // Arch 4: data and provenance travel together inside segment objects, so
  // "provenance bytes" here is the whole log overhead (entry framing plus
  // records plus the SimpleDB index) over the raw data. Keep a handle on
  // the backend to read the cleaner's segment accounting afterwards.
  LsbBackend* lsb = nullptr;
  bench::WorkloadRun lsb_run([&](CloudServices& s) {
    LsbBackendConfig cfg;
    cfg.auto_compact = false;  // measure before/after by hand
    auto backend = std::make_unique<LsbBackend>(s, cfg);
    lsb = backend.get();
    return backend;
  });
  lsb_run.group_size = 25;
  lsb_run.run(trace);
  {
    Row r;
    r.name = "S3 segment log";
    r.prov_bytes_measured = provenance_bytes_stored(lsb_run, raw_bytes);
    // Group sealing can spend FEWER total calls than raw's one PUT per
    // version -- provenance rides along for free. Clamp at zero instead of
    // letting the unsigned subtraction wrap.
    const std::uint64_t total = lsb_run.env.meter().snapshot().total_calls();
    r.extra_ops_measured = total > raw_ops ? total - raw_ops : 0;
    rows.push_back(r);  // no closed-form paper estimate for arch 4
  }

  std::printf("\n%-17s %14s %14s | %14s %14s | %14s\n", "", "Raw",
              rows[0].name.c_str(), rows[1].name.c_str(), rows[2].name.c_str(),
              rows[3].name.c_str());
  bench::print_rule();
  std::printf("%-17s %14s", "Data (measured)", bench::fmt_bytes(raw_bytes).c_str());
  for (const Row& r : rows) {
    const double pct = 100.0 * static_cast<double>(r.prov_bytes_measured) /
                       static_cast<double>(raw_bytes);
    std::printf(" %9s(%4.1f%%)", bench::fmt_bytes(r.prov_bytes_measured).c_str(),
                pct);
  }
  std::printf("\n%-17s %14s", "ops  (measured)", bench::fmt_count(raw_ops).c_str());
  for (const Row& r : rows) {
    const double x = static_cast<double>(r.extra_ops_measured) /
                     static_cast<double>(raw_ops);
    std::printf(" %9s(%4.2fx)", bench::fmt_count(r.extra_ops_measured).c_str(), x);
  }
  std::printf("\n%-17s %14s", "Data (estimate)", "");
  for (const Row& r : rows) {
    if (r.prov_bytes_estimate == 0) {  // arch 4: no paper estimate
      std::printf(" %16s", "--");
      continue;
    }
    const double pct = 100.0 * static_cast<double>(r.prov_bytes_estimate) /
                       static_cast<double>(raw_bytes);
    std::printf(" %9s(%4.1f%%)", bench::fmt_bytes(r.prov_bytes_estimate).c_str(),
                pct);
  }
  std::printf("\n%-17s %14s", "ops  (estimate)", "");
  for (const Row& r : rows) {
    if (r.extra_ops_estimate == 0) {
      std::printf(" %16s", "--");
      continue;
    }
    const double x = static_cast<double>(r.extra_ops_estimate) /
                     static_cast<double>(raw_ops);
    std::printf(" %9s(%4.2fx)", bench::fmt_count(r.extra_ops_estimate).c_str(), x);
  }

  std::printf("\n\npaper reference (1.27GB / 31,180 raw ops):\n");
  std::printf("  Data: 121.8MB (9.3%%) | 167.8MB (13.6%%) | 421.4MB (32.2%%)\n");
  std::printf("  ops : 24,952 (0.8x)  | 168,514 (5.4x)  | 231,287 (7.41x)\n");

  // --- arch 4 cleaner effectiveness: segment accounting around compaction ---
  //
  // Replay the trace through the same backend: every close re-stores the
  // same (object, version) identity, so the first run's copies become
  // superseded data bytes the cleaner can drop (records are kept forever)
  // -- the sustained-overwrite shape the cleaner exists for.
  lsb_run.run(trace);
  const LsbBackend::SegmentStats before = lsb->stats();
  // compact() picks victims by garbage ratio, so each pass targets the
  // overwrite-heavy segments; stop once the log is clean (or after a
  // bounded number of passes over a pathological layout).
  for (int pass = 0; pass < 8 && lsb->stats().garbage_ratio > 0.01; ++pass)
    if (lsb->compact() == 0) break;
  const LsbBackend::SegmentStats after = lsb->stats();
  bench::print_header("Arch 4 cleaner: segment accounting before/after");
  std::printf("%-9s %9s %12s %12s %9s %10s %10s\n", "", "segments",
              "total bytes", "live bytes", "garbage", "delete-to",
              "indexed-to");
  bench::print_rule();
  for (const auto& [label, s] :
       {std::pair<const char*, const LsbBackend::SegmentStats&>{"before",
                                                                before},
        {"after", after}})
    std::printf("%-9s %9s %12s %12s %8.1f%% %10s %10s\n", label,
                bench::fmt_count(s.segment_count).c_str(),
                bench::fmt_bytes(s.total_bytes).c_str(),
                bench::fmt_bytes(s.live_bytes).c_str(),
                100.0 * s.garbage_ratio,
                bench::fmt_count(s.delete_to).c_str(),
                bench::fmt_count(s.indexed_to).c_str());
  std::printf("reclaimed: %s (%zu -> %zu segments)\n",
              bench::fmt_bytes(before.total_bytes > after.total_bytes
                                   ? before.total_bytes - after.total_bytes
                                   : 0)
                  .c_str(),
              static_cast<std::size_t>(before.segment_count),
              static_cast<std::size_t>(after.segment_count));

  // --- the batched + sharded write path: batch_size x shard_count sweep ---
  bench::print_header(
      "Write-path sweep: SimpleDB write round trips by batch_size/shard_count");
  std::vector<SweepRow> sweep;
  for (const Architecture arch :
       {Architecture::kS3SimpleDb, Architecture::kS3SimpleDbSqs}) {
    for (const auto& [batch, shards] :
         std::vector<std::pair<std::size_t, std::size_t>>{
             {1, 1}, {25, 1}, {25, 4}})
      sweep.push_back(sweep_point(trace, arch, batch, shards));
  }
  std::printf("%-17s %6s %7s %15s %12s\n", "", "batch", "shards",
              "sdb write RTs", "total calls");
  bench::print_rule();
  for (const SweepRow& r : sweep)
    std::printf("%-17s %6zu %7zu %15s %12s\n", r.arch.c_str(), r.batch,
                r.shards, bench::fmt_count(r.write_rts).c_str(),
                bench::fmt_count(r.total_calls).c_str());
  // The WAL commit daemon coalesces cross-transaction writes: the win the
  // batch path exists for.
  const auto find_row = [&](std::size_t batch, std::size_t shards) -> const SweepRow& {
    for (const SweepRow& r : sweep)
      if (r.arch == to_string(Architecture::kS3SimpleDbSqs) &&
          r.batch == batch && r.shards == shards)
        return r;
    std::fprintf(stderr, "sweep row (%zu, %zu) missing\n", batch, shards);
    std::abort();
  };
  const SweepRow& wal_b1 = find_row(1, 1);
  const SweepRow& wal_b25 = find_row(25, 1);
  const SweepRow& wal_b25_s4 = find_row(25, 4);
  const double batch_speedup =
      wal_b25.write_rts > 0
          ? static_cast<double>(wal_b1.write_rts) /
                static_cast<double>(wal_b25.write_rts)
          : 0.0;
  std::printf("\nWAL write-round-trip reduction, batch 25 vs 1: %.1fx\n",
              batch_speedup);

  // Shape checks (exit non-zero if the qualitative result breaks).
  bool ok = true;
  ok = ok && rows[0].prov_bytes_measured < rows[1].prov_bytes_measured;
  ok = ok && rows[1].prov_bytes_measured < rows[2].prov_bytes_measured;
  ok = ok && rows[0].extra_ops_measured < rows[1].extra_ops_measured;
  ok = ok && rows[1].extra_ops_measured < rows[2].extra_ops_measured;
  // The paper's own accounting: arch-1 extra ops (spills only) < raw ops.
  ok = ok && rows[0].extra_ops_estimate < raw_ops;
  // Arch 4 at group 25 spends far fewer round trips than the per-item
  // SimpleDB protocol, and the cleaner actually reclaims: garbage ratio and
  // total bytes drop, live bytes survive, the watermark advances.
  ok = ok && rows[3].extra_ops_measured < rows[1].extra_ops_measured;
  ok = ok && after.total_bytes < before.total_bytes;
  ok = ok && after.garbage_ratio < before.garbage_ratio;
  ok = ok && after.live_bytes > 0 && after.delete_to > before.delete_to;
  // Batching must cut the commit daemon's SimpleDB round trips >= 5x.
  ok = ok && batch_speedup >= 5.0;
  // Sharding splits each flush across domains (fewer items per batch call),
  // but batched+sharded must still beat the unbatched single domain.
  ok = ok && wal_b25_s4.write_rts < wal_b1.write_rts;
  std::printf("\nshape check (arch1 < arch2 < arch3 in space and ops; "
              "estimated arch1 ops < raw; batch >= 5x fewer write RTs; "
              "arch4 ops < arch2 ops and the cleaner reclaims bytes while "
              "advancing the watermark): %s\n",
              ok ? "PASS" : "FAIL");
  std::printf("note: measured arch-1/arch-3 ops exceed the paper-style "
              "estimates because the estimates ignore transient-pnode PUTs, "
              "WAL framing records, per-message deletes and daemon polling "
              "-- see EXPERIMENTS.md.\n");

  if (const char* path = bench::json_output_path()) {
    bench::JsonObject j;
    j.add("bench", std::string("table2_storage"));
    j.add("count_scale", options.count_scale);
    j.add("raw_bytes", raw_bytes);
    j.add("raw_ops", raw_ops);
    const char* keys[] = {"arch1", "arch2", "arch3", "arch4"};
    for (std::size_t i = 0; i < rows.size(); ++i) {
      j.add(std::string(keys[i]) + "_prov_bytes", rows[i].prov_bytes_measured);
      j.add(std::string(keys[i]) + "_extra_ops", rows[i].extra_ops_measured);
    }
    for (const auto& [label, s] :
         {std::pair<const char*, const LsbBackend::SegmentStats&>{
              "arch4_precompact", before},
          {"arch4_postcompact", after}}) {
      j.add(std::string(label) + "_segment_count", s.segment_count);
      j.add(std::string(label) + "_total_bytes", s.total_bytes);
      j.add(std::string(label) + "_live_bytes", s.live_bytes);
      j.add(std::string(label) + "_garbage_ratio", s.garbage_ratio);
      j.add(std::string(label) + "_delete_to", s.delete_to);
      j.add(std::string(label) + "_indexed_to", s.indexed_to);
    }
    for (const SweepRow& r : sweep) {
      const std::string key = (r.arch == "S3+SimpleDB" ? "sdb" : "wal") +
                              std::string("_write_rts_b") +
                              std::to_string(r.batch) + "_s" +
                              std::to_string(r.shards);
      j.add(key, r.write_rts);
    }
    j.add("wal_batch_speedup", batch_speedup);
    j.add("shape_check", std::string(ok ? "PASS" : "FAIL"));
    if (j.write(path))
      std::printf("json written: %s\n", path);
    else
      std::printf("json write FAILED: %s\n", path);
  }
  return ok ? 0 : 1;
}

// Empirical verification of the paper's Table 1.
//
// Rather than trusting each backend's claims(), the checker *measures* the
// four properties:
//
//   Atomicity       -- sweep an injected client crash through every crash
//                      point of the store protocol; after each crash, let
//                      propagation and (for Arch 3) the always-running
//                      commit daemon settle, then assert that no object has
//                      data without matching provenance and no provenance
//                      without data. (Arch 2's remedial orphan scan is NOT
//                      run here: the paper counts it as cleanup, not
//                      atomicity.)
//   Consistency     -- under aggressive staleness, hammer the read path
//                      while versions are being stored; a read that claims
//                      verified=true must return an internally matching
//                      (data, provenance) pair.
//   Causal ordering -- after every crash scenario, every cross-reference in
//                      stored provenance must name an ancestor object that
//                      is itself stored (version-granular for SimpleDB
//                      architectures, object-granular for Arch 1, which
//                      retains only the latest version's records).
//   Efficient query -- run Q.2 on a small and a double-size dataset; the
//                      property holds when query cost grows sublinearly in
//                      dataset size.
//
// Crash sweeps all run through one engine: discover the crash points an
// uninjected run of the scenario reaches, then arm each point at each
// occurrence in a fresh world, run the scenario and score its invariant.
//
//   check_properties      -- Table 1: every point, occurrences {1, 7};
//                            atomicity and causal ordering as above.
//   check_manifest_roll   -- manifest.* in a snapshot roll, {1, 2}: the
//                            catalog binds a committed snapshot, the prior
//                            snapshot's time travel stays complete, and
//                            live walks match the SimpleDB scatter walk.
//   check_lsb_crash_sweep -- lsb.* in seal, index publication and cleaning,
//                            {1, 2}: no causal hole and no torn index
//                            (every durable posting between the watermarks
//                            resolves), and a restarted backend walks
//                            committed ancestry as before the crash, also
//                            after an uninjected cleaner pass.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cloudprov/backend.hpp"

namespace provcloud::cloudprov {

/// One crash sweep's evidence (see the header comment).
struct CrashSweepReport {
  Architecture arch = Architecture::kS3Only;
  std::vector<std::string> points;   // discovered, in first-hit order
  std::vector<std::string> unfired;  // armed, but fired at no occurrence
  std::uint64_t crash_scenarios = 0;  // point x occurrence runs
  std::uint64_t crashed_runs = 0;     // runs where the armed crash fired
  std::uint64_t violations = 0;

  bool crash_safe() const { return crash_scenarios > 0 && violations == 0; }
};

/// One row of Table 1; the inherited evidence is its crash sweep's.
struct PropertyReport : CrashSweepReport {
  bool atomicity = false;
  bool consistency = false;
  bool causal_ordering = false;
  bool efficient_query = false;

  // Evidence.
  std::uint64_t atomicity_violations = 0;
  std::uint64_t causal_violations = 0;
  std::uint64_t reads_checked = 0;
  std::uint64_t consistency_violations = 0;
  /// Read-your-writes: session reads issued against still-pending submits
  /// during the crash-sweep workload, and how many failed to observe them.
  std::uint64_t ryw_checked = 0;
  std::uint64_t ryw_violations = 0;
  std::uint64_t reads_with_retries = 0;  // staleness *detected* and handled
  std::uint64_t query_ops_small = 0;
  std::uint64_t query_ops_large = 0;
  double query_growth = 0.0;  // ops_large / ops_small

  bool matches(const ProvenanceBackend::PropertyClaims& claims) const {
    return atomicity == claims.atomicity &&
           consistency == claims.consistency &&
           causal_ordering == claims.causal_ordering &&
           efficient_query == claims.efficient_query;
  }
};

struct PropertyCheckOptions {
  std::uint64_t seed = 7;
  /// Files in the mini workload used for crash sweeps.
  std::size_t mini_files = 12;
  /// Reads issued per stored version in the consistency hammer.
  std::size_t reads_per_version = 4;
  /// Shard domains the SimpleDB architectures store across (1 = the
  /// paper's single-domain layout). The state checks sweep every shard
  /// domain, so the verdicts are layout-independent.
  std::size_t shard_count = 1;
  /// Executor parallelism of the backends under test.
  std::size_t parallelism = 1;
  /// Closes coalesced per session group commit. 1 is the paper's per-close
  /// protocol; larger groups verify the Table-1 claims still hold when the
  /// backend batches submits between durability barriers (the crash sweep
  /// then crashes *mid-group*). The consistency hammer always syncs per
  /// close -- its property is read-after-durable, independent of grouping.
  std::size_t group_size = 1;
  /// Adaptive flush deadline of the crash-sweep session (0 = flush only on
  /// group-full or sync). When set, the workload advances the clock half a
  /// deadline between closes, so injected crashes land *mid-deadline-flush*
  /// -- the daemon, not the submitter, is in commit_group when the crash
  /// fires.
  sim::SimTime flush_deadline = 0;
  /// Hostile-environment sweep (ROADMAP 5b). Extra per-request latency
  /// injected into every service (a correlated brown-out) ...
  sim::SimTime service_slowdown = 0;
  /// ... and a service-side 503 throttle storm: each request throttled
  /// with this probability and/or rate-limited to throttle_rate_per_sec
  /// admitted requests per virtual second (see aws::ThrottleConfig).
  /// Verdicts must be environment-independent: a storm may stretch elapsed
  /// time, never corrupt state or change a Table-1 answer.
  double throttle_probability = 0.0;
  std::uint64_t throttle_rate_per_sec = 0;
};

PropertyReport check_properties(Architecture arch,
                                const PropertyCheckOptions& options = {});

/// Convenience: all three rows of Table 1.
std::vector<PropertyReport> check_all_architectures(
    const PropertyCheckOptions& options = {});

/// The manifest-roll crash sweep (see the header comment). Requires a
/// SimpleDB architecture (Arch 2 or 3): rolls snapshot the provenance
/// index, which Architecture 1 does not have.
CrashSweepReport check_manifest_roll(Architecture arch,
                                     const PropertyCheckOptions& options = {});

/// The Arch-4 segment-log crash sweep (see the header comment).
CrashSweepReport check_lsb_crash_sweep(
    const PropertyCheckOptions& options = {});

}  // namespace provcloud::cloudprov

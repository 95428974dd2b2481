// Architecture 4: log-structured segments on S3, compact index in SimpleDB.
//
// Every group commit is sealed into one immutable S3 segment object (one
// PUT amortized over the whole group; an oversized group splits at the
// segment size cap), so a close's data and provenance are durable -- and
// atomic -- the moment its segment lands. The SimpleDB side stores only
// postings, (object, version) -> (segment, offset, length), packed many per
// attribute value and published lazily in batched, sharded writes over the
// DomainTopology once enough accumulate: the log is the truth, the index is
// a rebuildable checkpoint (classic LFS). recover() replays any segment
// above the indexed-to watermark, so a crashed publication can never tear
// the index, and a crashed seal leaves only an ignorable orphan object.
//
// A background cleaner runs in the commit-daemon role (inside commit_group
// / pump, never a thread of its own) once enough superseded bytes pile up:
// it rewrites the live entries of its victim segments (garbage-richest
// first, see compact()) into consolidated segments -- dropping data bytes
// of superseded file versions, whose records alone stay retrievable,
// exactly the retention Arch 1-3 offer -- republishes their postings,
// advances the durable delete-to watermark (kivaloo deleteto.c style) and
// deletes the dead objects.
// Ancestry walks are bit-identical before and after.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "cloudprov/backend.hpp"
#include "cloudprov/domain_topology.hpp"
#include "cloudprov/lsb/format.hpp"

namespace provcloud::cloudprov {

/// Storage-path knobs of the log-structured backend.
struct LsbBackendConfig {
  /// Seal the open segment early once its encoding would exceed this.
  std::size_t segment_cap_bytes = 4 * util::kMiB;
  /// Postings buffered in memory before a SimpleDB index publication (the
  /// LFS checkpoint interval, in closes). quiesce() always drains.
  std::size_t index_publish_entries = 512;
  /// Run the cleaner on the write path once the log holds one segment cap
  /// of reclaimable bytes (superseded data and duplicate entries); false
  /// leaves cleaning to explicit compact() calls.
  bool auto_compact = true;
  /// SimpleDB domains the index postings are hashed across.
  std::size_t shard_count = 1;
  /// Concurrent shard requests (index publication, read_many fan-out).
  std::size_t parallelism = 1;
};

class LsbBackend final : public ProvenanceBackend {
 public:
  explicit LsbBackend(CloudServices& services, LsbBackendConfig config = {});

  Architecture architecture() const override {
    return Architecture::kS3SegmentLog;
  }
  std::string name() const override { return "S3-segments+SimpleDB"; }

  std::unique_ptr<Session> do_open_session(SessionConfig config) override;
  bool supports_group_commit() const override { return true; }

  /// Seal the group into segment objects (one PUT per cap-sized run; each
  /// ticket is done once its segment is durable), buffer the postings, and
  /// publish the index / run the cleaner when their thresholds trip.
  void commit_group(const std::vector<TicketState*>& group,
                    sim::LatencyLedger* ledger) override;

  /// Latest data + provenance of `object`, served by one byte-range GET
  /// into its segment (immutable, so only propagation visibility can race;
  /// retries are charged like every consistency loop).
  BackendResult<ReadResult> read(const std::string& object,
                                 std::uint32_t max_retries = 64) override;
  BackendResult<std::vector<pass::ProvenanceRecord>> get_provenance(
      const std::string& object, std::uint32_t version) override;

  /// Client-restart recovery: rebuild the in-memory index from the durable
  /// postings, replay unindexed (orphan) segments, and delete segments
  /// below the delete-to watermark. Idempotent; cheap on a live backend.
  void recover() override;

  /// Publish a due index checkpoint and run the cleaner if it is due.
  void pump() override;
  /// Drain: publish every buffered posting.
  void quiesce() override;

  PropertyClaims claims() const override {
    // Efficient query is the LFS trade-off: postings index *locations*,
    // not attribute values, so Q2-style searches scan the log (linear,
    // like Arch 1). Roll a manifest snapshot for indexed deep queries.
    return PropertyClaims{.atomicity = true,
                          .consistency = true,
                          .causal_ordering = true,
                          .efficient_query = false};
  }

  std::shared_ptr<const DomainTopology> topology() const override {
    return topology_;
  }
  const LsbBackendConfig& config() const { return config_; }

  /// Force an index publication now (bench/test hook).
  void publish_index();

  /// One cleaner pass. Only indexed segments holding reclaimable bytes are
  /// victims -- an all-live segment is never copied -- taken by highest
  /// garbage fraction first, ties older-first, while the bytes the pass
  /// reads plus the bytes it rewrites fit four segment caps (the best
  /// victim is always taken). With nothing reclaimable the pass returns
  /// before publishing the index or issuing any request. Returns the
  /// number of segments reclaimed.
  std::size_t compact();

  /// Cleaner-effectiveness counters (in-memory view; exact after quiesce).
  struct SegmentStats {
    std::uint64_t segment_count = 0;  // live segment objects
    std::uint64_t total_bytes = 0;    // bytes stored in them
    std::uint64_t live_bytes = 0;     // total - superseded data bytes
    double garbage_ratio = 0.0;       // 1 - live/total
    std::uint64_t delete_to = 0;
    std::uint64_t indexed_to = 0;
    std::uint64_t pending_postings = 0;
  };
  SegmentStats stats() const;

 private:
  /// In-memory image of one live segment (accounting only; entry payloads
  /// stay in S3).
  struct SegmentInfo {
    std::uint64_t bytes = 0;
    std::uint64_t garbage_bytes = 0;
    std::uint64_t entries = 0;
    /// Published index chunk items ("idx-<seg>-0" .. "-<chunks-1>"), so the
    /// cleaner can delete them when the segment dies.
    std::uint64_t chunk_items = 0;
  };

  /// Record a durable entry in the in-memory index + latest/garbage
  /// bookkeeping. Later copies of the same (object, version) win.
  void index_entry_locked(const pass::ObjectVersion& id,
                          const lsb::EntryLocation& loc);
  /// Charge `bytes` of `segment` as reclaimable (segment + running total).
  void add_garbage_locked(std::uint64_t segment, std::uint64_t bytes);
  /// Fetch one close by identity: per-attempt index lookup (compaction may
  /// move it) plus a byte-range GET, retrying propagation races.
  BackendResult<ReadResult> fetch_entry(const pass::ObjectVersion& id,
                                        std::uint32_t max_retries);
  /// Publish packed postings as chunk items (batched per shard domain),
  /// hitting `crash_name` between calls. Records chunk_items per segment.
  void publish_postings(
      const std::map<std::uint64_t, std::vector<lsb::Posting>>& by_segment,
      const char* crash_name);
  void write_meta(const char* attr, std::uint64_t value);
  /// Full index rebuild from SimpleDB (fresh instance over a used store).
  void rebuild_from_index();
  /// Replay segments the index does not know / purge below delete-to.
  void replay_orphans();
  bool compact_due_locked() const;

  CloudServices* services_;
  LsbBackendConfig config_;
  std::shared_ptr<const DomainTopology> topology_;

  /// Guards every in-memory structure below. Cloud calls happen outside.
  mutable std::mutex mu_;
  /// (object, version) -> location, the authoritative live index.
  std::map<pass::ObjectVersion, lsb::EntryLocation> index_;
  /// object -> latest indexed version (read path entry point).
  std::map<std::string, std::uint32_t, std::less<>> latest_;
  std::map<std::uint64_t, SegmentInfo> segments_;
  /// Durable-but-unpublished postings, grouped by segment.
  std::map<std::uint64_t, std::vector<lsb::Posting>> pending_postings_;
  std::uint64_t pending_posting_count_ = 0;
  /// Sum of garbage_bytes over segments_: the cleaner's due check.
  std::uint64_t reclaimable_bytes_ = 0;
  std::uint64_t next_segment_id_ = 1;
  /// Ids handed to a seal or cleaner rewrite whose segment is not yet in
  /// segments_ (its PUT is in flight, or its writer crashed). delete-to
  /// never passes one.
  std::set<std::uint64_t> unlisted_;
  std::uint64_t indexed_to_ = 0;
  std::uint64_t delete_to_ = 1;
  bool hydrated_ = false;

  obs::Counter* seal_count_ = nullptr;
  obs::Counter* seal_bytes_ = nullptr;
  obs::Counter* publish_count_ = nullptr;
  obs::Counter* publish_postings_ = nullptr;
  obs::Counter* compact_count_ = nullptr;
  obs::Counter* compact_reclaimed_bytes_ = nullptr;
  obs::Counter* compact_rewritten_bytes_ = nullptr;
  obs::Gauge* reclaimable_gauge_ = nullptr;
  obs::Histogram* seal_entries_ = nullptr;
};

}  // namespace provcloud::cloudprov

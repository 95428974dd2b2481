// Architecture 4: segment wire format, group sealing, deferred index
// publication, recovery (rebuild + orphan replay), the cleaner, and the
// slow-but-not-crashed S3 seal path.
#include <gtest/gtest.h>

#include "cloudprov/ancestry.hpp"
#include "cloudprov/lsb/format.hpp"
#include "cloudprov/lsb/lsb_backend.hpp"
#include "cloudprov/query.hpp"
#include "cloudprov/session.hpp"
#include "sim/failure.hpp"

namespace {

using namespace provcloud::cloudprov;
using namespace provcloud::pass;
namespace aws = provcloud::aws;
namespace sim = provcloud::sim;
namespace util = provcloud::util;
namespace obs = provcloud::obs;

FlushUnit file_unit(const std::string& object, std::uint32_t version,
                    const std::string& data,
                    std::vector<ProvenanceRecord> records = {}) {
  FlushUnit u;
  u.object = object;
  u.version = version;
  u.kind = PnodeKind::kFile;
  u.data = util::make_shared_bytes(data);
  if (records.empty())
    records = {make_text_record("TYPE", "file"),
               make_text_record("NAME", object)};
  u.records = std::move(records);
  return u;
}

bool ancestry_equal(const AncestryResult& a, const AncestryResult& b) {
  if (a.missing != b.missing) return false;
  const auto& an = a.graph.nodes();
  const auto& bn = b.graph.nodes();
  if (an.size() != bn.size()) return false;
  for (const auto& [id, node] : an) {
    const AncestryNode* other = b.graph.find(id);
    if (other == nullptr || node.kind != other->kind ||
        node.records != other->records || node.ancestors != other->ancestors)
      return false;
  }
  return true;
}

// --- wire format ---

TEST(LsbFormatTest, EntryRoundTripsWithDataAndXrefs) {
  lsb::SegmentEntry in;
  in.id = ObjectVersion{"data/a", 3};
  in.kind = PnodeKind::kFile;
  in.data = util::make_shared_bytes(std::string(300, 'x'));
  in.records = {make_text_record("NAME", "data/a"),
                make_xref_record(attr::kInput, ObjectVersion{"proc:7", 1}),
                make_xref_record(attr::kPrev, ObjectVersion{"data/a", 2})};

  const std::string blob = lsb::encode_entry(in);
  auto out = lsb::decode_entry(blob);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->id, in.id);
  EXPECT_EQ(out->kind, in.kind);
  ASSERT_NE(out->data, nullptr);
  EXPECT_EQ(*out->data, *in.data);
  EXPECT_EQ(out->records, in.records);
}

TEST(LsbFormatTest, TransientEntryCarriesNoData) {
  lsb::SegmentEntry in;
  in.id = ObjectVersion{"proc:9", 1};
  in.kind = PnodeKind::kProcess;
  in.records = {make_text_record("NAME", "/bin/sh")};
  auto out = lsb::decode_entry(lsb::encode_entry(in));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->kind, PnodeKind::kProcess);
  EXPECT_EQ(out->data, nullptr);
}

TEST(LsbFormatTest, SegmentPlacementsSupportRangeDecodes) {
  std::string blob = lsb::segment_header(42);
  std::vector<lsb::SegmentEntry> entries;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;
  for (int i = 0; i < 5; ++i) {
    lsb::SegmentEntry e;
    e.id = ObjectVersion{"f" + std::to_string(i), 1};
    e.kind = PnodeKind::kFile;
    e.data = util::make_shared_bytes(std::string(40 + i, 'd'));
    e.records = {make_text_record("NAME", e.id.object)};
    const std::string encoded = lsb::encode_entry(e);
    spans.emplace_back(blob.size(), encoded.size());
    blob += encoded;
    entries.push_back(std::move(e));
  }
  auto seg = lsb::decode_segment(blob);
  ASSERT_TRUE(seg.has_value());
  EXPECT_EQ(seg->id, 42u);
  ASSERT_EQ(seg->entries.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(seg->entries[i].offset, spans[i].first);
    EXPECT_EQ(seg->entries[i].length, spans[i].second);
    // The posting contract: a byte-range GET of (offset, length) decodes
    // the entry without the rest of the segment.
    auto ranged = lsb::decode_entry(
        blob.substr(seg->entries[i].offset, seg->entries[i].length));
    ASSERT_TRUE(ranged.has_value()) << i;
    EXPECT_EQ(ranged->id, entries[i].id);
  }
}

TEST(LsbFormatTest, PostingsPackUnder1KbAndRoundTrip) {
  std::vector<lsb::Posting> in;
  for (int i = 0; i < 100; ++i) {
    lsb::EntryLocation loc;
    loc.segment = 9;
    loc.offset = 100 * i;
    loc.length = 90 + i;
    loc.data_bytes = i % 3 == 0 ? 0 : 64;
    in.emplace_back(ObjectVersion{"dir/file" + std::to_string(i), 1u + i % 4},
                    loc);
  }
  const std::vector<std::string> values = lsb::pack_postings(in);
  ASSERT_GT(values.size(), 1u);  // forced to split
  std::vector<lsb::Posting> out;
  for (const std::string& value : values) {
    EXPECT_LE(value.size(), 1024u);  // SimpleDB's per-value limit
    ASSERT_TRUE(lsb::unpack_postings(value, 9, out));
  }
  EXPECT_EQ(out, in);
}

// --- sealing and the read path ---

TEST(LsbBackendTest, GroupSealsIntoOneSegmentPut) {
  aws::CloudEnv env(21, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  auto backend = make_lsb_backend(services);
  auto session = backend->open_session(SessionConfig{.max_group = 8});

  const sim::MeterSnapshot before = env.meter().snapshot();
  for (int i = 0; i < 8; ++i)
    session->submit(file_unit("f" + std::to_string(i), 1, "payload"));
  ASSERT_TRUE(session->sync().has_value());
  const sim::MeterSnapshot diff = env.meter().snapshot().diff(before);

  // Eight closes, ONE S3 PUT; the index publication is deferred, so no
  // SimpleDB write happened yet.
  EXPECT_EQ(diff.calls("s3", "PUT"), 1u);
  EXPECT_EQ(diff.calls("sdb", "PutAttributes"), 0u);
  EXPECT_EQ(diff.calls("sdb", "BatchPutAttributes"), 0u);

  for (int i = 0; i < 8; ++i) {
    auto got = backend->read("f" + std::to_string(i));
    ASSERT_TRUE(got.has_value()) << i;
    EXPECT_TRUE(got->verified);
    EXPECT_EQ(*got->data, "payload");
  }
}

TEST(LsbBackendTest, OversizedGroupSplitsAtTheSegmentCap) {
  aws::CloudEnv env(22, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  LsbBackendConfig cfg;
  cfg.segment_cap_bytes = 2 * util::kKiB;
  auto backend = make_lsb_backend(services, cfg);
  auto session = backend->open_session(SessionConfig{.max_group = 6});

  const sim::MeterSnapshot before = env.meter().snapshot();
  for (int i = 0; i < 6; ++i)
    session->submit(
        file_unit("big" + std::to_string(i), 1, std::string(1024, 'b')));
  ASSERT_TRUE(session->sync().has_value());
  const sim::MeterSnapshot diff = env.meter().snapshot().diff(before);
  EXPECT_GT(diff.calls("s3", "PUT"), 1u);  // the cap split the run
  for (int i = 0; i < 6; ++i)
    ASSERT_TRUE(backend->read("big" + std::to_string(i)).has_value()) << i;
}

TEST(LsbBackendTest, ReadYourWritesSeesPendingSubmits) {
  aws::CloudEnv env(23, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  auto backend = make_lsb_backend(services);
  auto session = backend->open_session(SessionConfig{.max_group = 16});
  const Ticket t = session->submit(file_unit("pending", 1, "notyet"));
  ASSERT_FALSE(t.done());
  auto got = session->read("pending");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->version, 1u);
  EXPECT_EQ(*got->data, "notyet");
}

TEST(LsbBackendTest, OldVersionProvenanceStaysRetrievable) {
  aws::CloudEnv env(24, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  auto backend = make_lsb_backend(services);
  backend->store(file_unit("v", 1, "one"));
  backend->store(file_unit(
      "v", 2, "two", {make_xref_record(attr::kPrev, ObjectVersion{"v", 1})}));
  auto latest = backend->read("v");
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->version, 2u);
  // The log keeps every version's records (unlike Arch 1).
  auto old_prov = backend->get_provenance("v", 1);
  ASSERT_TRUE(old_prov.has_value());
  EXPECT_FALSE(old_prov->empty());
}

// --- deferred publication and recovery ---

TEST(LsbBackendTest, FreshBackendRebuildsFromPublishedIndex) {
  aws::CloudEnv env(25, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  {
    auto backend = make_lsb_backend(services);
    auto session = backend->open_session(SessionConfig{.max_group = 4});
    for (int i = 0; i < 12; ++i)
      session->submit(file_unit("r" + std::to_string(i), 1, "rebuilt"));
    ASSERT_TRUE(session->sync().has_value());
    backend->quiesce();  // publish the index checkpoint
  }
  // Client restart: only the durable postings + meta exist to go on.
  auto fresh = make_lsb_backend(services);
  fresh->recover();
  const sim::MeterSnapshot before = env.meter().snapshot();
  for (int i = 0; i < 12; ++i) {
    auto got = fresh->read("r" + std::to_string(i));
    ASSERT_TRUE(got.has_value()) << i;
    EXPECT_EQ(*got->data, "rebuilt");
  }
  // Reads resolve through the rebuilt index: byte-range GETs, no scans.
  const sim::MeterSnapshot diff = env.meter().snapshot().diff(before);
  EXPECT_EQ(diff.calls("s3", "LIST"), 0u);
}

TEST(LsbBackendTest, UnpublishedSegmentsReplayAsOrphans) {
  aws::CloudEnv env(26, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  {
    auto backend = make_lsb_backend(services);
    auto session = backend->open_session(SessionConfig{.max_group = 3});
    for (int i = 0; i < 3; ++i)
      session->submit(file_unit("o" + std::to_string(i), 1, "orphaned"));
    ASSERT_TRUE(session->sync().has_value());
    // No quiesce: the backend dies with its postings unpublished -- the
    // segment is durable, the index knows nothing about it.
  }
  auto fresh = make_lsb_backend(services);
  fresh->recover();
  for (int i = 0; i < 3; ++i) {
    auto got = fresh->read("o" + std::to_string(i));
    ASSERT_TRUE(got.has_value()) << i;
    EXPECT_EQ(*got->data, "orphaned");
  }
}

TEST(LsbBackendTest, CrashedPublicationNeverTearsTheIndex) {
  aws::CloudEnv env(27, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  LsbBackendConfig cfg;
  cfg.shard_count = 3;  // publication spans several batched domain calls
  {
    auto backend = std::make_unique<LsbBackend>(services, cfg);
    auto session = backend->open_session(SessionConfig{.max_group = 8});
    for (int i = 0; i < 24; ++i)
      session->submit(file_unit("t" + std::to_string(i), 1, "torn?"));
    ASSERT_TRUE(session->sync().has_value());
    env.failures().arm_crash("lsb.index.mid_publish", 1);
    EXPECT_THROW(backend->quiesce(), sim::CrashError);
    env.failures().disarm("lsb.index.mid_publish");
  }
  // Some chunk items may be durable, but indexed-to was never advanced:
  // recovery replays the segments whole and every close survives.
  auto fresh = std::make_unique<LsbBackend>(services, cfg);
  fresh->recover();
  for (int i = 0; i < 24; ++i)
    ASSERT_TRUE(fresh->read("t" + std::to_string(i)).has_value()) << i;
}

// --- the cleaner ---

TEST(LsbBackendTest, CompactionReclaimsGarbageAndPreservesAncestry) {
  aws::CloudEnv env(28, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  LsbBackendConfig cfg;
  cfg.auto_compact = false;  // manual cleaning only
  auto backend = std::make_unique<LsbBackend>(services, cfg);

  // A chain with superseded versions: v1/v2 of "hot" become garbage once
  // v3 lands; "cold" depends on hot@2, so its records must survive the
  // cleaner dropping hot@2's data bytes.
  backend->store(file_unit("hot", 1, std::string(512, '1')));
  backend->store(file_unit(
      "hot", 2, std::string(512, '2'),
      {make_xref_record(attr::kPrev, ObjectVersion{"hot", 1})}));
  backend->store(file_unit(
      "cold", 1, "c",
      {make_xref_record(attr::kInput, ObjectVersion{"hot", 2})}));
  backend->store(file_unit(
      "hot", 3, std::string(512, '3'),
      {make_xref_record(attr::kPrev, ObjectVersion{"hot", 2})}));
  backend->quiesce();

  const auto before = backend->stats();
  EXPECT_GE(before.segment_count, 4u);
  EXPECT_GT(before.garbage_ratio, 0.0);
  const AncestryResult want = fetch_ancestry(*backend, "cold", 1);
  const AncestryResult want_hot = fetch_ancestry(*backend, "hot", 3);

  // Only the segments holding superseded copies (hot@1, hot@2) are worth
  // rewriting; the all-live cold@1 and hot@3 segments are left alone.
  const std::size_t reclaimed = backend->compact();
  EXPECT_GE(reclaimed, 2u);

  const auto after = backend->stats();
  EXPECT_LT(after.segment_count, before.segment_count);
  EXPECT_LT(after.total_bytes, before.total_bytes);
  EXPECT_LT(after.garbage_ratio, before.garbage_ratio);
  EXPECT_GT(after.delete_to, 1u);

  // Dead segment objects are really gone.
  for (const std::string& key : services.s3.peek_keys(lsb::kSegmentBucket)) {
    std::uint64_t id = 0;
    ASSERT_TRUE(lsb::parse_segment_key(key, id));
    EXPECT_GE(id, after.delete_to) << key;
  }

  // Query results are bit-identical across the cleaner pass.
  EXPECT_TRUE(ancestry_equal(fetch_ancestry(*backend, "cold", 1), want));
  EXPECT_TRUE(ancestry_equal(fetch_ancestry(*backend, "hot", 3), want_hot));
  // Latest data still served; superseded data bytes dropped, records kept.
  auto hot = backend->read("hot");
  ASSERT_TRUE(hot.has_value());
  EXPECT_EQ(hot->version, 3u);
  auto old_prov = backend->get_provenance("hot", 2);
  ASSERT_TRUE(old_prov.has_value());
  EXPECT_FALSE(old_prov->empty());

  // A fresh backend over the compacted store agrees.
  auto fresh = make_lsb_backend(services);
  fresh->recover();
  EXPECT_TRUE(ancestry_equal(fetch_ancestry(*fresh, "cold", 1), want));
}

TEST(LsbBackendTest, CleanerSkipsTheAllLiveColdPrefix) {
  // Garbage concentrated in LATE segments: a live prefix of never-
  // overwritten objects (segments 1-8), then repeated overwrites of one hot
  // object (segments 9-16). Only segments with reclaimable bytes are
  // victims, so the pass jumps straight to the overwrite-heavy tail and
  // never copies the all-live prefix.
  aws::CloudEnv env(31, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  LsbBackendConfig cfg;
  cfg.auto_compact = false;  // manual cleaning only
  auto backend = std::make_unique<LsbBackend>(services, cfg);
  constexpr std::uint64_t kColdSegments = 8;
  for (std::uint64_t i = 0; i < kColdSegments; ++i)
    backend->store(file_unit("cold/f" + std::to_string(i), 1,
                             std::string(256, 'c')));
  for (int v = 1; v <= 8; ++v)
    backend->store(file_unit("hot", v, std::string(256, 'h')));
  backend->quiesce();
  const auto before = backend->stats();
  ASSERT_GT(before.garbage_ratio, 0.0);

  ASSERT_GT(backend->compact(), 0u);
  for (std::uint64_t id = 1; id <= kColdSegments; ++id)
    EXPECT_TRUE(services.s3.peek(lsb::kSegmentBucket, lsb::segment_key(id))
                    .has_value())
        << "cold segment " << id << " was rewritten";
  EXPECT_EQ(backend->stats().delete_to, 1u);
  EXPECT_GT(env.metrics().counter("lsb.compact.reclaimed_bytes").value(), 0u);
  EXPECT_LT(backend->stats().garbage_ratio, before.garbage_ratio);
}

TEST(LsbBackendTest, MidLogCompactionKeepsWatermarkBehindSurvivors) {
  aws::CloudEnv env(32, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  LsbBackendConfig cfg;
  cfg.auto_compact = false;
  auto backend = std::make_unique<LsbBackend>(services, cfg);
  // Segment 1: live forever. Segments 2-3: superseded by segment 4.
  backend->store(file_unit("keep", 1, std::string(64, 'k')));
  backend->store(file_unit("churn", 1, std::string(512, 'a')));
  backend->store(file_unit("churn", 2, std::string(512, 'b')));
  backend->store(file_unit("churn", 3, std::string(64, 'z')));
  backend->quiesce();

  ASSERT_GT(backend->compact(), 0u);
  const auto stats = backend->stats();
  // Victims were the mid-log garbage segments; segment 1 survives, so the
  // delete-to watermark must not advance past it.
  EXPECT_EQ(stats.delete_to, 1u);
  auto keep = backend->read("keep");
  ASSERT_TRUE(keep.has_value());
  EXPECT_EQ(keep->version, 1u);
  auto churn = backend->read("churn");
  ASSERT_TRUE(churn.has_value());
  EXPECT_EQ(churn->version, 3u);

  // A fresh backend over the store (client restart) agrees: nothing was
  // purged that a surviving segment still needs.
  auto fresh = make_lsb_backend(services);
  fresh->recover();
  auto again = fresh->read("keep");
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->version, 1u);
}

TEST(LsbBackendTest, DeleteToReachesTheFirstSurvivorPastEarlierPasses) {
  aws::CloudEnv env(33, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  LsbBackendConfig cfg;
  cfg.auto_compact = false;
  auto backend = std::make_unique<LsbBackend>(services, cfg);
  // One segment per store: 1 = low@1, 2 = mid@1, 3 = mid@2, 4 = keep@1.
  backend->store(file_unit("low", 1, std::string(512, 'l')));
  backend->store(file_unit("mid", 1, std::string(512, 'm')));
  backend->store(file_unit("mid", 2, std::string(64, 'n')));
  backend->store(file_unit("keep", 1, std::string(64, 'k')));
  backend->quiesce();
  // Pass 1 retires segment 2 only; segment 1 is all-live and survives.
  ASSERT_EQ(backend->compact(), 1u);
  EXPECT_EQ(backend->stats().delete_to, 1u);

  // Superseding low@1 makes segment 1 garbage; pass 2 retires it, below
  // the segment pass 1 already retired. Segment 3 is the first survivor.
  backend->store(file_unit("low", 2, std::string(64, 'o')));
  backend->quiesce();
  ASSERT_EQ(backend->compact(), 1u);
  std::uint64_t first_survivor = 0;
  for (const std::string& key : services.s3.peek_keys(lsb::kSegmentBucket)) {
    std::uint64_t id = 0;
    if (lsb::parse_segment_key(key, id) &&
        (first_survivor == 0 || id < first_survivor))
      first_survivor = id;
  }
  EXPECT_EQ(first_survivor, 3u);
  EXPECT_EQ(backend->stats().delete_to, first_survivor);

  // A fresh backend over the store purges nothing a survivor needs.
  auto fresh = make_lsb_backend(services);
  fresh->recover();
  for (const auto& [object, version] :
       {std::pair<std::string, std::uint32_t>{"low", 2},
        {"mid", 2},
        {"keep", 1}}) {
    auto got = fresh->read(object);
    ASSERT_TRUE(got.has_value()) << object;
    EXPECT_EQ(got->version, version) << object;
  }
}

TEST(LsbBackendTest, DeleteToNeverPassesAnUnlistedSeal) {
  // A seal takes its id before its PUT and lists the segment after it. An
  // id taken but never listed -- the PUT still in flight, or, as here, the
  // writer crashed after it landed -- bounds delete-to: recover() must
  // replay that segment, not purge it.
  aws::CloudEnv env(34, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  LsbBackendConfig cfg;
  cfg.auto_compact = false;
  auto backend = std::make_unique<LsbBackend>(services, cfg);
  backend->store(file_unit("a", 1, std::string(512, 'a')));  // segment 1
  backend->store(file_unit("b", 1, std::string(512, 'b')));  // segment 2
  env.failures().arm_crash("lsb.seal.after_put");
  EXPECT_THROW(backend->store(file_unit("c", 1, std::string(64, 'c'))),
               sim::CrashError);  // segment 3: durable, never listed
  backend->store(file_unit("a", 2, std::string(64, 'A')));  // segment 4
  backend->store(file_unit("b", 2, std::string(64, 'B')));  // segment 5
  backend->quiesce();
  ASSERT_EQ(backend->compact(), 2u);  // segments 1 and 2
  EXPECT_EQ(backend->stats().delete_to, 3u);

  auto fresh = make_lsb_backend(services);
  fresh->recover();
  auto got = fresh->read("c");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->version, 1u);
}

TEST(LsbBackendTest, AutomaticCleaningTriggersOnTheWritePath) {
  aws::CloudEnv env(29, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  LsbBackendConfig cfg;
  cfg.segment_cap_bytes = 4 * util::kKiB;
  cfg.index_publish_entries = 4;
  auto backend = std::make_unique<LsbBackend>(services, cfg);
  // Each overwrite supersedes the previous version's 3 KiB of data: the
  // reclaimable total reaches the trigger (one segment cap) every other
  // close.
  for (int i = 0; i < 24; ++i)
    backend->store(file_unit("auto", 1 + i, std::string(3 * 1024, 'a' + i)));
  backend->quiesce();
  const auto stats = backend->stats();
  EXPECT_GT(env.metrics().counter("lsb.compactions").value(), 0u);
  EXPECT_GT(stats.delete_to, 1u);  // the cleaner ran without being asked
  EXPECT_GT(env.metrics().counter("lsb.compact.reclaimed_bytes").value(), 0u);
  EXPECT_LT(env.metrics().gauge("lsb.reclaimable_bytes").value(),
            static_cast<std::int64_t>(cfg.segment_cap_bytes));
  auto got = backend->read("auto");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->version, 24u);
  EXPECT_EQ(*got->data, std::string(3 * 1024, 'a' + 23));
}

TEST(LsbBackendTest, AllLiveLogIsNeverRewritten) {
  // Append-only: no close ever supersedes another, so no segment holds a
  // reclaimable byte however long the log grows. The cleaner must neither
  // fire on the write path nor, asked directly, issue a single request --
  // not even the index publication a pass with victims starts with.
  aws::CloudEnv env(33, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  auto backend = std::make_unique<LsbBackend>(services);
  constexpr std::uint64_t kSegments = 160;
  for (std::uint64_t i = 0; i < kSegments; ++i)
    backend->store(file_unit("log/f" + std::to_string(i), 1,
                             std::string(512, 'l')));
  ASSERT_GT(backend->stats().pending_postings, 0u);

  const sim::MeterSnapshot before = env.meter().snapshot();
  EXPECT_EQ(backend->compact(), 0u);
  const sim::MeterSnapshot diff = env.meter().snapshot().diff(before);
  EXPECT_EQ(diff.calls("s3"), 0u);
  EXPECT_EQ(diff.calls("sdb"), 0u);

  backend->quiesce();
  EXPECT_EQ(backend->stats().segment_count, kSegments);
  EXPECT_EQ(backend->stats().garbage_ratio, 0.0);
  EXPECT_EQ(env.metrics().counter("lsb.compactions").value(), 0u);
  EXPECT_EQ(env.metrics().counter("lsb.compact.rewritten_bytes").value(), 0u);
  EXPECT_EQ(env.metrics().gauge("lsb.reclaimable_bytes").value(), 0);
}

TEST(LsbBackendTest, ReclaimableBytesCountEachDeadByteOnce) {
  // A second copy of a superseded version (a replayed close): the first
  // copy's whole entry is dead, and so are the second copy's data bytes.
  // Each dead byte is charged once, to the segment it lives in.
  aws::CloudEnv env(37, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  LsbBackendConfig cfg;
  cfg.auto_compact = false;
  auto backend = std::make_unique<LsbBackend>(services, cfg);
  const std::string v1(1000, '1');
  backend->store(file_unit("dup", 1, v1));
  backend->store(file_unit("dup", 2, "2"));
  backend->store(file_unit("dup", 1, v1));
  backend->quiesce();
  const auto first = services.s3.peek(lsb::kSegmentBucket,
                                      lsb::segment_key(1));
  ASSERT_TRUE(first.has_value());
  const std::uint64_t first_entry =
      first->data->size() - lsb::segment_header(1).size();
  const obs::Gauge& reclaimable = env.metrics().gauge("lsb.reclaimable_bytes");
  EXPECT_EQ(reclaimable.value(),
            static_cast<std::int64_t>(first_entry + v1.size()));

  // One pass retires both segments holding dead bytes.
  EXPECT_EQ(backend->compact(), 2u);
  EXPECT_EQ(reclaimable.value(), 0);
  EXPECT_EQ(backend->stats().garbage_ratio, 0.0);
  auto latest = backend->read("dup");
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->version, 2u);
  auto old_prov = backend->get_provenance("dup", 1);
  ASSERT_TRUE(old_prov.has_value());
  EXPECT_FALSE(old_prov->empty());
}

TEST(LsbBackendTest, CleanerPassStaysWithinItsByteBudget) {
  aws::CloudEnv env(36, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  LsbBackendConfig cfg;
  cfg.auto_compact = false;
  cfg.segment_cap_bytes = 4 * util::kKiB;  // a pass may move 16 KiB
  auto backend = std::make_unique<LsbBackend>(services, cfg);
  // Twenty segments, each one small live object plus a 3 KiB overwrite of
  // a shared hot object: every victim but the newest is almost all
  // garbage, so copying it is cheap and reading it is what a pass pays.
  constexpr int kSegments = 20;
  for (int i = 0; i < kSegments; ++i) {
    auto session = backend->open_session(SessionConfig{.max_group = 2});
    session->submit(file_unit("live" + std::to_string(i), 1,
                              std::string(64, 'l')));
    session->submit(file_unit("hot", 1 + i, std::string(3 * 1024, 'h')));
    ASSERT_TRUE(session->sync().has_value());
  }
  backend->quiesce();
  const obs::Counter& rewritten =
      env.metrics().counter("lsb.compact.rewritten_bytes");
  const obs::Counter& reclaimed =
      env.metrics().counter("lsb.compact.reclaimed_bytes");
  const obs::Gauge& reclaimable = env.metrics().gauge("lsb.reclaimable_bytes");
  const auto garbage_of = [](const LsbBackend::SegmentStats& s) {
    return static_cast<std::int64_t>(s.total_bytes - s.live_bytes);
  };
  ASSERT_GT(reclaimable.value(), 0);
  EXPECT_EQ(reclaimable.value(), garbage_of(backend->stats()));

  int passes = 0;
  for (;;) {
    const std::uint64_t rewritten_before = rewritten.value();
    const std::uint64_t reclaimed_before = reclaimed.value();
    if (backend->compact() == 0) break;
    ++passes;
    // Victims read = reclaimed + rewritten; the budget covers the reads
    // and the rewrites.
    const std::uint64_t wrote = rewritten.value() - rewritten_before;
    const std::uint64_t read = reclaimed.value() - reclaimed_before + wrote;
    EXPECT_GT(wrote, 0u);
    EXPECT_LE(read + wrote, 4 * cfg.segment_cap_bytes) << "pass " << passes;
    EXPECT_EQ(reclaimable.value(), garbage_of(backend->stats()));
    ASSERT_LT(passes, kSegments);
  }
  EXPECT_GT(passes, 1);  // the budget, not the log, bounded each pass
  EXPECT_EQ(reclaimable.value(), 0);
  EXPECT_EQ(backend->stats().garbage_ratio, 0.0);
  for (int i = 0; i < kSegments; ++i) {
    auto got = backend->read("live" + std::to_string(i));
    ASSERT_TRUE(got.has_value()) << i;
    EXPECT_EQ(*got->data, std::string(64, 'l'));
  }
  auto hot = backend->read("hot");
  ASSERT_TRUE(hot.has_value());
  EXPECT_EQ(hot->version, static_cast<std::uint32_t>(kSegments));
}

// --- satellite: slow-but-not-crashed S3 on the seal path ---

TEST(LsbBackendTest, SlowS3StallsSealingWithoutCorruptingTheIndex) {
  aws::CloudEnv env(30, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  auto backend = make_lsb_backend(services);

  // Brown-out: every S3 request takes 2 extra virtual seconds. Seals must
  // stall (visible as S3 ledger time), not fail or tear anything.
  const sim::SimTime extra = 2 * sim::kSecond;
  env.set_service_slowdown("s3", extra);
  const sim::SimTime s3_before = env.elapsed_by_service()["s3"];

  auto session = backend->open_session(SessionConfig{.max_group = 5});
  for (int i = 0; i < 5; ++i)
    session->submit(file_unit("slow" + std::to_string(i), 1, "molasses"));
  ASSERT_TRUE(session->sync().has_value());

  // One seal PUT, at least one injected delay, all on the S3 account.
  const sim::SimTime s3_after = env.elapsed_by_service()["s3"];
  EXPECT_GE(s3_after - s3_before, extra);

  env.set_service_slowdown("s3", 0);
  backend->quiesce();
  for (int i = 0; i < 5; ++i) {
    auto got = backend->read("slow" + std::to_string(i));
    ASSERT_TRUE(got.has_value()) << i;
    EXPECT_TRUE(got->verified);
    EXPECT_EQ(*got->data, "molasses");
  }
  // The stalled seal published a sound index: a fresh backend agrees.
  auto fresh = make_lsb_backend(services);
  fresh->recover();
  for (int i = 0; i < 5; ++i)
    ASSERT_TRUE(fresh->read("slow" + std::to_string(i)).has_value()) << i;
}

// --- the scan query engine ---

TEST(LsbQueryTest, ScanEngineAnswersLikeTheBackend) {
  aws::CloudEnv env(31, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  auto backend = make_lsb_backend(services);

  FlushUnit proc;
  proc.object = "proc:5";
  proc.version = 1;
  proc.kind = PnodeKind::kProcess;
  proc.records = {make_text_record(attr::kName, "/usr/bin/blast")};
  backend->store(proc);
  backend->store(file_unit(
      "out/hits", 1, "hits",
      {make_xref_record(attr::kInput, ObjectVersion{"proc:5", 1})}));
  backend->store(file_unit(
      "out/summary", 1, "sum",
      {make_xref_record(attr::kInput, ObjectVersion{"out/hits", 1})}));
  backend->quiesce();

  auto engine = make_lsb_query_engine(services);
  const auto q1 = engine->q1_all_provenance();
  EXPECT_EQ(q1.object_versions, 3u);
  EXPECT_EQ(engine->q2_outputs_of("/usr/bin/blast"),
            (std::set<std::string>{"out/hits"}));
  EXPECT_EQ(engine->q3_descendants_of("/usr/bin/blast"),
            (std::set<std::string>{"out/hits", "out/summary"}));
  const AncestryResult walked = engine->ancestry("out/summary", 1);
  EXPECT_TRUE(walked.missing.empty());
  EXPECT_EQ(walked.graph.nodes().size(), 3u);
}

}  // namespace

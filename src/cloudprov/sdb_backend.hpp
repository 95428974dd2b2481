// Architecture 2 (section 4.2): data in S3, provenance in SimpleDB.
//
// On close:
//   1. read caches (arrives as the FlushUnit);
//   2. build one big provenance record for the version: each PASS record
//      becomes an attribute-value pair of the SimpleDB item named
//      "<object>:<version>"; values over 1 KB are stored as separate S3
//      objects and replaced by pointers; an extra MD5 attribute holds
//      MD5(data || nonce);
//   3. PutAttributes -- possibly several calls (100-attribute limit);
//   4. PUT the data to S3 with the nonce as metadata.
//
// Efficient query (SimpleDB indexes everything) and consistency (MD5+nonce
// detection) hold; *atomicity does not*: a crash between steps 3 and 4
// leaves orphan provenance. recover() implements the paper's inelegant fix:
// a full scan of the domain deleting provenance of objects that never
// arrived.
#pragma once

#include "cloudprov/backend.hpp"
#include "cloudprov/domain_topology.hpp"

namespace provcloud::cloudprov {

/// Storage-path knobs. The defaults enable the batched write path (fewer
/// SimpleDB round trips per close); batch_size = 1 with shard_count = 1
/// restores the paper's exact PutAttributes-chunked protocol.
struct SdbBackendConfig {
  /// SimpleDB domains provenance items are hashed across. 1 keeps the
  /// original single-"provenance"-domain layout bit-identically.
  std::size_t shard_count = 1;
  /// Items per BatchPutAttributes write call; 1 selects the legacy
  /// one-PutAttributes-per-100-attribute-chunk path.
  std::size_t batch_size = aws::kSdbMaxItemsPerBatch;
  /// Concurrent shard requests (read_many fan-out). 1 keeps every path
  /// sequential and deterministic.
  std::size_t parallelism = 1;
};

class SdbBackend final : public ProvenanceBackend {
 public:
  explicit SdbBackend(CloudServices& services, SdbBackendConfig config = {});

  Architecture architecture() const override {
    return Architecture::kS3SimpleDb;
  }
  std::string name() const override { return "S3+SimpleDB"; }

  std::unique_ptr<Session> do_open_session(SessionConfig config) override;
  bool supports_group_commit() const override { return true; }
  /// Cross-close group commit: one BatchPutAttributes chain per group of
  /// closes (per shard domain, in causal waves) instead of one per close,
  /// then the data PUTs in submit order. With a single-close group this is
  /// bit-for-bit the per-close store() protocol. batch_size 1 takes the
  /// legacy PutAttributes-chunk path.
  void commit_group(const std::vector<TicketState*>& group,
                    sim::LatencyLedger* ledger) override;
  BackendResult<ReadResult> read(const std::string& object,
                                 std::uint32_t max_retries = 64) override;
  BackendResult<std::vector<pass::ProvenanceRecord>> get_provenance(
      const std::string& object, std::uint32_t version) override;

  /// Orphan-provenance scan: delete items whose data never made it to S3.
  void recover() override;

  PropertyClaims claims() const override {
    return PropertyClaims{.atomicity = false,
                          .consistency = true,
                          .causal_ordering = true,
                          .efficient_query = true};
  }

  /// Number of orphan items the last recover() removed (diagnostics).
  std::uint64_t last_recovery_orphans() const { return last_orphans_; }

  const SdbBackendConfig& config() const { return config_; }
  std::shared_ptr<const DomainTopology> topology() const override {
    return topology_;
  }

 private:
  CloudServices* services_;
  SdbBackendConfig config_;
  std::shared_ptr<const DomainTopology> topology_;
  std::uint64_t last_orphans_ = 0;
};

}  // namespace provcloud::cloudprov

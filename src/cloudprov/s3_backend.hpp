// Architecture 1 (section 4.1): PASS with S3 as the only storage substrate.
//
// "Each PASS file maps to an S3 object. We store an object's provenance as
// S3 metadata. ... When the application issues a close on a file, we send
// both the file and its provenance to S3."
//
// Protocol on close:
//   1. read the data + provenance caches (done by PASS; arrives as the
//      FlushUnit);
//   2. convert records to S3 metadata attribute-value pairs; records larger
//      than the spill threshold go to their own S3 objects first (the
//      paper's workaround for the 2 KB metadata limit -- which, as the paper
//      notes, weakens read correctness for exactly those records);
//   3. a single PUT carries the object and its provenance together --
//      atomicity and consistency by construction.
//
// Transient objects (processes, pipes) become zero-byte S3 objects carrying
// only metadata.
#pragma once

#include "cloudprov/backend.hpp"

namespace provcloud::cloudprov {

class S3Backend final : public ProvenanceBackend {
 public:
  /// Arch 1 keeps no SimpleDB shards and so has no topology: read_many
  /// reads one object after another (the paper's sequential protocol).
  explicit S3Backend(CloudServices& services);

  Architecture architecture() const override { return Architecture::kS3Only; }
  std::string name() const override { return "S3"; }

  /// Sessions on Arch 1 flush every submit immediately
  /// (supports_group_commit is false): the single-PUT close is what the
  /// atomicity and consistency rows of Table 1 rest on, so submits never
  /// wait for a group no matter the configured max_group.
  std::unique_ptr<Session> do_open_session(SessionConfig config) override;
  /// One blocking single-PUT store per close, in submit order.
  void commit_group(const std::vector<TicketState*>& group,
                    sim::LatencyLedger* ledger) override;
  BackendResult<ReadResult> read(const std::string& object,
                                 std::uint32_t max_retries = 64) override;
  BackendResult<std::vector<pass::ProvenanceRecord>> get_provenance(
      const std::string& object, std::uint32_t version) override;
  void recover() override {}  // single-PUT protocol: nothing to repair

  PropertyClaims claims() const override {
    return PropertyClaims{.atomicity = true,
                          .consistency = true,
                          .causal_ordering = true,
                          .efficient_query = false};
  }

 private:
  /// The paper's close protocol for one unit (the commit_group body).
  void store_one(const pass::FlushUnit& unit);

  /// Resolve spill pointers in decoded records, charging GETs.
  BackendResult<std::vector<pass::ProvenanceRecord>> resolve_spills(
      std::vector<pass::ProvenanceRecord> records, std::uint32_t max_retries);

  CloudServices* services_;
};

}  // namespace provcloud::cloudprov

// Per-tenant provisioned-throughput capacity model, after kivaloo's
// dynamodb-kv capacity accounting: each tenant buys a sustained rate of
// capacity units per virtual second plus a burst allowance, and a token
// bucket refilled from the simulated clock decides admission. A refusal
// carries a Retry-After estimate so the frontend can hand back a typed
// kThrottled error instead of silently queueing unbounded work.
#pragma once

#include <cstdint>

#include "sim/clock.hpp"

namespace provcloud::cloudprov {

/// Data bytes per capacity unit (see TenantQuota).
inline constexpr std::uint64_t kCapacityUnitBytes = 4096;

/// What a tenant provisioned. Units are abstract "capacity units": a close
/// costs 1 plus one unit per kCapacityUnitBytes of data (rounded up),
/// mirroring how DynamoDB charges write units per KB. `burst` must cover
/// the largest single close or that close can never be admitted.
struct TenantQuota {
  /// Sustained capacity units per virtual second.
  double rate_per_sec = 100.0;
  /// Bucket capacity: units a quiet tenant banks for a burst.
  double burst = 200.0;
};

/// Deterministic token bucket over virtual time. Not thread-safe; the
/// Frontend serializes access under its own lock.
class TokenBucket {
 public:
  TokenBucket() = default;
  TokenBucket(const TenantQuota& quota, sim::SimTime now)
      : quota_(quota), tokens_(quota.burst), last_(now) {}

  /// Consume `cost` units at virtual time `now`. On refusal, *retry_after
  /// (optional out) receives the virtual wait until `cost` units will have
  /// refilled -- the 503's Retry-After. A cost above the burst capacity is
  /// never admissible; retry_after then reports the wait as if the bucket
  /// could hold it, which at least scales with the deficit.
  bool try_consume(double cost, sim::SimTime now,
                   sim::SimTime* retry_after = nullptr);

  /// Units available at `now` (const: computes the refill, mutates nothing).
  double available(sim::SimTime now) const;

  const TenantQuota& quota() const { return quota_; }

 private:
  TenantQuota quota_;
  double tokens_ = 0.0;
  sim::SimTime last_ = 0;
};

}  // namespace provcloud::cloudprov

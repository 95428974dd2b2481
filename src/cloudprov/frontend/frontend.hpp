// Frontend: the million-client front door onto one backend's session
// engine, after kivaloo's mux/ connection multiplexer.
//
// The session layer (PR 6) made a backend accept many concurrent sessions,
// but nothing fans thousands of tenants into it, and nothing says "no" when
// offered load exceeds capacity. The Frontend owns a bounded pool of
// sessions and an admission controller in front of them:
//
//   offer(tenant, unit)  -- thread-safe; any tenant thread. Admission runs
//       here: the tenant's token bucket (TokenBucket, provisioned
//       rate + burst) must cover the close's capacity cost, and the
//       tenant's bounded queue must have room. A refusal is a typed
//       BackendErrorCode::kThrottled with Retry-After metadata -- never a
//       blocked caller, never unbounded memory, never back-pressure into
//       the commit daemon.
//   pump()               -- driver thread only. Drains accepted closes
//       round-robin across tenants into the session pool (tenant hashed to
//       a session, kivaloo-mux style) and reaps retired closes into
//       per-tenant latency histograms and counters.
//   sync_all()           -- driver thread only. Durability barrier across
//       the whole pool.
//
// Overflow policy: kReject refuses the NEW close when the tenant queue is
// full; kShedOldest admits it and sheds the tenant's oldest queued close
// instead (its FrontendTicket resolves to kThrottled). Either way only the
// offending tenant pays -- other tenants' queues and quotas are untouched.
//
// With admission_control off the frontend is a pure multiplexer (no
// metering, no bounds): the configuration the burst-storm bench uses to
// show every tenant's tail latency collapsing together.
//
// Metering (obs::MetricsRegistry): frontend.offered / .accepted /
// .throttled / .shed / .completed / .failed counters, a
// frontend.queue_depth histogram per pump, and per tenant
// tenant.<id>.close_latency_us (frontend queue wait + the ticket's
// end-to-end close latency).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "aws/common/env.hpp"
#include "cloudprov/frontend/capacity.hpp"
#include "cloudprov/session.hpp"

namespace provcloud::cloudprov {

/// What happens to a close offered to a full tenant queue.
enum class OverflowPolicy { kReject, kShedOldest };

const char* to_string(OverflowPolicy policy);

struct FrontendConfig {
  /// Sessions the frontend fans tenants into (each tenant sticks to one).
  std::size_t session_pool = 4;
  /// Accepted-but-unforwarded closes a tenant may queue between pumps.
  std::size_t tenant_queue_cap = 64;
  OverflowPolicy overflow = OverflowPolicy::kReject;
  /// Off: no metering, no queue bounds -- a pure multiplexer.
  bool admission_control = true;
  /// Quota every tenant's token bucket starts from.
  TenantQuota default_quota;
  /// Template for the pool's sessions; client_id becomes "<id>-<slot>".
  SessionConfig session;
};

/// Shared state of one accepted close. Fields before `phase` are written
/// by the accepting/forwarding thread and published by the release store
/// into `phase`; readers acquire `phase` first (FrontendTicket does).
struct FrontendTicketState {
  enum Phase : int { kQueued = 0, kForwarded = 1, kShed = 2 };

  std::string tenant;
  pass::FlushUnit unit;
  double cost = 1.0;
  sim::SimTime accepted_at = 0;
  sim::SimTime forwarded_at = 0;  // valid from kForwarded
  Ticket backend;                 // valid from kForwarded
  BackendError refusal;           // valid at kShed (kThrottled)
  std::atomic<int> phase{kQueued};
};

/// Handle to one accepted close. Cheap to copy; outlives the frontend.
class FrontendTicket {
 public:
  FrontendTicket() = default;
  explicit FrontendTicket(std::shared_ptr<const FrontendTicketState> state)
      : state_(std::move(state)) {}

  bool valid() const { return state_ != nullptr; }

  /// The close reached a final state: durable, failed, or shed.
  bool done() const {
    if (state_ == nullptr) return false;
    const int phase = state_->phase.load(std::memory_order_acquire);
    if (phase == FrontendTicketState::kShed) return true;
    return phase == FrontendTicketState::kForwarded && state_->backend.done();
  }

  /// done() and the close is durable (a shed close is never ok).
  bool ok() const {
    return done() &&
           state_->phase.load(std::memory_order_acquire) ==
               FrontendTicketState::kForwarded &&
           state_->backend.ok();
  }

  /// The refusal (kThrottled, when shed) or the backend's per-close
  /// failure; call only when done() && !ok().
  const BackendError& error() const {
    if (state_->phase.load(std::memory_order_acquire) ==
        FrontendTicketState::kShed)
      return state_->refusal;
    return state_->backend.error();
  }

 private:
  std::shared_ptr<const FrontendTicketState> state_;
};

class Frontend {
 public:
  /// The pool's sessions are opened immediately from `config.session`.
  /// Metrics/histograms land in `env.metrics()`.
  Frontend(ProvenanceBackend& backend, aws::CloudEnv& env,
           FrontendConfig config = FrontendConfig{});
  ~Frontend();
  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  /// Offer one close on behalf of `tenant`. Thread-safe; never blocks on
  /// the cloud. Admission refusals return kThrottled (capacity: with a
  /// Retry-After estimate; queue overflow under kReject: retry at the
  /// caller's pace). Under kShedOldest the offer is admitted and the
  /// tenant's oldest queued close is shed instead.
  util::Expected<FrontendTicket, BackendError> offer(
      const std::string& tenant, const pass::FlushUnit& unit);

  /// Forward accepted closes into the session pool (round-robin across
  /// tenants) and reap retired ones. Driver thread only. May throw
  /// sim::CrashError out of an inline flush, like Session::submit.
  void pump();

  /// Durability barrier over the whole pool: pump, sync every session,
  /// reap. Returns the first per-close backend failure since the last
  /// barrier. Driver thread only.
  BackendResult<void> sync_all();

  struct TenantStats {
    std::uint64_t offered = 0;
    std::uint64_t accepted = 0;
    std::uint64_t throttled = 0;  // capacity refusals
    std::uint64_t rejected = 0;   // queue-full refusals (kReject)
    std::uint64_t shed = 0;       // queue-full victims (kShedOldest)
    std::uint64_t completed = 0;  // durable closes
    std::uint64_t failed = 0;     // backend per-close failures
  };
  TenantStats tenant_stats(const std::string& tenant) const;
  std::vector<std::string> tenants() const;

  /// Accepted closes not yet forwarded into a session.
  std::size_t queued() const;
  /// Forwarded closes not yet reaped.
  std::size_t in_flight() const;

  const FrontendConfig& config() const { return config_; }

 private:
  struct TenantState {
    TokenBucket bucket;
    std::deque<std::shared_ptr<FrontendTicketState>> queue;
    TenantStats stats;
    obs::Histogram* close_latency = nullptr;
  };

  /// Find-or-create tenant state (mu_ held).
  TenantState& tenant_locked(const std::string& tenant);
  double close_cost(const pass::FlushUnit& unit) const;
  /// Move retired in-flight closes into per-tenant stats (mu_ held).
  void reap_locked();

  ProvenanceBackend* backend_;
  aws::CloudEnv* env_;
  FrontendConfig config_;
  std::vector<std::unique_ptr<Session>> pool_;

  obs::Counter* offered_ = nullptr;
  obs::Counter* accepted_ = nullptr;
  obs::Counter* throttled_ = nullptr;
  obs::Counter* shed_ = nullptr;
  obs::Counter* completed_ = nullptr;
  obs::Counter* failed_ = nullptr;
  obs::Histogram* queue_depth_ = nullptr;

  mutable std::mutex mu_;
  std::map<std::string, TenantState, std::less<>> tenants_;
  std::vector<std::shared_ptr<FrontendTicketState>> in_flight_;
};

}  // namespace provcloud::cloudprov

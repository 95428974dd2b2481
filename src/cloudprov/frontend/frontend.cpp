#include "cloudprov/frontend/frontend.hpp"

#include <algorithm>
#include <utility>

#include "cloudprov/shard_router.hpp"
#include "util/require.hpp"

namespace provcloud::cloudprov {

const char* to_string(OverflowPolicy policy) {
  switch (policy) {
    case OverflowPolicy::kReject: return "reject";
    case OverflowPolicy::kShedOldest: return "shed-oldest";
  }
  return "?";
}

Frontend::Frontend(ProvenanceBackend& backend, aws::CloudEnv& env,
                   FrontendConfig config)
    : backend_(&backend), env_(&env), config_(std::move(config)) {
  PROVCLOUD_REQUIRE_MSG(config_.session_pool > 0,
                        "Frontend needs at least one session");
  pool_.reserve(config_.session_pool);
  for (std::size_t i = 0; i < config_.session_pool; ++i) {
    SessionConfig sc = config_.session;
    sc.client_id = config_.session.client_id + "-" + std::to_string(i);
    pool_.push_back(backend_->open_session(sc));
  }
  obs::MetricsRegistry& m = env_->metrics();
  offered_ = &m.counter("frontend.offered");
  accepted_ = &m.counter("frontend.accepted");
  throttled_ = &m.counter("frontend.throttled");
  shed_ = &m.counter("frontend.shed");
  completed_ = &m.counter("frontend.completed");
  failed_ = &m.counter("frontend.failed");
  queue_depth_ = &m.histogram("frontend.queue_depth");
}

Frontend::~Frontend() = default;

Frontend::TenantState& Frontend::tenant_locked(const std::string& tenant) {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    TenantState state;
    state.bucket = TokenBucket(config_.default_quota, env_->clock().now());
    state.close_latency =
        &env_->metrics().histogram("tenant." + tenant + ".close_latency_us");
    it = tenants_.emplace(tenant, std::move(state)).first;
  }
  return it->second;
}

double Frontend::close_cost(const pass::FlushUnit& unit) const {
  const std::uint64_t bytes = unit.data == nullptr ? 0 : unit.data->size();
  return 1.0 + static_cast<double>((bytes + kCapacityUnitBytes - 1) /
                                   kCapacityUnitBytes);
}

util::Expected<FrontendTicket, BackendError> Frontend::offer(
    const std::string& tenant, const pass::FlushUnit& unit) {
  const sim::SimTime now = env_->clock().now();
  const double cost = close_cost(unit);
  std::lock_guard<std::mutex> lock(mu_);
  TenantState& state = tenant_locked(tenant);
  state.stats.offered += 1;
  offered_->add(1);
  if (config_.admission_control) {
    sim::SimTime retry_after = 0;
    if (!state.bucket.try_consume(cost, now, &retry_after)) {
      state.stats.throttled += 1;
      throttled_->add(1);
      return backend_throttled(
          "tenant " + tenant + " over provisioned capacity", retry_after);
    }
    if (state.queue.size() >= config_.tenant_queue_cap) {
      if (config_.overflow == OverflowPolicy::kReject) {
        state.stats.rejected += 1;
        throttled_->add(1);
        return backend_throttled("tenant " + tenant + " queue full", 0);
      }
      // kShedOldest: admit the new close, shed the tenant's oldest queued
      // one -- its holder sees a typed kThrottled, never a lost write.
      std::shared_ptr<FrontendTicketState> victim =
          std::move(state.queue.front());
      state.queue.pop_front();
      victim->refusal =
          BackendError{BackendErrorCode::kThrottled,
                       "shed: tenant " + tenant + " queue overflow", 0};
      victim->phase.store(FrontendTicketState::kShed,
                          std::memory_order_release);
      state.stats.shed += 1;
      shed_->add(1);
    }
  }
  auto ticket = std::make_shared<FrontendTicketState>();
  ticket->tenant = tenant;
  ticket->unit = unit;
  ticket->cost = cost;
  ticket->accepted_at = now;
  state.queue.push_back(ticket);
  state.stats.accepted += 1;
  accepted_->add(1);
  return FrontendTicket(
      std::shared_ptr<const FrontendTicketState>(std::move(ticket)));
}

void Frontend::pump() {
  // Round-robin across tenants: pop one queued close per tenant per round
  // so a storming tenant cannot starve the others' forwarding, then submit
  // outside mu_ (the submit may run a whole flush inline).
  std::string cursor;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t depth = 0;
    for (const auto& [name, state] : tenants_) depth += state.queue.size();
    queue_depth_->record(depth);
  }
  while (true) {
    std::shared_ptr<FrontendTicketState> next;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = tenants_.upper_bound(cursor);
      for (std::size_t step = 0; step < tenants_.size(); ++step) {
        if (it == tenants_.end()) it = tenants_.begin();
        if (!it->second.queue.empty()) {
          next = std::move(it->second.queue.front());
          it->second.queue.pop_front();
          cursor = it->first;
          break;
        }
        ++it;
      }
    }
    if (next == nullptr) break;
    Session& session =
        *pool_[ShardRouter::stable_hash(next->tenant) % pool_.size()];
    next->forwarded_at = env_->clock().now();
    next->backend = session.submit(next->unit);
    next->phase.store(FrontendTicketState::kForwarded,
                      std::memory_order_release);
    std::lock_guard<std::mutex> lock(mu_);
    in_flight_.push_back(std::move(next));
  }
  std::lock_guard<std::mutex> lock(mu_);
  reap_locked();
}

void Frontend::reap_locked() {
  auto keep = in_flight_.begin();
  for (auto it = in_flight_.begin(); it != in_flight_.end(); ++it) {
    FrontendTicketState& state = **it;
    if (!state.backend.done()) {
      *keep++ = std::move(*it);
      continue;
    }
    TenantState& tenant = tenant_locked(state.tenant);
    if (state.backend.ok()) {
      tenant.stats.completed += 1;
      completed_->add(1);
    } else {
      tenant.stats.failed += 1;
      failed_->add(1);
    }
    const sim::SimTime queue_wait = state.forwarded_at - state.accepted_at;
    tenant.close_latency->record(queue_wait + state.backend.elapsed());
  }
  in_flight_.erase(keep, in_flight_.end());
}

BackendResult<void> Frontend::sync_all() {
  pump();
  std::optional<BackendError> first_error;
  for (auto& session : pool_) {
    BackendResult<void> result = session->sync();
    if (!result.has_value() && !first_error.has_value())
      first_error = result.error();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    reap_locked();
  }
  if (first_error.has_value()) return util::Unexpected(*first_error);
  return {};
}

Frontend::TenantStats Frontend::tenant_stats(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? TenantStats{} : it->second.stats;
}

std::vector<std::string> Frontend::tenants() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const auto& [name, state] : tenants_) names.push_back(name);
  return names;
}

std::size_t Frontend::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t depth = 0;
  for (const auto& [name, state] : tenants_) depth += state.queue.size();
  return depth;
}

std::size_t Frontend::in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_flight_.size();
}

}  // namespace provcloud::cloudprov

#include "cloudprov/session.hpp"

#include <algorithm>
#include <limits>

#include "cloudprov/domain_topology.hpp"
#include "sim/failure.hpp"
#include "util/logging.hpp"
#include "util/require.hpp"

namespace provcloud::cloudprov {

const char* to_string(FlushTrigger trigger) {
  switch (trigger) {
    case FlushTrigger::kGroupFull: return "group_full";
    case FlushTrigger::kDeadline: return "deadline";
    case FlushTrigger::kSync: return "sync";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// ProvenanceBackend members that need Session / CommitDaemon / DomainTopology
// complete.
// ---------------------------------------------------------------------------

std::unique_ptr<Session> ProvenanceBackend::open_session(
    SessionConfig config) {
  return do_open_session(std::move(config));
}

void ProvenanceBackend::store(const pass::FlushUnit& unit) {
  // store() IS a one-shot session: open at group size 1, submit (which
  // flushes inline), sync. Backends implement only commit_group, so the
  // paper's blocking per-close protocol and the batched session path are
  // one code path -- same requests, same billing, same elapsed time.
  const std::unique_ptr<Session> session = open_session();
  session->submit(unit);
  const BackendResult<void> result = session->sync();
  PROVCLOUD_REQUIRE_MSG(result.has_value(),
                        "store failed: " + result.error().message);
}

std::vector<BackendResult<ReadResult>> ProvenanceBackend::read_many(
    const std::vector<std::string>& objects, std::uint32_t max_retries) {
  std::vector<BackendResult<ReadResult>> out(
      objects.size(),
      backend_error(BackendErrorCode::kUnknown, "read_many: not attempted"));
  const std::shared_ptr<const DomainTopology> topo = topology();
  if (topo == nullptr) {
    for (std::size_t i = 0; i < objects.size(); ++i)
      out[i] = read(objects[i], max_retries);
    return out;
  }
  // Route the fan-out through the backend's topology: parallelism > 1
  // overlaps the per-object consistency rounds (critical-path merged);
  // parallelism == 1 runs inline in input order, exactly the loop above.
  std::vector<std::function<void()>> tasks;
  tasks.reserve(objects.size());
  for (std::size_t i = 0; i < objects.size(); ++i)
    tasks.push_back([this, &objects, &out, i, max_retries] {
      out[i] = read(objects[i], max_retries);
    });
  topo->run_tasks(std::move(tasks));
  return out;
}

std::shared_ptr<CommitDaemon> ProvenanceBackend::commit_daemon(
    sim::LatencyLedger* ledger, sim::SimClock* clock, obs::Tracer* tracer,
    obs::MetricsRegistry* metrics) {
  std::lock_guard<std::mutex> lock(daemon_mu_);
  if (daemon_ == nullptr)
    daemon_ =
        std::make_shared<CommitDaemon>(*this, ledger, clock, tracer, metrics);
  return daemon_;
}

// ---------------------------------------------------------------------------
// CommitDaemon
// ---------------------------------------------------------------------------

std::uint64_t CommitDaemon::register_session() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_session_serial_++;
}

void CommitDaemon::submit(const std::shared_ptr<TicketState>& ticket) {
  sim::SimTime wake_at = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ticket->enqueue_time = clock_ != nullptr ? clock_->now() : 0;
    if (ticket->flush_deadline > 0 && clock_ != nullptr) {
      ticket->deadline_at = ticket->enqueue_time + ticket->flush_deadline;
      wake_at = ticket->deadline_at;
    }
    queue_.push_back(ticket);
  }
  if (wake_at > 0) {
    // The wake holds no strong reference: a pending clock event must not
    // keep a dead backend's daemon alive. A stale wake no-ops in poll().
    std::weak_ptr<CommitDaemon> weak = weak_from_this();
    clock_->schedule_at(wake_at, [weak] {
      if (const std::shared_ptr<CommitDaemon> self = weak.lock()) self->poll();
    });
  }
  std::unique_lock<std::mutex> lk(mu_);
  while (!flushing_) {
    const std::optional<FlushTrigger> trigger = trigger_locked();
    if (!trigger.has_value()) break;
    flush_group(lk, *trigger);
  }
}

void CommitDaemon::poll() {
  std::unique_lock<std::mutex> lk(mu_);
  while (!flushing_) {
    const std::optional<FlushTrigger> trigger = trigger_locked();
    if (!trigger.has_value()) break;
    flush_group(lk, *trigger);
  }
}

void CommitDaemon::barrier(
    const std::vector<std::shared_ptr<TicketState>>& tickets) {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    bool all_retired = true;
    for (const std::shared_ptr<TicketState>& t : tickets) {
      if (!t->retired.load(std::memory_order_acquire)) {
        all_retired = false;
        break;
      }
    }
    if (all_retired) return;
    if (flushing_) {
      // Another session (or a clock wake) is mid-flush; it re-checks the
      // trigger and notifies when it finishes.
      cv_.wait(lk);
      continue;
    }
    PROVCLOUD_REQUIRE_MSG(!queue_.empty(),
                          "commit daemon lost a submitted close");
    flush_group(lk, trigger_locked().value_or(FlushTrigger::kSync));
  }
}

void CommitDaemon::forget(std::uint64_t session_serial) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = queue_.begin(); it != queue_.end();) {
    TicketState& t = **it;
    if (t.session_serial == session_serial) {
      t.done = true;
      t.result = backend_error(BackendErrorCode::kCrashed,
                               "session closed before sync");
      t.retired.store(true, std::memory_order_release);
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
}

std::size_t CommitDaemon::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

std::optional<FlushTrigger> CommitDaemon::trigger_locked() const {
  if (queue_.empty()) return std::nullopt;
  std::size_t min_group = std::numeric_limits<std::size_t>::max();
  for (const std::shared_ptr<TicketState>& t : queue_)
    min_group = std::min(min_group, std::max<std::size_t>(t->max_group, 1));
  if (queue_.size() >= min_group) return FlushTrigger::kGroupFull;
  if (clock_ != nullptr) {
    const sim::SimTime now = clock_->now();
    for (const std::shared_ptr<TicketState>& t : queue_)
      if (t->deadline_at > 0 && now >= t->deadline_at)
        return FlushTrigger::kDeadline;
  }
  return std::nullopt;
}

void CommitDaemon::flush_group(std::unique_lock<std::mutex>& lk,
                               FlushTrigger trigger) {
  flushing_ = true;
  const std::uint64_t seq = ++next_group_seq_;
  if (queue_depth_hist_ != nullptr) queue_depth_hist_->record(queue_.size());
  std::vector<std::shared_ptr<TicketState>> owned(queue_.begin(),
                                                  queue_.end());
  queue_.clear();
  const bool tracing = tracer_ != nullptr && tracer_->enabled();
  const sim::SimTime now = clock_ != nullptr ? clock_->now() : 0;
  for (const std::shared_ptr<TicketState>& t : owned) {
    t->group_seq = seq;
    // Deadline batching is not free: the queued wait becomes part of the
    // close's elapsed time, itemized as "idle". (Zero waits are skipped so
    // immediate flushes keep byte-identical per-service maps.)
    const sim::SimTime wait =
        now > t->enqueue_time ? now - t->enqueue_time : 0;
    if (wait > 0) {
      // The wait ran from enqueue to the flush claim in *clock* time; on
      // the ticket's track it starts at the elapsed total the ticket had
      // when it was enqueued.
      if (tracing)
        tracer_->complete(&t->timeline, "queue_wait", "idle",
                          t->enqueue_time + t->timeline.elapsed, wait);
      t->timeline.elapsed += wait;
      t->timeline.by_service["idle"] += wait;
      if (queue_wait_us_ != nullptr) queue_wait_us_->add(wait);
    }
  }
  if (group_size_hist_ != nullptr) group_size_hist_->record(owned.size());
  switch (trigger) {
    case FlushTrigger::kGroupFull:
      if (flush_group_full_ != nullptr) flush_group_full_->add(1);
      break;
    case FlushTrigger::kDeadline:
      if (flush_deadline_ != nullptr) flush_deadline_->add(1);
      break;
    case FlushTrigger::kSync:
      if (flush_sync_ != nullptr) flush_sync_->add(1);
      break;
  }
  lk.unlock();

  std::vector<TicketState*> group;
  group.reserve(owned.size());
  for (const std::shared_ptr<TicketState>& t : owned) group.push_back(t.get());

  // Calls shared by the whole group (the batched provenance writes, which
  // commit_group charges outside any per-ticket scope) land here, then get
  // absorbed into every rider: each owner waited for the group's shared
  // round trips on top of its close's exclusive ones.
  sim::LatencyLedger::Timeline shared;

  const auto settle = [&owned](BackendErrorCode code, const char* what) {
    for (const std::shared_ptr<TicketState>& t : owned) {
      if (t->done) continue;
      t->done = true;
      t->result = backend_error(code, what);
    }
  };
  const auto publish = [&owned, &shared] {
    for (const std::shared_ptr<TicketState>& t : owned) {
      t->timeline.elapsed += shared.elapsed;
      for (const auto& [service, time] : shared.by_service)
        t->timeline.by_service[service] += time;
      t->retired.store(true, std::memory_order_release);
    }
  };
  const auto finish = [this, &lk] {
    lk.lock();
    flushing_ = false;
    // Wake barrier waiters AND would-be flushers: submits that arrived
    // mid-flush joined the next group; whoever wakes first drains it.
    cv_.notify_all();
  };

  try {
    if (ledger_ != nullptr) {
      // The shared timeline is a stack object whose address recurs across
      // flushes: force it onto a fresh trace track per group.
      if (tracing)
        tracer_->begin_track(&shared, "group-" + std::to_string(seq));
      sim::LatencyLedger::ScopedTimeline bind(*ledger_, shared);
      obs::Span span(tracer_, "flush", "daemon");
      span.arg("group", static_cast<std::uint64_t>(group.size()));
      span.arg("trigger", to_string(trigger));
      span.arg("group_seq", seq);
      PROVCLOUD_DEBUG("daemon") << "flush group=" << group.size()
                                << " trigger=" << to_string(trigger);
      backend_->commit_group(group, ledger_);
    } else {
      backend_->commit_group(group, nullptr);
    }
  } catch (const sim::CrashError&) {
    // The client died mid-group: whatever the backend marked done stays
    // durable; the rest never was.
    settle(BackendErrorCode::kCrashed, "client crashed before this close");
    publish();
    finish();
    throw;
  } catch (...) {
    settle(BackendErrorCode::kServiceError,
           "backend failed while committing this group");
    publish();
    finish();
    throw;
  }
  settle(BackendErrorCode::kServiceError,
         "backend returned without completing this close");
  publish();
  finish();
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

Session::Session(ProvenanceBackend& backend, SessionConfig config,
                 sim::LatencyLedger* ledger, sim::SimClock* clock,
                 obs::Tracer* tracer, obs::MetricsRegistry* metrics)
    : backend_(&backend),
      config_(std::move(config)),
      ledger_(ledger),
      tracer_(tracer) {
  max_group_ =
      backend_->supports_group_commit() ? config_.resolved_group() : 1;
  if (metrics != nullptr)
    close_latency_ = &metrics->histogram("close.latency_us");
  daemon_ = backend_->commit_daemon(ledger_, clock, tracer, metrics);
  serial_ = daemon_->register_session();
}

Session::~Session() {
  // Closing a session with submits that never reached a barrier is the
  // client dying before its data was durable: its still-queued closes are
  // dropped and marked kCrashed (in-flight ones are settled by their
  // flush), so a Ticket holder does not read "pending" forever.
  daemon_->forget(serial_);
}

Ticket Session::submit(const pass::FlushUnit& unit) {
  const bool tracing = tracer_ != nullptr && tracer_->enabled();
  if (tracing && ledger_ != nullptr && !named_client_track_) {
    tracer_->name_track(ledger_->active_timeline_id(), config_.client_id);
    named_client_track_ = true;
  }
  obs::Span span(tracer_, "session.submit", "session");
  auto state = std::make_shared<TicketState>();
  state->id = next_ticket_id_++;
  state->unit = unit;
  state->session_serial = serial_;
  state->max_group = max_group_;
  // A flush deadline is only meaningful when submits may wait for a group.
  if (max_group_ > 1) state->flush_deadline = config_.flush_deadline;
  if (tracing)
    tracer_->name_track(&state->timeline, config_.client_id + "/ticket-" +
                                              std::to_string(state->id));
  span.arg("ticket", state->id);
  span.arg("object", unit.object);
  outstanding_.push_back(state);
  writes_[unit.object] = state;
  Ticket ticket(state);
  try {
    daemon_->submit(state);
  } catch (...) {
    reap();
    throw;
  }
  reap();
  return ticket;
}

BackendResult<void> Session::sync() {
  obs::Span span(tracer_, "session.sync", "session");
  span.arg("outstanding", static_cast<std::uint64_t>(outstanding_.size()));
  try {
    daemon_->barrier(outstanding_);
  } catch (...) {
    reap();
    throw;
  }
  reap();
  if (!first_error_.has_value()) return {};
  BackendError error = std::move(*first_error_);
  first_error_.reset();
  return util::Unexpected(std::move(error));
}

BackendResult<ReadResult> Session::read(const std::string& object,
                                        std::uint32_t max_retries) {
  const auto it = writes_.find(object);
  if (it == writes_.end()) return backend_->read(object, max_retries);
  const std::shared_ptr<TicketState>& own = it->second;
  const auto own_write = [&own] {
    // Served from the session's own submit, exactly as it will become (or
    // became) durable. No cloud calls, no retries.
    ReadResult out;
    out.data = own->unit.data;
    out.records = own->unit.records;
    out.version = own->unit.version;
    return out;
  };
  if (!own->retired.load(std::memory_order_acquire)) return own_write();
  if (!own->result.has_value())
    // The own write failed; only the backend's view is real.
    return backend_->read(object, max_retries);
  BackendResult<ReadResult> got = backend_->read(object, max_retries);
  // Floor the backend's answer at the session's own durable write: a stale
  // replica (NoSuchKey or an older version) cannot roll the session's view
  // of its own writes backwards.
  if (!got.has_value() || got->version < own->unit.version) return own_write();
  return got;
}

std::size_t Session::pending() const {
  std::size_t count = 0;
  for (const std::shared_ptr<TicketState>& t : outstanding_)
    if (!t->retired.load(std::memory_order_acquire)) ++count;
  return count;
}

void Session::reap() {
  std::size_t retired = 0;
  while (retired < outstanding_.size() &&
         outstanding_[retired]->retired.load(std::memory_order_acquire))
    ++retired;
  if (retired == 0) return;
  if (close_latency_ != nullptr) {
    // Every retired close's end-to-end virtual latency (exclusive service
    // time + queued idle + the group's shared round trips) feeds the
    // percentile view the benches report.
    for (std::size_t i = 0; i < retired; ++i)
      close_latency_->record(outstanding_[i]->timeline.elapsed);
  }
  if (ledger_ != nullptr) {
    // One critical-path merge per flush group: this session's closes that
    // rode one group were in flight together, so the caller waited for the
    // slowest of them (each carrying the group's shared time), not the sum.
    std::size_t start = 0;
    while (start < retired) {
      std::size_t end = start + 1;
      while (end < retired &&
             outstanding_[end]->group_seq == outstanding_[start]->group_seq)
        ++end;
      std::vector<const sim::LatencyLedger::Timeline*> timelines;
      timelines.reserve(end - start);
      for (std::size_t i = start; i < end; ++i)
        timelines.push_back(&outstanding_[i]->timeline);
      ledger_->merge_critical_path(timelines);
      start = end;
    }
  }
  if (!first_error_.has_value()) {
    for (std::size_t i = 0; i < retired; ++i) {
      if (!outstanding_[i]->result.has_value()) {
        first_error_ = outstanding_[i]->result.error();
        break;
      }
    }
  }
  outstanding_.erase(
      outstanding_.begin(),
      outstanding_.begin() + static_cast<std::ptrdiff_t>(retired));
}

}  // namespace provcloud::cloudprov

// ProvenanceBackend: the public interface of the paper's contribution.
//
// A backend implements one of the three architectures from section 4. It
// receives FlushUnits from PASS at file close (store), serves the read-
// correctness read path (read), retrieves provenance (get_provenance),
// recovers after client crashes (recover), and -- for the WAL architecture --
// exposes pump()/quiesce() to drive its daemons deterministically.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "aws/common/env.hpp"
#include "aws/s3/s3.hpp"
#include "aws/simpledb/simpledb.hpp"
#include "aws/sqs/sqs.hpp"
#include "pass/local_cache.hpp"
#include "pass/record.hpp"
#include "util/expected.hpp"

namespace provcloud::cloudprov {

/// Which architecture a backend implements.
enum class Architecture {
  kS3Only,          // section 4.1
  kS3SimpleDb,      // section 4.2
  kS3SimpleDbSqs,   // section 4.3
  kS3SegmentLog,    // Arch 4: log-structured segments + SimpleDB index
};

const char* to_string(Architecture arch);

/// Result of the read-correctness read path.
struct ReadResult {
  util::SharedBytes data;
  std::vector<pass::ProvenanceRecord> records;
  std::uint32_t version = 0;
  /// Number of retry rounds the consistency check forced (Arch 2/3).
  std::uint32_t retries = 0;
  /// False when the backend returned a pair it cannot vouch for (Arch 1
  /// never sets this; Arch 2/3 set it only if retries were exhausted).
  bool verified = true;
};

/// Why a backend operation failed. Tests and callers branch on the code;
/// the message is for humans only.
enum class BackendErrorCode {
  kUnknown = 0,
  /// The object (or requested version) does not exist in the store.
  kNotFound,
  /// The consistency retry budget ran out before a verifiable view
  /// appeared (propagation race outlasted max_retries).
  kConsistencyExhausted,
  /// An underlying AWS service call failed in a way the protocol cannot
  /// absorb.
  kServiceError,
  /// The client crashed (injected CrashError) before this close became
  /// durable; the ticket's unit was never persisted.
  kCrashed,
  /// The architecture cannot serve this request (e.g. Arch 1 retains only
  /// the latest version's provenance).
  kUnsupported,
  /// The request was refused by admission control (per-tenant capacity
  /// exhausted, or a bounded queue rejected/shed it). Distinct from
  /// kServiceError: the request was well-formed and the services healthy --
  /// the caller exceeded its provisioned throughput and should retry after
  /// BackendError::retry_after.
  kThrottled,
};

const char* to_string(BackendErrorCode code);

struct BackendError {
  BackendErrorCode code = BackendErrorCode::kUnknown;
  std::string message;
  /// For kThrottled: virtual time until the caller's capacity refills
  /// enough to admit the request (0 = unknown, retry at caller's pace).
  sim::SimTime retry_after = 0;
};

template <typename T>
using BackendResult = util::Expected<T, BackendError>;

inline util::Unexpected<BackendError> backend_error(BackendErrorCode code,
                                                    std::string message) {
  return util::Unexpected(BackendError{code, std::move(message), 0});
}

inline util::Unexpected<BackendError> backend_throttled(
    std::string message, sim::SimTime retry_after) {
  return util::Unexpected(
      BackendError{BackendErrorCode::kThrottled, std::move(message),
                   retry_after});
}

/// The services a backend runs against. One bundle per experiment; shared
/// by backends and query engines so all billing lands in one meter.
struct CloudServices {
  explicit CloudServices(aws::CloudEnv& env)
      : env(&env), s3(env), sdb(env), sqs(env) {}

  aws::CloudEnv* env;
  aws::S3Service s3;
  aws::SimpleDbService sdb;
  aws::SqsService sqs;
};

class Session;
struct TicketState;
class CommitDaemon;
class DomainTopology;

/// Per-client session knobs (see ProvenanceBackend::open_session): group
/// size and flush deadline describe how a session's closes may be
/// coalesced. The SimpleDB batch width is the backend's (SdbBackendConfig,
/// WalBackendConfig).
struct SessionConfig {
  /// Names the client the session belongs to (diagnostics; each session is
  /// driven from one thread, but many sessions may share a backend).
  std::string client_id = "client-0";
  /// Closes coalesced between durability barriers: the commit daemon
  /// flushes once this many submits are queued. 1 reproduces the paper's
  /// per-close protocol bit-for-bit (same requests, same billing, same
  /// elapsed time); larger groups let the backend commit submitted closes
  /// together (Arch 2: cross-close BatchPutAttributes chains; Arch 3:
  /// batched WAL sends). Backends without group commit (Arch 1) treat
  /// every submit as an immediate store regardless of this value.
  /// 0 means 1 (no coalescing).
  std::size_t max_group = 0;
  /// Adaptive group flush: a queued submit older than this flushes the
  /// pending group even when it is not full (kivaloo's kvlds deadline).
  /// The wait is charged to the ticket's ledger timeline as "idle" --
  /// deadline batching trades elapsed time for round trips, and the ledger
  /// shows it. 0 disables the deadline (flush only on group-full or sync).
  sim::SimTime flush_deadline = 0;

  /// The group size with the zero default resolved (never 0).
  std::size_t resolved_group() const { return max_group > 0 ? max_group : 1; }
};

class ProvenanceBackend {
 public:
  virtual ~ProvenanceBackend() = default;

  virtual Architecture architecture() const = 0;
  virtual std::string name() const = 0;

  /// The close-time protocol: persist one object version and its
  /// provenance. May throw sim::CrashError at an armed crash point.
  /// Non-virtual by design: store() IS a one-shot session (open_session ->
  /// submit -> sync at group size 1), so every backend's single-close path
  /// and its commit_group primitive are one code path. Defined in
  /// session.cpp, where Session is complete.
  void store(const pass::FlushUnit& unit);

  /// The session-oriented close path: submits enqueue closes without
  /// blocking on the cloud round-trip chain, sync() is the durability
  /// barrier, and between barriers the backend's commit daemon may
  /// coalesce submitted closes into one group commit. Each session is
  /// driven from one thread, but a backend accepts many concurrent
  /// sessions: their submits feed one MPSC queue drained by a single
  /// commit daemon (see Session for the full contract).
  /// (Non-virtual so the default argument exists exactly once; backends
  /// override do_open_session. Defined in session.cpp, where Session is
  /// complete.)
  std::unique_ptr<Session> open_session(
      SessionConfig config = SessionConfig{});

  /// Whether submits may legally wait for a group (Arch 2/3). When false
  /// (Arch 1's single-PUT protocol, whose Table-1 properties depend on
  /// submit == store), sessions flush every submit immediately.
  virtual bool supports_group_commit() const { return false; }

  /// The group-commit primitive behind Session and store(): persist every
  /// unit of `group` (in submit order where ordering matters), marking
  /// each ticket done as its close becomes durable. `ledger` (may be null)
  /// receives each ticket's exclusive service time on the ticket's own
  /// timeline so the commit daemon can merge in-flight tickets by critical
  /// path. The only close-path entry point a backend implements.
  virtual void commit_group(const std::vector<TicketState*>& group,
                            sim::LatencyLedger* ledger) = 0;

  /// The backend's shard/parallelism layout, when it has one (Arch 2/3 and
  /// any backend that overlaps multi-object reads). The base read_many
  /// routes through it; null means sequential.
  virtual std::shared_ptr<const DomainTopology> topology() const {
    return nullptr;
  }

  /// The read path a scientist uses: fetch the latest data of `object`
  /// together with its provenance, enforcing whatever consistency the
  /// architecture offers. `max_retries` bounds the Arch-2/3 consistency
  /// retry loop.
  virtual BackendResult<ReadResult> read(const std::string& object,
                                         std::uint32_t max_retries = 64) = 0;

  /// Multi-object read path: one read() per object, results in input
  /// order. The default routes through topology()->run_tasks so every
  /// backend with a parallel topology overlaps the per-object consistency
  /// rounds (null topology or parallelism 1: a sequential loop, charges in
  /// issue order). Defined in session.cpp, where DomainTopology is
  /// complete.
  virtual std::vector<BackendResult<ReadResult>> read_many(
      const std::vector<std::string>& objects, std::uint32_t max_retries = 64);

  /// Retrieve the provenance of one (object, version), resolving spilled
  /// records.
  virtual BackendResult<std::vector<pass::ProvenanceRecord>> get_provenance(
      const std::string& object, std::uint32_t version) = 0;

  /// Client-restart recovery (after a CrashError was thrown from store or
  /// pump). Arch 1: nothing. Arch 2: orphan-provenance scan. Arch 3: WAL
  /// replay via the commit daemon.
  virtual void recover() = 0;

  /// Drive background daemons one step (Arch 3's commit daemon; no-op
  /// elsewhere).
  virtual void pump() {}

  /// Run daemons until stable (e.g. WAL fully drained). Test/bench helper.
  virtual void quiesce() {}

  /// Paper Table 1 row, verified empirically by cloudprov/properties.
  struct PropertyClaims {
    bool atomicity = false;
    bool consistency = false;
    bool causal_ordering = false;
    bool efficient_query = false;
  };
  virtual PropertyClaims claims() const = 0;

  /// The backend's commit daemon, created lazily on first use (the first
  /// caller's ledger/clock/tracer/metrics win; all sessions of one backend
  /// share one env, so they agree). Every session's submits funnel through
  /// it -- one MPSC queue, one flusher at a time. Defined in session.cpp.
  std::shared_ptr<CommitDaemon> commit_daemon(
      sim::LatencyLedger* ledger, sim::SimClock* clock,
      obs::Tracer* tracer = nullptr, obs::MetricsRegistry* metrics = nullptr);

 protected:
  /// open_session's virtual hook.
  virtual std::unique_ptr<Session> do_open_session(SessionConfig config) = 0;

 private:
  std::mutex daemon_mu_;
  std::shared_ptr<CommitDaemon> daemon_;
};

inline const char* to_string(Architecture arch) {
  switch (arch) {
    case Architecture::kS3Only: return "S3";
    case Architecture::kS3SimpleDb: return "S3+SimpleDB";
    case Architecture::kS3SimpleDbSqs: return "S3+SimpleDB+SQS";
    case Architecture::kS3SegmentLog: return "S3-segments+SimpleDB";
  }
  return "?";
}

inline const char* to_string(BackendErrorCode code) {
  switch (code) {
    case BackendErrorCode::kUnknown: return "unknown";
    case BackendErrorCode::kNotFound: return "not-found";
    case BackendErrorCode::kConsistencyExhausted:
      return "consistency-exhausted";
    case BackendErrorCode::kServiceError: return "service-error";
    case BackendErrorCode::kCrashed: return "crashed";
    case BackendErrorCode::kUnsupported: return "unsupported";
    case BackendErrorCode::kThrottled: return "throttled";
  }
  return "?";
}

/// Factories (defined with each backend).
std::unique_ptr<ProvenanceBackend> make_s3_backend(CloudServices& services);
struct SdbBackendConfig;
std::unique_ptr<ProvenanceBackend> make_sdb_backend(CloudServices& services);
std::unique_ptr<ProvenanceBackend> make_sdb_backend(
    CloudServices& services, const SdbBackendConfig& config);
struct WalBackendConfig;
std::unique_ptr<ProvenanceBackend> make_wal_backend(CloudServices& services);
std::unique_ptr<ProvenanceBackend> make_wal_backend(
    CloudServices& services, const WalBackendConfig& config);
struct LsbBackendConfig;
std::unique_ptr<ProvenanceBackend> make_lsb_backend(CloudServices& services);
std::unique_ptr<ProvenanceBackend> make_lsb_backend(
    CloudServices& services, const LsbBackendConfig& config);
std::unique_ptr<ProvenanceBackend> make_backend(Architecture arch,
                                                CloudServices& services);

}  // namespace provcloud::cloudprov

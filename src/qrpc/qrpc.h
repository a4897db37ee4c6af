// Queued RPC (paper §3.2, §5.2). The client engine makes *non-blocking*
// calls: the request is marshalled, appended to the stable log, flushed
// (the durability point -- "committed"), and handed to the network
// scheduler, which delivers it whenever connectivity permits. The caller
// receives two promises: one for the local commit, one for the eventual
// result. The server engine dispatches requests to registered handlers and
// guarantees at-most-once execution with a duplicate-response cache keyed
// by (client, rpc id), so client crash-recovery resends are safe.

#ifndef ROVER_SRC_QRPC_QRPC_H_
#define ROVER_SRC_QRPC_QRPC_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/check_hooks.h"
#include "src/obs/metrics.h"
#include "src/obs/rpc_trace.h"
#include "src/qrpc/marshal.h"
#include "src/qrpc/promise.h"
#include "src/qrpc/stable_log.h"
#include "src/transport/transport.h"

namespace rover {

struct QrpcResult {
  Status status;
  RpcValue value = int64_t{0};
  TimePoint completed_at;
  // Incarnation of the server that produced the response (0 when the
  // response carried no epoch, e.g. a transport-level failure).
  uint64_t server_epoch = 0;
};

struct QrpcCallOptions {
  Priority priority = Priority::kDefault;
  bool via_relay = false;        // connectionless (SMTP) path
  std::string relay_host;
  bool log_request = true;       // false = unlogged call (E2 baseline)
  // Non-zero: if no response arrived within this duration of Call(), the
  // result promise resolves with kDeadlineExceeded, the durable log record
  // is withdrawn, and the queued message is cancelled (best-effort: a
  // request already on the wire may still execute at the server; its late
  // response is ignored). Zero = wait forever, the queued-RPC default.
  Duration deadline = Duration::Zero();
  // Non-empty: this call supersedes any earlier pending call to the same
  // dest with the same key that has not reached the wire ("old log entries
  // can be deleted when new operations supersede them", paper §5.2). The
  // predecessor is withdrawn from the scheduler queue and the stable log,
  // and its result promise resolves with this call's result. Callers mark
  // an operation supersedable only when the newer operation subsumes the
  // older one (e.g. a fresh import of the same object, a full-state write).
  std::string supersede_key;
};

struct QrpcClientOptions {
  // CPU cost of marshalling: fixed + per-byte.
  Duration marshal_fixed = Duration::Micros(30);
  double marshal_bytes_per_sec = 80e6;
  // Admission control (0 = unbounded). When either bound would be exceeded,
  // outstanding kBackground calls are shed first (their result promise
  // resolves kResourceExhausted, their log record is withdrawn); if the
  // call still does not fit it is rejected at Call() with
  // kResourceExhausted -- an explicit refusal, never a silent drop, and
  // nothing durable is discarded because rejection precedes logging.
  size_t max_outstanding_calls = 0;
  size_t max_log_bytes = 0;
  // Budget for honoring server kUnavailable+retry-after pushback by keeping
  // the call queued and re-sending after the hint. Once the bucket empties,
  // further pushback responses surface to the caller as errors instead of
  // retrying forever against a server that keeps refusing (capacity 0
  // disables honoring entirely).
  double pushback_budget_capacity = 32;
  double pushback_budget_refill_per_sec = 4;
  // Honor QrpcCallOptions::supersede_key by withdrawing not-yet-transmitted
  // predecessors (off = every queued call is transmitted; the delta bench
  // uses that as its baseline).
  bool coalesce_superseded = true;
  // How long to wait before re-dispatching a crash-recovered request the
  // network scheduler refused under queue pressure. Recovered requests are
  // exempt from shedding -- their caller died with the old incarnation, so
  // nobody would observe the refusal, and withdrawing the record would
  // silently lose an acknowledged-durable operation.
  Duration recovered_retry_backoff = Duration::Millis(250);
  // TEST-ONLY. Re-introduces the pre-fix coalescing behavior: a superseded
  // predecessor's stable-log record is removed the moment it is coalesced,
  // instead of waiting for the successor's own record to be durable. A
  // crash between the two then loses an acknowledged operation. Exists so
  // the SimCheck fuzzer can demonstrate it catches this bug class
  // (tests/simcheck_test.cc meta-test); never enable outside tests.
  bool unsafe_eager_coalesce_withdraw_for_test = false;
  // TEST-ONLY. Delivers the durability acknowledgement (committed promise +
  // OnCallDurable + dispatch) even when the stable-log flush terminally
  // failed -- the ack-after-failed-flush bug class the SimCheck
  // no-ack-without-durable invariant exists to catch. Never enable outside
  // tests (tests/storage_fault_test.cc meta-test).
  bool unsafe_ack_despite_flush_failure_for_test = false;
  // Primary/backup failover route. When both are set, `failover_primary` is
  // a *logical* destination: after TriggerFailover() engages (explicitly, or
  // via the scheduler's breaker opening on the primary), every message bound
  // for the primary -- queued, in-flight resends, and all future calls -- is
  // physically routed to `failover_backup` instead. Callers keep addressing
  // the primary by name; the backup's duplicate cache (fed by replication)
  // keeps re-routed resends at-most-once.
  std::string failover_primary;
  std::string failover_backup;
};

// Handle returned by Call(). Both promises resolve on the event loop.
struct QrpcCall {
  uint64_t rpc_id = 0;
  // Resolves when the request is durable in the stable log and queued with
  // the network scheduler; its value is the commit time. For unlogged
  // calls, resolves after marshalling.
  Promise<TimePoint> committed;
  // Resolves when the response arrives (possibly much later).
  Promise<QrpcResult> result;
};

class QrpcClient {
 public:
  // Logs requests to `log`, which is required; a call made with
  // QrpcCallOptions::log_request = false skips it. Counts into `metrics`
  // under "qrpc_client.".
  QrpcClient(EventLoop* loop, TransportManager* transport, StableLog* log,
             obs::Registry* metrics, QrpcClientOptions options = {});

  // Issues a non-blocking call of `method` at host `dest`.
  QrpcCall Call(const std::string& dest, const std::string& method, RpcArgs args,
                QrpcCallOptions call_options = {});

  // Calls awaiting a response.
  size_t PendingCount() const { return outstanding_.size(); }

  // Number of request records still in the stable log.
  size_t LogDepth() const { return log_->RecordCount(); }

  // Cancels a pending call: removes it from the log and (if still queued)
  // from the network scheduler, and resolves its result promise with
  // CANCELLED. Best-effort: a request already transmitted may still
  // execute at the server; its response is then ignored.
  bool Cancel(uint64_t rpc_id);

  // Re-issues every durable logged request that has no response yet.
  // Used after StableLog::SimulateCrash + Recover to model client restart.
  // Returns the number of requests re-sent.
  size_t RecoverFromLog();

  // True while new durable enqueues are being refused because the stable
  // device ran out of space. Cleared automatically once truncation frees
  // room (see MaybeClearStorageDegraded). The access manager surfaces this
  // next to its own degraded-queue signal.
  bool StorageDegraded() const { return storage_degraded_; }

  // A scrub quarantined these stable-log records while the client was live:
  // resolve any outstanding call backed by one of them with kDataLoss
  // ("storage" path) instead of leaving it waiting on a record that no
  // longer exists. Returns how many calls were failed.
  size_t FailQuarantinedRecords(const std::vector<uint64_t>& log_record_ids);

  // Records the per-RPC lifecycle span (enqueued/logged/flushed/responded;
  // the network scheduler contributes transmitted events).
  void SetTracer(obs::RpcTracer* tracer) { tracer_ = tracer; }

  // Reports call lifecycle events (issue/durable/coalesce/resolve/recover)
  // to an external invariant checker. Null disables (the default).
  void SetCheckListener(obs::CheckListener* listener) { check_ = listener; }

  // Rpc ids of every call awaiting a response.
  std::vector<uint64_t> OutstandingIds() const;

  // The rpc-id counter is part of the client's durable identity: a host
  // that restarts under the same name MUST resume past its previously
  // issued ids, or the server's at-most-once duplicate cache will answer
  // new calls with stale cached responses. Persist next_rpc_id alongside
  // the stable log / cache snapshot and restore it on boot.
  uint64_t next_rpc_id() const { return next_rpc_id_; }
  void set_next_rpc_id(uint64_t id) { next_rpc_id_ = std::max(next_rpc_id_, id); }

  // Engages the primary->backup failover route (no-op unless both
  // QrpcClientOptions::failover_primary and failover_backup are set):
  //  1. queued messages addressed to the primary move wholesale onto the
  //     backup's scheduler queue, preserving priority and order;
  //  2. calls already handed to the wire are re-dispatched to the backup
  //     from their retained request bodies (the backup's replicated
  //     duplicate cache dedupes any that the primary already executed);
  //  3. on first engagement the epoch observer fires for the primary, so
  //     the access layer treats the failover as a restart of the logical
  //     server (stale-marks imports, re-subscribes -- now via the backup).
  // All later traffic addressed to the primary is transparently re-routed.
  // Idempotent; safe to call with nothing outstanding (e.g. to re-engage
  // the route on a rebuilt client before RecoverFromLog re-sends). Invoked
  // automatically when the scheduler's circuit breaker on the primary
  // opens. Returns how many messages were rebound or re-dispatched.
  size_t TriggerFailover();
  bool failover_engaged() const { return failover_engaged_; }

  // Fired when a response reveals a server incarnation newer than the last
  // one this client observed -- the server restarted, so its volatile state
  // (subscriptions) is gone. The access manager re-subscribes and marks
  // that server's cached imports stale. The first epoch seen from a server
  // is recorded silently.
  using EpochObserver = std::function<void(const std::string& server, uint64_t epoch)>;
  void SetEpochObserver(EpochObserver observer) { epoch_observer_ = std::move(observer); }
  // Last epoch observed from `server` (0 if none yet).
  uint64_t LastSeenEpoch(const std::string& server) const;

 private:
  // A predecessor withdrawn by coalescing whose stable-log record -- and
  // committed ack, if still pending -- must survive until the successor is
  // itself durable (see ResolveCoalescedPreds()).
  struct CoalescedPred {
    uint64_t log_record_id = 0;
    Promise<TimePoint> committed;
  };
  struct Outstanding {
    QrpcCall call;
    uint64_t log_record_id = 0;  // 0 when unlogged
    std::string dest;
    Priority priority = Priority::kDefault;
    TimePoint issued_at;
    EventId deadline_event = kInvalidEventId;
    // Handed to the network scheduler: from here on withdrawal requires a
    // successful CancelMessage (queued, not yet on the wire).
    bool dispatched = false;
    // Re-issued from the stable log by RecoverFromLog after a crash. The
    // original caller is gone; this entry exists only to discharge the
    // durable obligation, so it must never be shed (see HandleSchedulerDrop).
    bool recovered = false;
    std::string supersede_key;  // empty = not supersedable
    // Marshalled request body, retained so failover can re-dispatch an
    // in-flight call to the backup without a log read (unlogged calls have
    // no other copy). Shares storage with the queued message's payload --
    // retention costs a refcount, not a copy.
    Buffer body;
    // Logged predecessors this call coalesced away. Their records stay in
    // the log -- a crash before this call's own record is durable
    // conservatively resends them -- and are withdrawn only once this
    // call's record is flushed (or, for unlogged calls, once this call
    // resolves).
    std::vector<CoalescedPred> coalesced_preds;
  };
  struct ParsedLogRecord {
    uint64_t rpc_id = 0;
    std::string dest;
    QrpcCallOptions call_options;
    Buffer body;  // slice of the log record's storage (no copy on recovery)
  };

  void DispatchToScheduler(uint64_t rpc_id, const std::string& dest, Buffer body,
                           const QrpcCallOptions& call_options);
  void HandleResponse(const Message& msg);
  // How a call leaves the engine without a response.
  struct Exit {
    const char* reason;       // OnCallResolved reason
    obs::RpcEvent event;      // span event
    obs::Counter* counter;    // bumped once per retired call
    bool report_withdrawn;    // report the dropped record as OnCallWithdrawn
  };
  // The one teardown for calls that leave without a response (cancel,
  // deadline, shed, storage failure): forgets the supersede key, cancels
  // the deadline, drops the log record, cancels the queued message,
  // resolves coalesced predecessors, then resolves both promises with
  // `status`. Returns false when `rpc_id` is not outstanding.
  bool Retire(uint64_t rpc_id, const Status& status, const Exit& exit);
  // Refuses a call at Call() before anything is logged: counts it on
  // `counter` and resolves both promises with kResourceExhausted(`why`).
  QrpcCall RefuseAdmission(QrpcCall call, obs::Counter* counter, const char* why);
  // Removes a record that will never be answered and refreshes log_bytes.
  void DropRecord(uint64_t log_record_id);
  void HandleDeadline(uint64_t rpc_id);
  // Handles a kUnavailable response carrying a retry-after hint: keeps the
  // call outstanding and re-dispatches it after the hint, within the
  // pushback budget. Returns true when the response was absorbed.
  bool MaybeHonorPushback(const Message& msg, const RpcResponseBody& body);
  // The scheduler shed/refused this call's request message: resolve the
  // call with `status` and withdraw its log record.
  void HandleSchedulerDrop(uint64_t rpc_id, const Status& status);
  // Sheds outstanding kBackground calls (newest first) until `needed` have
  // been shed or none remain. Returns how many were shed.
  size_t ShedBackgroundCalls(size_t needed);
  // Withdraws a pending same-(dest, key) predecessor that has not reached
  // the wire, chains its result promise to `successor`'s, and stashes its
  // stable-log record on `successor` for deferred withdrawal. Returns true
  // when a predecessor was coalesced away.
  bool TryCoalescePredecessor(const std::string& dest, const std::string& key,
                              Outstanding& successor);
  // Withdraws the log records of predecessors coalesced into `out` and
  // resolves their committed promises. Called once `out`'s own record is
  // durably flushed, or on any path that finishes `out` (response,
  // deadline, shed, cancel): removing an acknowledged predecessor's record
  // any earlier would let a crash lose the operation entirely.
  void ResolveCoalescedPreds(Outstanding& out);
  // Schedules a fresh dispatch of a crash-recovered request after the
  // scheduler refused it; the stable-log record stays in place meanwhile.
  void RetryRecoveredDispatch(uint64_t rpc_id);
  // Drops the supersede-index entry if it still points at `rpc_id`.
  void ForgetSupersedeKey(const Outstanding& out, uint64_t rpc_id);
  // The call's stable-log flush terminally failed with `status`: never
  // acknowledge, withdraw the (non-durable) record, fail the call through
  // the "storage" path, and enter storage-degraded mode on ENOSPC.
  void HandleFlushFailure(uint64_t rpc_id, const Status& status);
  // Retires `rpc_id` with `status` via the "storage" path, counting it on
  // `counter`.
  void FailCallOnStorage(uint64_t rpc_id, const Status& status, obs::Counter* counter);
  void EnterStorageDegraded();
  void MaybeClearStorageDegraded();
  bool OverBudget(size_t body_size, bool logged) const;
  void ObserveServerEpoch(const std::string& server, uint64_t epoch);
  // Physical destination for `dest`: the backup when the failover route has
  // engaged and `dest` is the (logical) primary, otherwise `dest` itself.
  const std::string& ResolveDest(const std::string& dest) const;
  void MaybeTruncateLog();
  void Trace(uint64_t rpc_id, obs::RpcEvent event);
  const std::string& self() const { return transport_->local_host(); }

  static Bytes EncodeLogRecord(uint64_t rpc_id, const std::string& dest,
                               const QrpcCallOptions& call_options, const Buffer& body);
  static Result<ParsedLogRecord> DecodeLogRecord(const Buffer& data);

  EventLoop* loop_;
  TransportManager* transport_;
  StableLog* log_;
  QrpcClientOptions options_;
  RetryBudget pushback_budget_;
  uint64_t next_rpc_id_ = 1;
  std::map<uint64_t, Outstanding> outstanding_;
  // Log record ids whose rpc has completed; truncated once contiguous with
  // the log head.
  std::set<uint64_t> answered_log_records_;
  // (dest, supersede key) -> newest pending rpc with that key. Volatile:
  // calls recovered from the log after a crash are not coalesced.
  std::map<std::pair<std::string, std::string>, uint64_t> supersede_index_;
  // Newest epoch observed per server host; drives the epoch observer.
  std::map<std::string, uint64_t> seen_server_epochs_;
  EpochObserver epoch_observer_;
  // True once TriggerFailover() has engaged the primary->backup route; the
  // flag never clears (fail-back is a deliberate non-goal -- the fenced
  // primary must not silently resume serving).
  bool failover_engaged_ = false;
  // Deferred loop callbacks (marshal, flush completion, deadlines) capture
  // a weak_ptr to this token and bail out once it is gone, so a client
  // destroyed by a simulated crash never has freed state touched by events
  // already in the loop.
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);

  obs::RpcTracer* tracer_ = nullptr;
  obs::CheckListener* check_ = nullptr;
  bool storage_degraded_ = false;
  obs::Counter* const c_calls_;
  obs::Counter* const c_completed_;
  obs::Counter* const c_recovered_;  // re-sent after crash recovery
  obs::Counter* const c_cancelled_;  // cancelled by the application
  obs::Counter* const c_deadline_exceeded_;  // per-call deadline fired first
  obs::Counter* const c_admission_rejected_;  // refused at Call() by the budgets
  obs::Counter* const c_background_shed_;     // outstanding background calls shed
  obs::Counter* const c_pushback_honored_;    // re-dispatched after server retry-after
  obs::Counter* const c_pushback_exhausted_;  // pushback surfaced as an error
  obs::Counter* const c_coalesced_;  // withdrawn pre-wire, answered by a successor
  obs::Counter* const c_recovered_retries_;  // recovered calls re-queued after refusal
  obs::Counter* const c_storage_flush_failures_;  // calls failed by a failed flush
  obs::Counter* const c_storage_refused_;  // logged calls refused: device full
  obs::Counter* const c_storage_degraded_entered_;  // times storage-degraded mode began
  obs::Counter* const c_storage_quarantined_calls_;  // calls failed by record quarantine
  obs::Counter* const c_failovers_;  // times the primary->backup route engaged
  obs::Counter* const c_failover_redispatches_;  // in-flight calls re-sent to the backup
  obs::Gauge* const g_storage_degraded_;
  obs::Gauge* const g_log_bytes_;  // stable-log byte budget occupancy
  obs::Histogram* const h_rpc_seconds_;  // Call() -> response matched
};

// One duplicate-response cache entry, as compaction snapshots, recovery
// restores, and replication resync ships it.
struct CachedResponseEntry {
  std::string client;
  uint64_t rpc_id = 0;
  // Shares storage with the dup-cache entry / WAL record it came from.
  Buffer response;
};

struct QrpcServerOptions {
  size_t duplicate_cache_max = 4096;
  // When non-empty, requests must carry one of these tokens in their
  // message header; others are refused with PERMISSION_DENIED.
  std::set<std::string> accepted_tokens;
  // Simulated CPU cost to dispatch + execute a handler (base; handlers may
  // add their own costs by delaying the responder).
  Duration dispatch_cost = Duration::Micros(50);
  // Admission limit on concurrently executing requests (0 = unbounded).
  // Requests over the limit are refused with kUnavailable plus a
  // retry-after hint that grows with the backlog; refusals are NOT entered
  // into the duplicate cache, so the client's later resend re-executes.
  size_t max_concurrent_requests = 0;
  // Base of the retry-after hint; the backlog adds dispatch_cost per
  // in-progress request on top.
  Duration pushback_retry_after = Duration::Millis(500);
};

class QrpcServer {
 public:
  // Handlers respond through the Responder, immediately or later.
  using Responder = std::function<void(RpcResponseBody)>;
  using Handler =
      std::function<void(const RpcRequestBody& request, const Message& envelope,
                         Responder respond)>;

  // Counts into `metrics` under "qrpc_server.".
  QrpcServer(EventLoop* loop, TransportManager* transport, obs::Registry* metrics,
             QrpcServerOptions options = {});

  // A method with no registered handler is answered kUnimplemented.
  void RegisterHandler(const std::string& method, Handler handler);

  // Server incarnation stamped on every response (including duplicate-cache
  // replays). Recovery bumps it; clients use the jump to detect a restart.
  void set_epoch(uint64_t epoch) { epoch_ = epoch; }
  uint64_t epoch() const { return epoch_; }

  // Write-ahead hook for the duplicate-response cache. When set, every
  // handler response is journaled *before* its wire send: the journal
  // receives the cached bytes plus a `release` closure and must invoke it
  // once the entry (and any state the request mutated) is durable. If the
  // server dies first, the response is never sent, the client resends, and
  // recovery replays neither the mutation nor the response -- the two stay
  // atomic. Error replies produced outside handlers (auth, unknown method,
  // malformed request) are not journaled, matching the cache itself.
  using ResponseJournal =
      std::function<void(const std::string& client, uint64_t rpc_id,
                         const Buffer& encoded_response, std::function<void()> release)>;
  void SetResponseJournal(ResponseJournal journal) { response_journal_ = std::move(journal); }

  // Duplicate-cache persistence: snapshot for compaction, restore on
  // recovery (restored entries re-enter the bounded eviction order).
  // Entries come oldest first and share their buffers with the cache.
  std::vector<CachedResponseEntry> CachedResponses() const;
  void RestoreCachedResponse(std::string client, uint64_t rpc_id, Buffer response);

  // Identity of the request whose handler is executing right now, or
  // nullptr outside handler dispatch. Lets store-level journaling attribute
  // synchronous mutations to the request that caused them.
  const std::pair<std::string, uint64_t>* current_request() const {
    return has_current_request_ ? &current_request_ : nullptr;
  }

  // Reports execute/replay/durability/eviction events to an external
  // invariant checker. Null disables (the default).
  void SetCheckListener(obs::CheckListener* listener) { check_ = listener; }

  // Damages the cached response for (client, rpc_id) in place, as stable-
  // storage corruption would. Returns false when no entry exists. Test-only.
  bool CorruptCachedResponseForTest(const std::string& client, uint64_t rpc_id);

  // Storage-degraded mode: the WAL device is full and compaction is trying
  // to reclaim space. While set, new (non-duplicate) requests are refused
  // with kUnavailable + retry-after -- the same pushback shape as the
  // concurrency limit, so clients keep the call queued and resend -- rather
  // than executing a mutation the server could not make durable. The store
  // layer toggles this around WAL space recovery.
  void SetStorageDegraded(bool degraded) { storage_degraded_ = degraded; }
  bool storage_degraded() const { return storage_degraded_; }

 private:
  // Dup-cache key: (client host, rpc id).
  using ClientRpcKey = std::pair<std::string, uint64_t>;

  void HandleRequest(const Message& msg);
  void SendResponse(const std::string& dst, uint64_t rpc_id, Priority priority,
                    const std::string& reply_via, RpcResponseBody body);
  void EvictDupCacheOverflow();
  const std::string& self() const { return transport_->local_host(); }

  EventLoop* loop_;
  TransportManager* transport_;
  QrpcServerOptions options_;
  uint64_t epoch_ = 1;
  ResponseJournal response_journal_;
  std::pair<std::string, uint64_t> current_request_;
  bool has_current_request_ = false;
  // Deferred dispatch events and handler-held responders capture a
  // weak_ptr to this token so a server destroyed by a simulated crash
  // cannot be touched by callbacks that outlive it.
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);
  obs::CheckListener* check_ = nullptr;
  obs::Counter* const c_requests_;
  obs::Counter* const c_duplicates_;
  obs::Counter* const c_unknown_methods_;
  obs::Counter* const c_auth_failures_;
  // Cached duplicate responses that failed to decode; answered kDataLoss
  // instead of silently replying OK with an empty body.
  obs::Counter* const c_duplicate_cache_decode_failures_;
  obs::Counter* const c_requests_rejected_;  // refused with kUnavailable + retry-after
  obs::Counter* const c_requests_rejected_storage_;  // refused while WAL space recovers
  obs::Gauge* const g_inflight_requests_;
  bool storage_degraded_ = false;
  std::map<std::string, Handler> handlers_;
  // (client host, rpc id) -> cached response for at-most-once execution.
  // Buffer values: caching, journaling, replication shipping, and the
  // replay send all share one allocation of the encoded response.
  using DoneMap = std::map<ClientRpcKey, Buffer>;
  DoneMap done_;
  // Eviction order, oldest first. Map iterators stay valid until their own
  // entry is erased, so walking or evicting needs no second lookup.
  std::deque<DoneMap::iterator> done_order_;
  std::set<ClientRpcKey> in_progress_;
  // Keys in done_ whose response-journal write has not yet been reported
  // durable. A duplicate request for such a key is dropped, not replayed:
  // the cached response acknowledges a transaction a crash could still
  // lose, and the journal-gated original send answers the client anyway
  // once the entry is durable. Entries leave via the journal release; a
  // crash discards the whole set with the rest of process state.
  std::set<ClientRpcKey> undurable_responses_;
};

}  // namespace rover

#endif  // ROVER_SRC_QRPC_QRPC_H_

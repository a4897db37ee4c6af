#include "src/qrpc/qrpc.h"

#include <utility>

#include "src/util/logging.h"

namespace rover {
namespace {

constexpr uint8_t kLogRecordRequest = 1;

}  // namespace

QrpcClient::QrpcClient(EventLoop* loop, TransportManager* transport, StableLog* log,
                       obs::Registry* metrics, QrpcClientOptions options)
    : loop_(loop), transport_(transport), log_(log), options_(options),
      pushback_budget_(options.pushback_budget_capacity,
                       options.pushback_budget_refill_per_sec),
      c_calls_(metrics->counter("qrpc_client.calls")),
      c_completed_(metrics->counter("qrpc_client.completed")),
      c_recovered_(metrics->counter("qrpc_client.recovered")),
      c_cancelled_(metrics->counter("qrpc_client.cancelled")),
      c_deadline_exceeded_(metrics->counter("qrpc_client.deadline_exceeded")),
      c_admission_rejected_(metrics->counter("qrpc_client.admission_rejected")),
      c_background_shed_(metrics->counter("qrpc_client.background_shed")),
      c_pushback_honored_(metrics->counter("qrpc_client.pushback_honored")),
      c_pushback_exhausted_(metrics->counter("qrpc_client.pushback_budget_exhausted")),
      c_coalesced_(metrics->counter("qrpc_client.coalesced")),
      c_recovered_retries_(metrics->counter("qrpc_client.recovered_retries")),
      c_storage_flush_failures_(metrics->counter("qrpc_client.storage_flush_failures")),
      c_storage_refused_(metrics->counter("qrpc_client.storage_refused")),
      c_storage_degraded_entered_(metrics->counter("qrpc_client.storage_degraded_entered")),
      c_storage_quarantined_calls_(metrics->counter("qrpc_client.storage_quarantined_calls")),
      c_failovers_(metrics->counter("qrpc_client.failovers")),
      c_failover_redispatches_(metrics->counter("qrpc_client.failover_redispatches")),
      g_storage_degraded_(metrics->gauge("qrpc_client.storage_degraded")),
      g_log_bytes_(metrics->gauge("qrpc_client.log_bytes")),
      h_rpc_seconds_(metrics->histogram("qrpc_client.rpc_seconds")) {
  // A client rebuilt after a crash starts out of storage-degraded mode over
  // the surviving log; the gauges must say so before anything can fire.
  g_storage_degraded_->Set(0);
  g_log_bytes_->Set(static_cast<int64_t>(log_->TotalBytes()));
  transport_->SetHandler(MessageType::kResponse,
                         [this](const Message& msg) { HandleResponse(msg); });
  if (!options_.failover_primary.empty() && !options_.failover_backup.empty()) {
    // Failure detector: the scheduler force-opens the primary's breaker when
    // no link to it will ever come up again (or enough sends failed), which
    // is this client's cue to fail over.
    transport_->scheduler()->SetBreakerObserver(
        [this, alive = std::weak_ptr<char>(alive_)](const std::string& dest,
                                                    BreakerState state) {
          if (alive.expired() || failover_engaged_) {
            return;
          }
          if (dest == options_.failover_primary && state == BreakerState::kOpen) {
            ROVER_LOG(Info) << self() << ": breaker open on primary " << dest
                            << "; failing over to " << options_.failover_backup;
            TriggerFailover();
          }
        });
  }
}

const std::string& QrpcClient::ResolveDest(const std::string& dest) const {
  if (failover_engaged_ && dest == options_.failover_primary) {
    return options_.failover_backup;
  }
  return dest;
}

size_t QrpcClient::TriggerFailover() {
  if (options_.failover_primary.empty() || options_.failover_backup.empty()) {
    return 0;
  }
  const bool first = !failover_engaged_;
  failover_engaged_ = true;
  if (first) {
    c_failovers_->Increment();
  }
  // Queued (never-transmitted) messages move wholesale, preserving order.
  const std::vector<uint64_t> rebound = transport_->scheduler()->RebindDestination(
      options_.failover_primary, options_.failover_backup);
  std::set<uint64_t> rebound_set(rebound.begin(), rebound.end());
  for (uint64_t id : rebound) {
    Trace(id, obs::RpcEvent::kFailover);
  }
  // Calls already on the wire get a fresh dispatch from their retained
  // bodies: whatever the primary never answered is re-sent to the backup,
  // whose replicated duplicate cache dedupes anything already executed.
  std::vector<uint64_t> redispatch;
  for (const auto& [id, out] : outstanding_) {
    if (out.dest == options_.failover_primary && out.dispatched &&
        rebound_set.count(id) == 0 && !out.body.empty()) {
      redispatch.push_back(id);
    }
  }
  for (uint64_t id : redispatch) {
    auto it = outstanding_.find(id);
    if (it == outstanding_.end()) {
      continue;  // resolved by an earlier re-dispatch's synchronous refusal
    }
    QrpcCallOptions call_options;
    call_options.priority = it->second.priority;
    c_failover_redispatches_->Increment();
    Trace(id, obs::RpcEvent::kFailover);
    DispatchToScheduler(id, it->second.dest, it->second.body, call_options);
  }
  if (first && epoch_observer_) {
    // The logical server "restarted": volatile state (subscriptions) on the
    // dead primary is gone, and the backup answers with a fenced epoch. Fire
    // the same signal a natural epoch bump would, so the access layer
    // stale-marks and re-subscribes without waiting for the next response.
    epoch_observer_(options_.failover_primary,
                    LastSeenEpoch(options_.failover_primary) + 1);
  }
  return rebound.size() + redispatch.size();
}

uint64_t QrpcClient::LastSeenEpoch(const std::string& server) const {
  auto it = seen_server_epochs_.find(server);
  return it == seen_server_epochs_.end() ? 0 : it->second;
}

void QrpcClient::ObserveServerEpoch(const std::string& server, uint64_t epoch) {
  uint64_t& seen = seen_server_epochs_[server];
  if (seen == 0) {
    seen = epoch;  // first contact: nothing to compare against
    return;
  }
  if (epoch > seen) {
    seen = epoch;
    if (epoch_observer_) {
      epoch_observer_(server, epoch);
    }
  }
}

void QrpcClient::Trace(uint64_t rpc_id, obs::RpcEvent event) {
  if (tracer_ != nullptr) {
    tracer_->Record(rpc_id, event, loop_->now());
  }
}

Bytes QrpcClient::EncodeLogRecord(uint64_t rpc_id, const std::string& dest,
                                  const QrpcCallOptions& call_options, const Buffer& body) {
  WireWriter writer;
  writer.Reserve(32 + dest.size() + call_options.relay_host.size() + body.size());
  writer.WriteVarint(kLogRecordRequest);
  writer.WriteVarint(rpc_id);
  writer.WriteString(dest);
  writer.WriteVarint(static_cast<uint64_t>(call_options.priority));
  writer.WriteBool(call_options.via_relay);
  writer.WriteString(call_options.relay_host);
  writer.WriteVarint(body.size());
  // The one charged copy on the durable path: body bytes land in the record.
  ChargePayloadCopy(body.size());
  writer.WriteRaw(body.data(), body.size());
  return writer.TakeData();
}

Result<QrpcClient::ParsedLogRecord> QrpcClient::DecodeLogRecord(const Buffer& data) {
  WireReader reader(data.data(), data.size());
  ROVER_ASSIGN_OR_RETURN(uint64_t kind, reader.ReadVarint());
  if (kind != kLogRecordRequest) {
    return InvalidArgumentError("not a qrpc request log record");
  }
  ParsedLogRecord out;
  ROVER_ASSIGN_OR_RETURN(out.rpc_id, reader.ReadVarint());
  ROVER_ASSIGN_OR_RETURN(out.dest, reader.ReadString());
  ROVER_ASSIGN_OR_RETURN(uint64_t priority, reader.ReadVarint());
  ROVER_ASSIGN_OR_RETURN(out.call_options.via_relay, reader.ReadBool());
  ROVER_ASSIGN_OR_RETURN(out.call_options.relay_host, reader.ReadString());
  ROVER_ASSIGN_OR_RETURN(uint64_t body_len, reader.ReadVarint());
  if (body_len > reader.remaining()) {
    return DataLossError("truncated body in log record");
  }
  ROVER_ASSIGN_OR_RETURN(const uint8_t* body_ptr, reader.ReadRaw(body_len));
  // The body is a slice of the record's storage: recovery re-dispatch pays
  // no copy.
  out.body = data.Slice(static_cast<size_t>(body_ptr - data.data()), body_len);
  if (priority >= kNumPriorities) {
    return InvalidArgumentError("bad priority in log record");
  }
  out.call_options.priority = static_cast<Priority>(priority);
  return out;
}

bool QrpcClient::OverBudget(size_t record_size, bool logged) const {
  if (options_.max_outstanding_calls > 0 &&
      outstanding_.size() + 1 > options_.max_outstanding_calls) {
    return true;
  }
  if (logged && options_.max_log_bytes > 0 &&
      log_->TotalBytes() + record_size > options_.max_log_bytes) {
    return true;
  }
  return false;
}

QrpcCall QrpcClient::Call(const std::string& dest, const std::string& method, RpcArgs args,
                          QrpcCallOptions call_options) {
  c_calls_->Increment();
  QrpcCall call;
  call.rpc_id = next_rpc_id_++;
  Trace(call.rpc_id, obs::RpcEvent::kEnqueued);
  const bool logged = call_options.log_request;
  if (check_ != nullptr) {
    check_->OnCallIssued(self(), call.rpc_id, logged);
  }

  RpcRequestBody request;
  request.method = method;
  request.args = std::move(args);
  // One allocation for the body's whole lifetime: retained copy, queued
  // message payload, and failover re-dispatch all share it by refcount.
  Buffer body(request.Encode());

  Bytes record;
  if (logged) {
    record = EncodeLogRecord(call.rpc_id, dest, call_options, body);
  }

  // Admission: over budget, background is refused outright; anything higher
  // sheds outstanding background calls first and is refused only if that
  // frees no room. Refusal precedes the log append, so nothing durable is
  // ever discarded -- the caller gets an explicit kResourceExhausted.
  if (OverBudget(record.size(), logged)) {
    if (call_options.priority != Priority::kBackground) {
      while (OverBudget(record.size(), logged) && ShedBackgroundCalls(1) > 0) {
      }
    }
    if (OverBudget(record.size(), logged)) {
      return RefuseAdmission(std::move(call), c_admission_rejected_,
                             "qrpc admission: over call/log budget");
    }
  }

  // Storage admission: a durable enqueue the device cannot hold is refused
  // up front with kResourceExhausted (degraded storage mode), never accepted
  // and then failed at flush time. Recovery is automatic -- the next call
  // after truncation frees room clears the mode.
  if (logged && !log_->HasSpaceFor(record.size())) {
    EnterStorageDegraded();
    return RefuseAdmission(std::move(call), c_storage_refused_,
                           "qrpc admission: stable device full (storage degraded)");
  }
  MaybeClearStorageDegraded();

  Outstanding out;
  out.call = call;
  out.dest = dest;
  out.priority = call_options.priority;
  out.issued_at = loop_->now();
  out.supersede_key = call_options.supersede_key;
  out.body = body;  // retained for failover re-dispatch

  // Coalescing happens only after this call is admitted: withdrawing the
  // predecessor first and then refusing the successor would drop a queued
  // operation, which coalescing must never do.
  if (options_.coalesce_superseded && !call_options.supersede_key.empty()) {
    TryCoalescePredecessor(dest, call_options.supersede_key, out);
  }

  const Duration marshal_cost =
      options_.marshal_fixed +
      Duration::Seconds(static_cast<double>(body.size()) / options_.marshal_bytes_per_sec);

  if (logged) {
    out.log_record_id = log_->Append(std::move(record));
    g_log_bytes_->Set(static_cast<int64_t>(log_->TotalBytes()));
    Trace(call.rpc_id, obs::RpcEvent::kLogged);
  }
  outstanding_.emplace(call.rpc_id, std::move(out));
  if (!call_options.supersede_key.empty()) {
    supersede_index_[{dest, call_options.supersede_key}] = call.rpc_id;
  }

  const uint64_t rpc_id = call.rpc_id;
  if (!call_options.deadline.is_zero()) {
    outstanding_[rpc_id].deadline_event = loop_->ScheduleAfter(
        call_options.deadline, [this, rpc_id, alive = std::weak_ptr<char>(alive_)] {
          if (!alive.expired()) {
            HandleDeadline(rpc_id);
          }
        });
  }
  loop_->ScheduleAfter(marshal_cost, [this, rpc_id, dest, body, call_options,
                                      alive = std::weak_ptr<char>(alive_)] {
    if (alive.expired()) {
      return;  // client torn down (simulated crash) before marshalling ran
    }
    auto it = outstanding_.find(rpc_id);
    if (it == outstanding_.end()) {
      return;  // cancelled or already handled
    }
    if (it->second.log_record_id != 0) {
      // Durability point: flush before the scheduler may transmit.
      log_->Flush([this, rpc_id, dest, body, call_options,
                   alive = std::weak_ptr<char>(alive_)](const Status& flush_status) {
        if (alive.expired()) {
          return;  // the log survives a crash; this client did not
        }
        auto it2 = outstanding_.find(rpc_id);
        if (it2 == outstanding_.end()) {
          return;
        }
        if (!flush_status.ok()) {
          if (check_ != nullptr) {
            check_->OnCallFlushFailed(self(), rpc_id);
          }
          if (!options_.unsafe_ack_despite_flush_failure_for_test) {
            HandleFlushFailure(rpc_id, flush_status);
            return;
          }
          // TEST-ONLY bug: fall through and acknowledge a record that never
          // became durable.
        }
        Trace(rpc_id, obs::RpcEvent::kFlushedDurable);
        it2->second.call.committed.Set(loop_->now());
        if (check_ != nullptr) {
          check_->OnCallDurable(self(), rpc_id, it2->second.log_record_id);
        }
        // This record is durable, so any predecessors it superseded can
        // now safely leave the log.
        ResolveCoalescedPreds(it2->second);
        DispatchToScheduler(rpc_id, dest, body, call_options);
      });
    } else {
      it->second.call.committed.Set(loop_->now());
      DispatchToScheduler(rpc_id, dest, body, call_options);
    }
  });
  return call;
}

QrpcCall QrpcClient::RefuseAdmission(QrpcCall call, obs::Counter* counter,
                                     const char* why) {
  counter->Increment();
  Trace(call.rpc_id, obs::RpcEvent::kShed);
  call.committed.Set(loop_->now());
  QrpcResult result;
  result.status = ResourceExhaustedError(why);
  result.completed_at = loop_->now();
  if (check_ != nullptr) {
    check_->OnCallResolved(self(), call.rpc_id, "admission", false);
  }
  call.result.Set(std::move(result));
  return call;
}

void QrpcClient::DropRecord(uint64_t log_record_id) {
  log_->RemoveRecord(log_record_id);
  answered_log_records_.erase(log_record_id);
  g_log_bytes_->Set(static_cast<int64_t>(log_->TotalBytes()));
}

void QrpcClient::ForgetSupersedeKey(const Outstanding& out, uint64_t rpc_id) {
  if (out.supersede_key.empty()) {
    return;
  }
  auto it = supersede_index_.find({out.dest, out.supersede_key});
  if (it != supersede_index_.end() && it->second == rpc_id) {
    supersede_index_.erase(it);
  }
}

bool QrpcClient::TryCoalescePredecessor(const std::string& dest, const std::string& key,
                                        Outstanding& successor) {
  auto idx = supersede_index_.find({dest, key});
  if (idx == supersede_index_.end()) {
    return false;
  }
  const uint64_t pred_id = idx->second;
  auto it = outstanding_.find(pred_id);
  if (it == outstanding_.end()) {
    supersede_index_.erase(idx);  // stale entry; should not happen
    return false;
  }
  // Safe to withdraw only before the request reaches the wire: either it
  // was never handed to the scheduler (pending marshal/flush callbacks
  // re-check outstanding_ and bail), or the scheduler still holds it queued
  // and agrees to cancel. A message in flight or already transmitted may
  // execute at the server, so its own response must resolve it.
  if (it->second.dispatched &&
      !transport_->scheduler()->CancelMessage(ResolveDest(dest), pred_id)) {
    return false;
  }
  Outstanding pred = std::move(it->second);
  outstanding_.erase(it);
  supersede_index_.erase(idx);
  if (pred.deadline_event != kInvalidEventId) {
    loop_->Cancel(pred.deadline_event);
  }
  // "Old log entries can be deleted when new operations supersede them"
  // (§5.2) -- but not before the successor's own record is durable: the
  // predecessor's record may already be flushed with its durability
  // acknowledged, and removing it while the successor's record is not yet
  // on disk opens a crash window where neither survives and an
  // acknowledged operation is silently lost. Stash it on the successor
  // (together with any records the predecessor itself inherited) and defer
  // to ResolveCoalescedPreds(); until then a crash conservatively resends
  // the predecessor.
  successor.coalesced_preds.reserve(successor.coalesced_preds.size() +
                                    pred.coalesced_preds.size() + 1);
  for (CoalescedPred& inherited : pred.coalesced_preds) {
    successor.coalesced_preds.push_back(std::move(inherited));
  }
  if (pred.log_record_id != 0) {
    if (options_.unsafe_eager_coalesce_withdraw_for_test) {
      // Deliberately wrong (see QrpcClientOptions): drop the predecessor's
      // record now, before the successor's record is durable.
      DropRecord(pred.log_record_id);
      if (!pred.call.committed.ready()) {
        pred.call.committed.Set(loop_->now());
      }
    } else {
      successor.coalesced_preds.push_back({pred.log_record_id, pred.call.committed});
    }
  } else if (!pred.call.committed.ready()) {
    // Nothing durable at stake for an unlogged predecessor.
    pred.call.committed.Set(loop_->now());
  }
  c_coalesced_->Increment();
  Trace(pred_id, obs::RpcEvent::kCoalesced);
  if (check_ != nullptr) {
    check_->OnCallCoalesced(self(), pred_id, successor.call.rpc_id);
  }
  // The predecessor's promise resolves with whatever the successor
  // produces -- exactly once, and transitively if the successor is itself
  // later superseded. This chain callback is attached before the caller
  // can attach its own successor callbacks, so predecessor waiters observe
  // the result first (in issue order).
  successor.call.result.OnReady(
      [pred_result = pred.call.result](const QrpcResult& r) mutable {
        if (!pred_result.ready()) {
          pred_result.Set(r);
        }
      });
  return true;
}

void QrpcClient::ResolveCoalescedPreds(Outstanding& out) {
  for (CoalescedPred& pred : out.coalesced_preds) {
    DropRecord(pred.log_record_id);
    if (!pred.committed.ready()) {
      pred.committed.Set(loop_->now());
    }
  }
  out.coalesced_preds.clear();
}

bool QrpcClient::Retire(uint64_t rpc_id, const Status& status, const Exit& exit) {
  auto it = outstanding_.find(rpc_id);
  if (it == outstanding_.end()) {
    return false;  // answered, or already retired by another exit
  }
  Outstanding out = std::move(it->second);
  outstanding_.erase(it);
  ForgetSupersedeKey(out, rpc_id);
  if (out.deadline_event != kInvalidEventId) {
    loop_->Cancel(out.deadline_event);  // a no-op when it is the deadline firing
  }
  // Withdraw the record: a call that left without a response must not be
  // resent after a crash, and its bytes stop counting against the log
  // budget.
  if (out.log_record_id != 0) {
    DropRecord(out.log_record_id);
    if (exit.report_withdrawn && check_ != nullptr) {
      check_->OnCallWithdrawn(self(), rpc_id);
    }
  }
  transport_->scheduler()->CancelMessage(ResolveDest(out.dest), rpc_id);
  // Coalesced predecessors resolve with this call's status and must likewise
  // not be resent after a crash.
  ResolveCoalescedPreds(out);
  exit.counter->Increment();
  Trace(rpc_id, exit.event);
  // Resolve both promises: a waiter on `committed` must not hang on a call
  // that left the engine before its flush completed. This is not a
  // durability acknowledgement -- OnCallDurable never fired for it.
  if (!out.call.committed.ready()) {
    out.call.committed.Set(loop_->now());
  }
  if (!out.call.result.ready()) {
    QrpcResult result;
    result.status = status;
    result.completed_at = loop_->now();
    if (check_ != nullptr) {
      check_->OnCallResolved(self(), rpc_id, exit.reason, false);
    }
    out.call.result.Set(std::move(result));
  }
  return true;
}

void QrpcClient::HandleDeadline(uint64_t rpc_id) {
  Retire(rpc_id, DeadlineExceededError("rpc deadline exceeded"),
         {"deadline", obs::RpcEvent::kDeadlineExceeded, c_deadline_exceeded_, true});
}

size_t QrpcClient::ShedBackgroundCalls(size_t needed) {
  // Newest first: an older background call has been waiting longer and is
  // more likely to already be on the wire.
  std::vector<uint64_t> victims;
  for (auto it = outstanding_.rbegin(); it != outstanding_.rend() && victims.size() < needed;
       ++it) {
    // Crash-recovered calls carry a durable obligation with no live caller
    // to observe a refusal; they are never shed.
    if (it->second.priority == Priority::kBackground && !it->second.recovered) {
      victims.push_back(it->first);
    }
  }
  for (uint64_t rpc_id : victims) {
    HandleSchedulerDrop(rpc_id, ResourceExhaustedError("background call shed under pressure"));
  }
  return victims.size();
}

void QrpcClient::HandleSchedulerDrop(uint64_t rpc_id, const Status& status) {
  auto it = outstanding_.find(rpc_id);
  if (it != outstanding_.end() && it->second.recovered && it->second.log_record_id != 0) {
    // A crash-recovered request is the stable-log record of an operation
    // whose caller died with the old incarnation. Nobody observes a shed
    // status, and withdrawing the record would silently lose an
    // acknowledged-durable update -- keep it and re-dispatch once the
    // scheduler has drained.
    RetryRecoveredDispatch(rpc_id);
    return;
  }
  Retire(rpc_id, status, {"shed", obs::RpcEvent::kShed, c_background_shed_, true});
}

void QrpcClient::RetryRecoveredDispatch(uint64_t rpc_id) {
  c_recovered_retries_->Increment();
  loop_->ScheduleAfter(
      options_.recovered_retry_backoff,
      [this, rpc_id, alive = std::weak_ptr<char>(alive_)] {
        if (alive.expired()) {
          return;  // crashed again: the record is still logged, the next
                   // incarnation's RecoverFromLog resends it
        }
        auto it = outstanding_.find(rpc_id);
        if (it == outstanding_.end()) {
          return;  // answered or cancelled meanwhile
        }
        const StableLog::Record* rec = log_->FindRecord(it->second.log_record_id);
        if (rec == nullptr) {
          return;
        }
        auto payload = log_->RecordPayload(*rec);
        if (!payload.ok()) {
          // Latent corruption surfaced at read time: the record can never be
          // re-sent. Quarantine it instead of leaving the call parked on a
          // record that will fail every future read.
          FailQuarantinedRecords({it->second.log_record_id});
          return;
        }
        auto parsed = DecodeLogRecord(*payload);
        if (!parsed.ok()) {
          FailQuarantinedRecords({it->second.log_record_id});
          return;
        }
        DispatchToScheduler(rpc_id, parsed->dest, std::move(parsed->body),
                            parsed->call_options);
      });
}

void QrpcClient::EnterStorageDegraded() {
  if (storage_degraded_) {
    return;
  }
  storage_degraded_ = true;
  c_storage_degraded_entered_->Increment();
  g_storage_degraded_->Set(1);
}

void QrpcClient::MaybeClearStorageDegraded() {
  if (!storage_degraded_ || !log_->HasSpaceFor(0)) {
    return;
  }
  storage_degraded_ = false;
  g_storage_degraded_->Set(0);
}

void QrpcClient::FailCallOnStorage(uint64_t rpc_id, const Status& status,
                                   obs::Counter* counter) {
  // The record is either non-durable (failed flush) or already quarantined
  // out of the log (RemoveRecord is then a no-op): nothing durable is
  // withdrawn, so OnCallWithdrawn is not reported.
  Retire(rpc_id, status, {"storage", obs::RpcEvent::kShed, counter, false});
}

void QrpcClient::HandleFlushFailure(uint64_t rpc_id, const Status& status) {
  if (status.code() == StatusCode::kResourceExhausted) {
    EnterStorageDegraded();
  }
  FailCallOnStorage(rpc_id, status, c_storage_flush_failures_);
}

size_t QrpcClient::FailQuarantinedRecords(const std::vector<uint64_t>& log_record_ids) {
  size_t failed = 0;
  for (uint64_t record_id : log_record_ids) {
    uint64_t rpc_id = 0;
    bool found = false;
    for (const auto& [id, out] : outstanding_) {
      if (out.log_record_id == record_id) {
        rpc_id = id;
        found = true;
        break;
      }
    }
    if (!found) {
      continue;  // no live call backed by this record (e.g. crash recovery)
    }
    FailCallOnStorage(rpc_id, DataLossError("stable log record quarantined (bit rot)"),
                      c_storage_quarantined_calls_);
    ++failed;
  }
  return failed;
}

void QrpcClient::DispatchToScheduler(uint64_t rpc_id, const std::string& dest, Buffer body,
                                     const QrpcCallOptions& call_options) {
  if (auto it = outstanding_.find(rpc_id); it != outstanding_.end()) {
    it->second.dispatched = true;
  }
  Message msg;
  msg.header.message_id = rpc_id;
  msg.header.type = MessageType::kRequest;
  msg.header.priority = call_options.priority;
  msg.header.dst = ResolveDest(dest);
  msg.payload = std::move(body);
  if (call_options.via_relay) {
    // Ask the server to route the response back through the same relay.
    msg.header.reply_via = call_options.relay_host;
    transport_->SendViaRelay(call_options.relay_host, std::move(msg));
  } else {
    // The scheduler may refuse or shed this message under queue pressure
    // (background priority only); the call must then resolve instead of
    // waiting forever on a request that will never be transmitted.
    transport_->Send(std::move(msg),
                     [this, rpc_id, alive = std::weak_ptr<char>(alive_)](const Status& s) {
                       if (!alive.expired() &&
                           s.code() == StatusCode::kResourceExhausted) {
                         HandleSchedulerDrop(rpc_id, s);
                       }
                     });
  }
}

bool QrpcClient::MaybeHonorPushback(const Message& msg, const RpcResponseBody& body) {
  if (body.code != StatusCode::kUnavailable || body.retry_after_micros == 0) {
    return false;
  }
  const uint64_t rpc_id = msg.header.in_reply_to;
  auto it = outstanding_.find(rpc_id);
  if (it == outstanding_.end()) {
    return false;
  }
  const Outstanding& out = it->second;
  if (out.log_record_id == 0) {
    return false;  // unlogged call: no durable copy to re-send; surface the error
  }
  if (!pushback_budget_.enabled() || !pushback_budget_.TryConsume(loop_->now())) {
    if (pushback_budget_.enabled()) {
      c_pushback_exhausted_->Increment();
    }
    return false;  // server keeps refusing; let the caller see kUnavailable
  }
  const StableLog::Record* rec = log_->FindRecord(out.log_record_id);
  if (rec == nullptr) {
    return false;
  }
  auto payload = log_->RecordPayload(*rec);
  if (!payload.ok()) {
    return false;
  }
  auto parsed = DecodeLogRecord(*payload);
  if (!parsed.ok()) {
    return false;
  }
  // The server told us when it expects to have capacity again; the hint is
  // clamped so a corrupt or hostile value cannot park the call forever.
  const Duration retry_after =
      std::min(Duration::Micros(static_cast<int64_t>(body.retry_after_micros)),
               Duration::Seconds(600));
  if (body.server_epoch > 0) {
    ObserveServerEpoch(msg.header.src, body.server_epoch);
  }
  c_pushback_honored_->Increment();
  Trace(rpc_id, obs::RpcEvent::kPushback);
  auto parsed_ptr = std::make_shared<ParsedLogRecord>(std::move(*parsed));
  loop_->ScheduleAfter(retry_after,
                       [this, parsed_ptr, alive = std::weak_ptr<char>(alive_)] {
                         if (alive.expired()) {
                           return;  // a crash-recovered client resends from its log
                         }
                         if (outstanding_.count(parsed_ptr->rpc_id) == 0) {
                           return;  // answered or cancelled meanwhile
                         }
                         DispatchToScheduler(parsed_ptr->rpc_id, parsed_ptr->dest,
                                             std::move(parsed_ptr->body),
                                             parsed_ptr->call_options);
                       });
  return true;
}

void QrpcClient::HandleResponse(const Message& msg) {
  const uint64_t rpc_id = msg.header.in_reply_to;
  auto it = outstanding_.find(rpc_id);
  if (it == outstanding_.end()) {
    return;  // duplicate response; at-most-once already satisfied
  }
  QrpcResult result;
  result.completed_at = loop_->now();
  auto body = RpcResponseBody::Decode(msg.payload);
  if (body.ok()) {
    if (MaybeHonorPushback(msg, *body)) {
      return;  // call stays outstanding; re-dispatch is scheduled
    }
    result.status = body->ToStatus();
    result.value = body->result;
    result.server_epoch = body->server_epoch;
  } else {
    result.status = body.status();
  }
  Outstanding out = std::move(it->second);
  outstanding_.erase(it);
  ForgetSupersedeKey(out, rpc_id);
  if (out.deadline_event != kInvalidEventId) {
    loop_->Cancel(out.deadline_event);
  }
  // Observe the epoch before resolving the promise: if the server
  // restarted, cache invalidation must precede the application's reaction
  // to this response.
  if (body.ok() && body->server_epoch > 0) {
    ObserveServerEpoch(msg.header.src, body->server_epoch);
  }
  c_completed_->Increment();
  h_rpc_seconds_->Observe((result.completed_at - out.issued_at).seconds());
  Trace(rpc_id, obs::RpcEvent::kResponded);
  if (out.log_record_id != 0) {
    answered_log_records_.insert(out.log_record_id);
    MaybeTruncateLog();
  }
  // Unlogged successors have no flush point; their coalesced predecessors
  // leave the log here, once the operation has actually executed.
  ResolveCoalescedPreds(out);
  if (check_ != nullptr) {
    check_->OnCallResolved(self(), rpc_id, "response", result.status.ok());
  }
  out.call.result.Set(std::move(result));
}

void QrpcClient::MaybeTruncateLog() {
  uint64_t front = log_->FrontRecordId();
  while (front != 0 && answered_log_records_.count(front) > 0) {
    answered_log_records_.erase(front);
    log_->Truncate(front);
    front = log_->FrontRecordId();
  }
  g_log_bytes_->Set(static_cast<int64_t>(log_->TotalBytes()));
  // Truncation returns device space: a full disk heals as responses drain.
  MaybeClearStorageDegraded();
}

bool QrpcClient::Cancel(uint64_t rpc_id) {
  return Retire(rpc_id, CancelledError("call cancelled by application"),
                {"cancel", obs::RpcEvent::kCancelled, c_cancelled_, true});
}

std::vector<uint64_t> QrpcClient::OutstandingIds() const {
  std::vector<uint64_t> ids;
  ids.reserve(outstanding_.size());
  for (const auto& [id, out] : outstanding_) {
    ids.push_back(id);
  }
  return ids;
}

size_t QrpcClient::RecoverFromLog() {
  std::vector<ParsedLogRecord> resends;
  std::vector<uint64_t> resent_ids;
  for (const StableLog::Record& rec : log_->DurableRecords()) {
    auto payload = log_->RecordPayload(rec);
    if (!payload.ok()) {
      ROVER_LOG(Warning) << "qrpc recovery: skipping undecompressable log record " << rec.id;
      continue;
    }
    auto parsed = DecodeLogRecord(*payload);
    if (!parsed.ok()) {
      ROVER_LOG(Warning) << "qrpc recovery: skipping malformed log record " << rec.id;
      continue;
    }
    next_rpc_id_ = std::max(next_rpc_id_, parsed->rpc_id + 1);

    if (outstanding_.count(parsed->rpc_id) == 0) {
      QrpcCall call;
      call.rpc_id = parsed->rpc_id;
      call.committed.Set(loop_->now());  // it is already durable
      Outstanding out;
      out.call = call;
      out.dest = parsed->dest;
      out.log_record_id = rec.id;
      out.priority = parsed->call_options.priority;
      out.issued_at = loop_->now();
      out.recovered = true;
      out.body = parsed->body;  // retained for failover re-dispatch
      outstanding_.emplace(parsed->rpc_id, std::move(out));
    }
    // If the call is still tracked (same engine survived, e.g. only the
    // device "rebooted"), re-transmission is safe: the server's duplicate
    // cache guarantees at-most-once execution and the existing promise
    // resolves when any response arrives.

    resent_ids.push_back(parsed->rpc_id);
    resends.push_back(std::move(*parsed));
  }
  g_log_bytes_->Set(static_cast<int64_t>(log_->TotalBytes()));
  // Announce the full recovery set before the first re-dispatch: a dispatch
  // can fail synchronously under queue pressure, and any observer must
  // already know those ids belong to the new incarnation.
  if (check_ != nullptr) {
    check_->OnClientRecovered(self(), resent_ids);
  }
  for (ParsedLogRecord& parsed : resends) {
    Trace(parsed.rpc_id, obs::RpcEvent::kRecovered);
    DispatchToScheduler(parsed.rpc_id, parsed.dest, std::move(parsed.body),
                        parsed.call_options);
    c_recovered_->Increment();
  }
  return resends.size();
}

QrpcServer::QrpcServer(EventLoop* loop, TransportManager* transport,
                       obs::Registry* metrics, QrpcServerOptions options)
    : loop_(loop), transport_(transport), options_(options),
      c_requests_(metrics->counter("qrpc_server.requests")),
      c_duplicates_(metrics->counter("qrpc_server.duplicates")),
      c_unknown_methods_(metrics->counter("qrpc_server.unknown_methods")),
      c_auth_failures_(metrics->counter("qrpc_server.auth_failures")),
      c_duplicate_cache_decode_failures_(
          metrics->counter("qrpc_server.duplicate_cache_decode_failures")),
      c_requests_rejected_(metrics->counter("qrpc_server.requests_rejected")),
      c_requests_rejected_storage_(metrics->counter("qrpc_server.requests_rejected_storage")),
      g_inflight_requests_(metrics->gauge("qrpc_server.inflight_requests")) {
  // A server rebuilt after a crash has nothing in flight.
  g_inflight_requests_->Set(0);
  transport_->SetHandler(MessageType::kRequest,
                         [this](const Message& msg) { HandleRequest(msg); });
}

bool QrpcServer::CorruptCachedResponseForTest(const std::string& client, uint64_t rpc_id) {
  auto it = done_.find(ClientRpcKey(client, rpc_id));
  if (it == done_.end()) {
    return false;
  }
  // In-place damage through the copy-on-write door: snapshots or journal
  // entries sharing these bytes keep the intact original.
  uint8_t* p = it->second.MutableData();
  for (size_t i = 0; i < it->second.size(); ++i) {
    p[i] = 0xff;  // undecodable garbage (0xff is not a valid status varint)
  }
  if (it->second.empty()) {
    it->second = Buffer(Bytes{0xff, 0xff, 0xff});
  }
  return true;
}

std::vector<CachedResponseEntry> QrpcServer::CachedResponses() const {
  std::vector<CachedResponseEntry> out;
  out.reserve(done_order_.size());
  // Walk in eviction order so a restore preserves the cache's age ranking.
  for (const DoneMap::iterator& it : done_order_) {
    out.push_back(CachedResponseEntry{it->first.first, it->first.second, it->second});
  }
  return out;
}

void QrpcServer::EvictDupCacheOverflow() {
  while (done_order_.size() > options_.duplicate_cache_max) {
    const auto victim = done_.extract(done_order_.front());
    done_order_.pop_front();
    if (check_ != nullptr) {
      check_->OnServerDupCacheEvict(self(), victim.key().first, victim.key().second);
    }
  }
}

void QrpcServer::RestoreCachedResponse(std::string client, uint64_t rpc_id, Buffer response) {
  auto [it, inserted] =
      done_.try_emplace(ClientRpcKey(std::move(client), rpc_id), std::move(response));
  if (inserted) {
    done_order_.push_back(it);
    EvictDupCacheOverflow();
  }
}

void QrpcServer::RegisterHandler(const std::string& method, Handler handler) {
  handlers_[method] = std::move(handler);
}

void QrpcServer::SendResponse(const std::string& dst, uint64_t rpc_id, Priority priority,
                              const std::string& reply_via, RpcResponseBody body) {
  // Stamp the *current* incarnation at send time: a duplicate-cache replay
  // after a restart carries the new epoch, which is exactly the signal the
  // client needs to notice the restart.
  body.server_epoch = epoch_;
  Message msg;
  msg.header.type = MessageType::kResponse;
  msg.header.priority = priority;
  msg.header.dst = dst;
  msg.header.in_reply_to = rpc_id;
  msg.payload = body.Encode();
  if (!reply_via.empty()) {
    transport_->SendViaRelay(reply_via, std::move(msg));
  } else {
    transport_->Send(std::move(msg));
  }
}

void QrpcServer::HandleRequest(const Message& msg) {
  c_requests_->Increment();
  if (!options_.accepted_tokens.empty() &&
      options_.accepted_tokens.count(msg.header.auth) == 0) {
    c_auth_failures_->Increment();
    RpcResponseBody body;
    body.code = StatusCode::kPermissionDenied;
    body.error_message = "request not authenticated";
    SendResponse(msg.header.src, msg.header.message_id, msg.header.priority,
                 msg.header.reply_via, body);
    return;
  }
  const ClientRpcKey key(msg.header.src, msg.header.message_id);

  // At-most-once: a completed request is answered from the cache; an
  // in-progress one is dropped (its response is already on the way).
  auto done_it = done_.find(key);
  if (done_it != done_.end()) {
    c_duplicates_->Increment();
    if (undurable_responses_.count(key) > 0) {
      // The entry's response journal has not reported durable yet: a crash
      // could still lose the transaction this response acknowledges, so a
      // replay now would hand the client an answer the server might forget.
      // Drop the duplicate; the journal-gated original send (pending on the
      // same release) will answer, or the client resends after it.
      return;
    }
    if (check_ != nullptr) {
      // Reports the journal state as-is rather than asserting it: the gate
      // above makes this always durable, and a regression of that gate then
      // shows up as an undurable-replay violation in SimCheck.
      check_->OnServerReplay(self(), msg.header.src, msg.header.message_id,
                             /*durable=*/undurable_responses_.count(key) == 0);
    }
    auto decoded = RpcResponseBody::Decode(done_it->second);
    if (!decoded.ok()) {
      // The cached bytes are corrupt. Replying with a default-constructed
      // body would tell the client "OK, empty result" for a request whose
      // real outcome is unknown -- report the loss honestly instead.
      c_duplicate_cache_decode_failures_->Increment();
      RpcResponseBody body;
      body.code = StatusCode::kDataLoss;
      body.error_message = "duplicate-response cache entry corrupt";
      SendResponse(msg.header.src, msg.header.message_id, msg.header.priority,
                   msg.header.reply_via, body);
      return;
    }
    SendResponse(msg.header.src, msg.header.message_id, msg.header.priority,
                 msg.header.reply_via, *decoded);
    return;
  }
  if (in_progress_.count(key) > 0) {
    c_duplicates_->Increment();
    return;
  }

  // Admission: past the concurrency limit, refuse with kUnavailable and a
  // retry-after hint sized to the backlog. The refusal deliberately skips
  // the duplicate cache -- the client's resend must re-execute, not replay
  // "server overloaded" forever. Duplicates (above) are still answered from
  // the cache even under overload: a replay costs no handler execution.
  if (options_.max_concurrent_requests > 0 &&
      in_progress_.size() >= options_.max_concurrent_requests) {
    c_requests_rejected_->Increment();
    const Duration hint =
        options_.pushback_retry_after +
        options_.dispatch_cost * static_cast<double>(in_progress_.size());
    RpcResponseBody body;
    body.code = StatusCode::kUnavailable;
    body.error_message = "server over concurrency limit";
    body.retry_after_micros = static_cast<uint64_t>(hint.micros());
    SendResponse(msg.header.src, msg.header.message_id, msg.header.priority,
                 msg.header.reply_via, body);
    return;
  }

  // Storage-degraded: the WAL device is full and compaction is reclaiming
  // space. Refuse new work the same way the concurrency limit does --
  // kUnavailable + retry-after, not cached -- rather than executing a
  // mutation whose transaction could not be made durable. Duplicates were
  // already answered above; replays cost no WAL write.
  if (storage_degraded_) {
    c_requests_rejected_->Increment();
    c_requests_rejected_storage_->Increment();
    RpcResponseBody body;
    body.code = StatusCode::kUnavailable;
    body.error_message = "server storage degraded (WAL device full)";
    body.retry_after_micros =
        static_cast<uint64_t>(options_.pushback_retry_after.micros());
    SendResponse(msg.header.src, msg.header.message_id, msg.header.priority,
                 msg.header.reply_via, body);
    return;
  }

  auto request = RpcRequestBody::Decode(msg.payload);
  if (!request.ok()) {
    RpcResponseBody body;
    body.code = StatusCode::kDataLoss;
    body.error_message = "malformed request";
    SendResponse(msg.header.src, msg.header.message_id, msg.header.priority,
                 msg.header.reply_via, body);
    return;
  }

  auto handler = handlers_.find(request->method);
  if (handler == handlers_.end()) {
    c_unknown_methods_->Increment();
    RpcResponseBody body;
    body.code = StatusCode::kUnimplemented;
    body.error_message = "no handler for method " + request->method;
    SendResponse(msg.header.src, msg.header.message_id, msg.header.priority,
                 msg.header.reply_via, body);
    return;
  }

  in_progress_.insert(key);
  g_inflight_requests_->Set(static_cast<int64_t>(in_progress_.size()));
  const std::string src = msg.header.src;
  const uint64_t rpc_id = msg.header.message_id;
  const Priority priority = msg.header.priority;
  const std::string reply_via = msg.header.reply_via;
  Responder respond = [this, key, src, rpc_id, priority, reply_via,
                       alive = std::weak_ptr<char>(alive_)](RpcResponseBody body) {
    if (alive.expired()) {
      return;  // handler outlived the server (simulated crash)
    }
    in_progress_.erase(key);
    g_inflight_requests_->Set(static_cast<int64_t>(in_progress_.size()));
    // Cached/journaled without an epoch stamp. One allocation: the cache
    // entry and the journal's copy share it by refcount.
    Buffer encoded(body.Encode());
    auto [cached, inserted] = done_.insert_or_assign(key, encoded);
    if (inserted) {
      done_order_.push_back(cached);
      EvictDupCacheOverflow();
    }
    if (response_journal_) {
      // Write-ahead: the response leaves only after the journal reports the
      // entry durable. A crash in between means the client never saw an
      // answer and safely resends. Until then the cached entry must not be
      // replayed to duplicates either -- see undurable_responses_.
      undurable_responses_.insert(key);
      auto body_ptr = std::make_shared<RpcResponseBody>(std::move(body));
      response_journal_(
          src, rpc_id, encoded,
          [this, key, src, rpc_id, priority, reply_via, body_ptr,
           alive2 = std::weak_ptr<char>(alive_)] {
            if (!alive2.expired()) {
              undurable_responses_.erase(key);
              if (check_ != nullptr) {
                check_->OnServerResponseDurable(self(), src, rpc_id);
              }
              SendResponse(src, rpc_id, priority, reply_via, std::move(*body_ptr));
            }
          });
    } else {
      SendResponse(src, rpc_id, priority, reply_via, std::move(body));
    }
  };

  // Model dispatch CPU cost, then run the handler. While the handler body
  // executes, current_request() names the request so synchronous store
  // mutations can be attributed to it (transactional journaling).
  auto request_ptr = std::make_shared<RpcRequestBody>(std::move(*request));
  auto envelope_ptr = std::make_shared<Message>(msg);
  loop_->ScheduleAfter(
      options_.dispatch_cost,
      [this, key, handler = handler->second, request_ptr, envelope_ptr, respond,
       alive = std::weak_ptr<char>(alive_)] {
        if (alive.expired()) {
          return;  // server torn down before dispatch
        }
        if (check_ != nullptr) {
          check_->OnServerExecute(self(), key.first, key.second);
        }
        current_request_ = key;
        has_current_request_ = true;
        handler(*request_ptr, *envelope_ptr, respond);
        has_current_request_ = false;
      });
}

}  // namespace rover

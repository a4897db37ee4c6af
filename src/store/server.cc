#include "src/store/server.h"

#include <utility>

#include "src/obs/cpu_scope.h"
#include "src/store/replication.h"
#include "src/tclite/value.h"
#include "src/util/delta.h"
#include "src/util/logging.h"

namespace rover {

Bytes EncodeInvalidation(const std::string& name, uint64_t version) {
  WireWriter writer;
  writer.WriteString("INVAL");
  writer.WriteString(name);
  writer.WriteVarint(version);
  return writer.TakeData();
}

namespace {

Result<Invalidation> DecodeInvalidationFrom(WireReader* reader) {
  ROVER_ASSIGN_OR_RETURN(std::string tag, reader->ReadString());
  if (tag != "INVAL") {
    return DataLossError("not an invalidation message");
  }
  Invalidation inval;
  ROVER_ASSIGN_OR_RETURN(inval.name, reader->ReadString());
  ROVER_ASSIGN_OR_RETURN(inval.version, reader->ReadVarint());
  return inval;
}

}  // namespace

Result<Invalidation> DecodeInvalidation(const Bytes& payload) {
  WireReader reader(payload);
  return DecodeInvalidationFrom(&reader);
}

Result<Invalidation> DecodeInvalidation(const Buffer& payload) {
  WireReader reader(payload.data(), payload.size());
  return DecodeInvalidationFrom(&reader);
}

namespace {

RpcResponseBody ErrorResponse(const Status& status) {
  RpcResponseBody body;
  body.code = status.code();
  body.error_message = status.message();
  return body;
}

RpcResponseBody ValueResponse(RpcValue value) {
  RpcResponseBody body;
  body.result = std::move(value);
  return body;
}

}  // namespace

RoverServer::RoverServer(EventLoop* loop, TransportManager* transport, QrpcServer* qrpc,
                         ServerStableStore* stable_store, RoverServerOptions options)
    : loop_(loop), transport_(transport), qrpc_(qrpc), options_(options),
      stable_store_(stable_store) {
  RegisterMethods();
  WireDurability();
}

void RoverServer::WireDurability() {
  store_.SetJournalHooks(
      [this](const RdoDescriptor& committed) {
        ReplayOp op;
        op.committed = committed;
        RecordOp(std::move(op));
      },
      [this](const std::string& name) {
        ReplayOp op;
        op.is_remove = true;
        op.name = name;
        RecordOp(std::move(op));
      });
  qrpc_->SetResponseJournal([this](const std::string& client, uint64_t rpc_id,
                                   const Buffer& encoded_response,
                                   std::function<void()> release) {
    ServerTransaction txn;
    auto pending = pending_ops_.find({client, rpc_id});
    if (pending != pending_ops_.end()) {
      txn.ops = std::move(pending->second);
      pending_ops_.erase(pending);
    }
    txn.has_response = true;
    txn.client = client;
    txn.rpc_id = rpc_id;
    txn.response = encoded_response;
    const uint64_t seq = stable_store_->LogTransaction(txn);
    if (replication_ != nullptr) {
      replication_->Ship(seq, stable_store_->epoch(), txn);
    }
    stable_store_->Flush([this, seq, weak = std::weak_ptr<char>(alive_),
                          release = std::move(release)](const Status& flushed) mutable {
      if (weak.expired()) {
        return;  // server crashed while the journal write was in flight
      }
      if (flushed.ok()) {
        // Semi-synchronous replication: the response may only leave once
        // the transaction is durable locally AND covered by the backup's
        // acked watermark -- that pairing is what lets a failover promise
        // that no acknowledged work is lost.
        if (replication_ != nullptr) {
          replication_->GateRelease(seq, std::move(release));
        } else {
          release();
        }
        return;
      }
      if (flushed.code() == StatusCode::kResourceExhausted) {
        // Journal device full. The transaction still sits in the WAL's
        // volatile tail; hold the response, refuse new work, and compact to
        // reclaim space. The snapshot captures the already-applied store
        // mutations AND the (undurable) duplicate-cache entry, so the
        // reclaim makes this transaction durable and the release can fire.
        ++stats_.wal_space_exhausted;
        if (replication_ != nullptr) {
          RecoverWalSpace([this, seq, release = std::move(release)]() mutable {
            if (replication_ != nullptr) {
              replication_->GateRelease(seq, std::move(release));
            } else {
              release();
            }
          });
        } else {
          RecoverWalSpace(std::move(release));
        }
        return;
      }
      // Terminal failure: the response must not leave, and the in-memory
      // image (mutations already applied, response cached) has diverged from
      // what stable storage will recover. Fail-stop this incarnation so the
      // client's resend re-executes against recovered state; holding the
      // undurable cached response instead would wedge the call forever.
      // kDataLoss (permanent sync failure) already fail-stops via the WAL's
      // own handler; kUnavailable (retries exhausted) needs ours.
      if (flushed.code() == StatusCode::kUnavailable && wal_failure_handler_) {
        wal_failure_handler_();
      }
    });
    MaybeCompact();
  });
}

void RoverServer::RecoverWalSpace(std::function<void()> release) {
  if (release) {
    wal_space_waiters_.push_back(std::move(release));
  }
  if (!wal_space_degraded_) {
    wal_space_degraded_ = true;
    qrpc_->SetStorageDegraded(true);
  }
  if (wal_reclaim_in_progress_) {
    return;  // the running reclaim will drain the waiter queue
  }
  wal_reclaim_in_progress_ = true;
  wal_reclaim_attempts_ = 0;
  TryReclaimWalSpace();
}

void RoverServer::TryReclaimWalSpace() {
  // Bounded: a permanently full device must not keep the event loop alive
  // with reclaim retries forever. On exhaustion the episode ends in failure
  // (waiters drop, responses never leave); the next journal ENOSPC re-arms.
  constexpr size_t kMaxReclaimAttempts = 40;
  if (++wal_reclaim_attempts_ > kMaxReclaimAttempts) {
    FinishWalRecovery(false);
    return;
  }
  auto weak = std::weak_ptr<char>(alive_);
  // Same atomicity rule as MaybeCompact: never snapshot while a handler has
  // mutations buffered but unjournaled. Also wait out any snapshot already
  // in flight (it may free the space itself).
  if (!pending_ops_.empty() || stable_store_->CompactionInProgress()) {
    loop_->ScheduleAfter(Duration::Millis(50), [this, weak] {
      if (!weak.expired()) {
        TryReclaimWalSpace();
      }
    });
    return;
  }
  ++stats_.wal_compactions_forced;
  WriteSnapshot([this, weak] {
    if (weak.expired()) {
      return;
    }
    // Snapshot written and the WAL truncated through its back record --
    // including the volatile tail the ENOSPC'd transactions occupy, which
    // the snapshot's duplicate-cache image now covers. Re-flush whatever
    // remains; with the tail reclaimed this normally has nothing to write.
    stable_store_->Flush([this, weak](const Status& reflushed) {
      if (weak.expired()) {
        return;
      }
      if (reflushed.ok()) {
        FinishWalRecovery(true);
        return;
      }
      if (reflushed.code() == StatusCode::kResourceExhausted) {
        loop_->ScheduleAfter(Duration::Millis(250), [this, weak] {
          if (!weak.expired()) {
            TryReclaimWalSpace();
          }
        });
        return;
      }
      FinishWalRecovery(false);
    });
  });
}

void RoverServer::FinishWalRecovery(bool ok) {
  wal_reclaim_in_progress_ = false;
  // Cleared even on failure: leaving the refusal up with no reclaim running
  // would wedge the server permanently (refused requests never journal, so
  // nothing would ever re-arm recovery). Letting requests back in means the
  // next ENOSPC restarts a bounded episode -- and succeeds once space frees.
  wal_space_degraded_ = false;
  qrpc_->SetStorageDegraded(false);
  std::vector<std::function<void()>> waiters;
  waiters.swap(wal_space_waiters_);
  if (!ok) {
    // Reclaim could not make the journal durable. The dropped responses stay
    // cached but gated undurable, so resends would wait on releases that can
    // never fire -- fail-stop instead: the crash wipes the duplicate cache
    // and resends re-execute against recovered state.
    if (wal_failure_handler_) {
      wal_failure_handler_();
    }
    return;
  }
  ++stats_.wal_space_recoveries;
  for (auto& release : waiters) {
    release();
  }
}

size_t RoverServer::ScrubStableStore() {
  const StableLog::ScrubReport report = stable_store_->ScrubWal();
  if (report.quarantined.empty()) {
    return 0;
  }
  // The in-memory image is intact; re-snapshot it so the quarantined
  // transactions' effects are re-covered by stable state. Skipped when a
  // handler is mid-transaction (same rule as MaybeCompact) -- the next
  // regular compaction closes the hole instead.
  if (pending_ops_.empty() && !stable_store_->CompactionInProgress()) {
    ++stats_.wal_compactions_forced;
    WriteSnapshot(nullptr);
  }
  return report.quarantined.size();
}

void RoverServer::RecordOp(ReplayOp op) {
  if (replaying_) {
    return;  // WAL replay must not re-journal itself
  }
  const auto* request = qrpc_->current_request();
  if (request != nullptr) {
    pending_ops_[*request].push_back(std::move(op));
    return;
  }
  // Mutation outside any RPC (direct CreateObject etc.): its own
  // single-op transaction, flushed best-effort.
  ServerTransaction txn;
  txn.ops.push_back(std::move(op));
  const uint64_t seq = stable_store_->LogTransaction(txn);
  if (replication_ != nullptr) {
    replication_->Ship(seq, stable_store_->epoch(), txn);
  }
  stable_store_->Flush(nullptr);
}

void RoverServer::ApplyReplicatedTransaction(const ServerTransaction& txn,
                                             std::function<void(const Status&)> done) {
  replaying_ = true;  // journal hooks must not re-log the shipped mutations
  for (const ReplayOp& op : txn.ops) {
    if (op.is_remove) {
      (void)store_.Remove(op.name);
      DropInstance(op.name);
    } else {
      store_.RestoreCommit(op.committed);
      DropInstance(op.committed.name);
    }
  }
  replaying_ = false;
  if (txn.has_response) {
    qrpc_->RestoreCachedResponse(txn.client, txn.rpc_id, txn.response);
  }
  stable_store_->LogTransaction(txn);
  stable_store_->Flush([weak = std::weak_ptr<char>(alive_),
                        done = std::move(done)](const Status& flushed) {
    if (weak.expired() || !done) {
      return;
    }
    done(flushed);
  });
  MaybeCompact();
}

void RoverServer::AdoptReplicatedSnapshot(Bytes object_image,
                                          std::vector<CachedResponseEntry> responses,
                                          std::function<void()> done) {
  replaying_ = true;
  if (!object_image.empty()) {
    Status loaded = store_.Load(object_image);
    if (!loaded.ok()) {
      ROVER_LOG(Warning) << "replicated snapshot load failed: " << loaded.message();
    }
  }
  replaying_ = false;
  for (CachedResponseEntry& entry : responses) {
    qrpc_->RestoreCachedResponse(std::move(entry.client), entry.rpc_id,
                                 std::move(entry.response));
  }
  instances_.clear();
  WriteSnapshot(std::move(done));
}

void RoverServer::MaybeCompact() {
  if (!stable_store_->NeedsCompaction()) {
    return;
  }
  // Compaction must not run while any RPC has applied mutations whose
  // transaction is not yet journaled (buffered in pending_ops_): the
  // snapshot would capture those mutations WITHOUT their duplicate-cache
  // responses, and a crash before the straggler's transaction flushes would
  // recover the mutation with no record that its RPC completed -- the
  // client's resend then re-executes it (double-apply). Defer; this is
  // re-checked at every subsequent response journal, and pending_ops_
  // drains as soon as the in-flight handlers respond.
  if (!pending_ops_.empty()) {
    return;
  }
  WriteSnapshot(nullptr);
}

void RoverServer::WriteSnapshot(std::function<void()> done) {
  stable_store_->WriteSnapshot(store_.Snapshot(), qrpc_->CachedResponses(), std::move(done));
}

void RoverServer::RestoreFromRecovery(const RecoveredServerState& recovered) {
  replaying_ = true;
  std::vector<std::pair<std::string, uint64_t>> survived;
  store_.Adopt(recovered.object_image);
  for (const CachedResponseEntry& entry : recovered.snapshot_responses) {
    qrpc_->RestoreCachedResponse(entry.client, entry.rpc_id, entry.response);
    survived.emplace_back(entry.client, entry.rpc_id);
  }
  for (const ServerTransaction& txn : recovered.wal) {
    for (const ReplayOp& op : txn.ops) {
      if (op.is_remove) {
        (void)store_.Remove(op.name);  // hooks suppressed by replaying_
      } else {
        store_.RestoreCommit(op.committed);
      }
    }
    if (txn.has_response) {
      qrpc_->RestoreCachedResponse(txn.client, txn.rpc_id, txn.response);
      survived.emplace_back(txn.client, txn.rpc_id);
    }
  }
  replaying_ = false;
  qrpc_->set_epoch(recovered.epoch);
  // Volatile by design: live instances, subscriptions, half-built
  // transactions, delivery failure counts.
  instances_.clear();
  subscribers_.clear();
  pending_ops_.clear();
  invalidation_failures_.clear();
  if (check_ != nullptr) {
    check_->OnServerRecovered(transport_->local_host(), recovered.epoch, survived);
  }
}

void RoverServer::RegisterMethods() {
  auto bind = [this](void (RoverServer::*method)(const RpcRequestBody&, const Message&,
                                                 QrpcServer::Responder)) {
    return [this, method](const RpcRequestBody& req, const Message& envelope,
                          QrpcServer::Responder respond) {
      (this->*method)(req, envelope, std::move(respond));
    };
  };
  qrpc_->RegisterHandler("rover.import", bind(&RoverServer::HandleImport));
  qrpc_->RegisterHandler("rover.export", bind(&RoverServer::HandleExport));
  qrpc_->RegisterHandler("rover.invoke", bind(&RoverServer::HandleInvoke));
  qrpc_->RegisterHandler("rover.create", bind(&RoverServer::HandleCreate));
  qrpc_->RegisterHandler("rover.list", bind(&RoverServer::HandleList));
  qrpc_->RegisterHandler("rover.version", bind(&RoverServer::HandleVersion));
  qrpc_->RegisterHandler("rover.subscribe", bind(&RoverServer::HandleSubscribe));
  qrpc_->RegisterHandler("rover.unsubscribe", bind(&RoverServer::HandleUnsubscribe));
  qrpc_->RegisterHandler("rover.poll", bind(&RoverServer::HandlePoll));
}

Status RoverServer::CreateObject(const RdoDescriptor& descriptor) {
  return store_.Create(descriptor);
}

void RoverServer::HandleImport(const RpcRequestBody& req, const Message& envelope,
                               QrpcServer::Responder respond) {
  ++stats_.imports;
  if (req.args.empty() || req.args.size() > 2) {
    respond(ErrorResponse(
        InvalidArgumentError("rover.import expects [name] or [name, cached_version]")));
    return;
  }
  auto name = RpcValueAsString(req.args[0]);
  if (!name.ok()) {
    respond(ErrorResponse(name.status()));
    return;
  }
  auto descriptor = store_.Get(*name);
  if (!descriptor.ok()) {
    respond(ErrorResponse(descriptor.status()));
    return;
  }
  if (req.args.size() == 1) {
    // Full fetch (no cached image, or a failed delta): the bare encoded
    // descriptor, no wrapper.
    respond(ValueResponse(descriptor->Encode()));
    return;
  }
  // Delta negotiation: the client told us which version it already holds.
  auto cached = RpcValueAsInt(req.args[1]);
  if (!cached.ok()) {
    respond(ErrorResponse(InvalidArgumentError("rover.import: bad cached_version")));
    return;
  }
  const uint64_t cached_version = static_cast<uint64_t>(*cached);
  const Bytes full = descriptor->Encode();
  WireWriter reply;
  if (cached_version == descriptor->version) {
    reply.WriteVarint(static_cast<uint64_t>(ImportReplyKind::kNotModified));
    reply.WriteVarint(descriptor->version);
    ++stats_.imports_not_modified;
    stats_.delta_bytes_saved += full.size();
    respond(ValueResponse(reply.TakeData()));
    return;
  }
  // The store journals a bounded version history; if the client's version
  // is still in it, encode the new bytes against that base.
  auto base = store_.GetVersion(*name, cached_version);
  if (base.ok()) {
    Bytes delta = DeltaEncode(base->Encode(), full);
    if (delta.size() < full.size()) {
      reply.WriteVarint(static_cast<uint64_t>(ImportReplyKind::kDelta));
      reply.WriteVarint(cached_version);
      reply.WriteBytes(delta);
      ++stats_.deltas_sent;
      stats_.delta_bytes_saved += full.size() - delta.size();
      respond(ValueResponse(reply.TakeData()));
      return;
    }
  }
  // Version aged out of the history (or the delta did not shrink anything):
  // ship the whole object, wrapped so the client decodes uniformly.
  reply.WriteVarint(static_cast<uint64_t>(ImportReplyKind::kFull));
  reply.WriteBytes(full);
  respond(ValueResponse(reply.TakeData()));
}

void RoverServer::HandleExport(const RpcRequestBody& req, const Message& envelope,
                               QrpcServer::Responder respond) {
  ++stats_.exports;
  if (req.args.size() != 2) {
    respond(ErrorResponse(
        InvalidArgumentError("rover.export expects [descriptor, base_version]")));
    return;
  }
  auto bytes = RpcValueAsBytes(req.args[0]);
  auto base = RpcValueAsInt(req.args[1]);
  if (!bytes.ok() || !base.ok()) {
    respond(ErrorResponse(InvalidArgumentError("rover.export: bad argument types")));
    return;
  }
  auto proposed = RdoDescriptor::Decode(*bytes);
  if (!proposed.ok()) {
    respond(ErrorResponse(proposed.status()));
    return;
  }
  auto outcome = store_.ApplyExport(*proposed, static_cast<uint64_t>(*base), resolvers_);
  if (!outcome.ok()) {
    RpcResponseBody body = ErrorResponse(outcome.status());
    // On conflict, ship the committed descriptor so the client can
    // reconcile without another round trip.
    if (outcome.status().code() == StatusCode::kConflict) {
      auto committed = store_.Get(proposed->name);
      if (committed.ok()) {
        body.result = committed->Encode();
      }
    }
    respond(body);
    return;
  }
  DropInstance(proposed->name);
  NotifySubscribers(proposed->name, outcome->new_version, envelope.header.src);
  // Response payload: was_conflict flag + the now-committed descriptor
  // (whose data may be a resolver's merge of concurrent updates).
  WireWriter writer;
  writer.WriteBool(outcome->was_conflict);
  writer.WriteBytes(outcome->committed.Encode());
  respond(ValueResponse(writer.TakeData()));
}

Result<RdoInstance*> RoverServer::InstanceFor(const std::string& name) {
  ROVER_ASSIGN_OR_RETURN(RdoDescriptor descriptor, store_.Get(name));
  auto it = instances_.find(name);
  if (it != instances_.end() && it->second->base_version() == descriptor.version) {
    return it->second.get();
  }
  RdoEnvironment env;
  env.host_name = transport_->local_host();
  env.now = [loop = loop_] { return loop->now(); };
  env.log = [](const std::string& line) { ROVER_LOG(Debug) << "rdo: " << line; };
  ROVER_ASSIGN_OR_RETURN(auto instance,
                         RdoInstance::Create(descriptor, env, options_.rdo_limits));
  if (instances_.size() >= options_.instance_cache_max) {
    instances_.clear();  // simple wholesale eviction; instances rebuild cheaply
  }
  RdoInstance* raw = instance.get();
  instances_[name] = std::move(instance);
  return raw;
}

void RoverServer::DropInstance(const std::string& name) { instances_.erase(name); }

void RoverServer::HandleInvoke(const RpcRequestBody& req, const Message& envelope,
                               QrpcServer::Responder respond) {
  ++stats_.invokes;
  if (req.args.size() != 3) {
    respond(ErrorResponse(
        InvalidArgumentError("rover.invoke expects [name, method, argsList]")));
    return;
  }
  auto name = RpcValueAsString(req.args[0]);
  auto method = RpcValueAsString(req.args[1]);
  auto args_list = RpcValueAsString(req.args[2]);
  if (!name.ok() || !method.ok() || !args_list.ok()) {
    respond(ErrorResponse(InvalidArgumentError("rover.invoke: bad argument types")));
    return;
  }
  auto instance = InstanceFor(*name);
  if (!instance.ok()) {
    respond(ErrorResponse(instance.status()));
    return;
  }
  auto method_args = TclListSplit(*args_list);
  if (!method_args.ok()) {
    respond(ErrorResponse(method_args.status()));
    return;
  }
  auto result = (*instance)->Invoke(*method, *method_args);
  if (!result.ok()) {
    respond(ErrorResponse(result.status()));
    return;
  }

  // Read before the commit path below: DropInstance frees the instance.
  const uint64_t command_count = (*instance)->last_invoke_commands();
  uint64_t version = (*instance)->base_version();
  if ((*instance)->dirty()) {
    // Commit the mutated state; the server is the authority, so this is an
    // unconditional Put.
    RdoDescriptor snapshot = (*instance)->Snapshot();
    auto new_version = store_.Put(snapshot);
    if (!new_version.ok()) {
      respond(ErrorResponse(new_version.status()));
      return;
    }
    version = *new_version;
    // Refresh the cached instance's notion of its base version.
    DropInstance(*name);
    NotifySubscribers(*name, version, envelope.header.src);
  }

  // Charge simulated CPU for the interpreted execution, then respond.
  const Duration cost =
      options_.rdo_costs.load_fixed +
      options_.rdo_costs.per_command * static_cast<double>(command_count);
  const std::string value = *result;
  loop_->ScheduleAfter(cost, [respond = std::move(respond), value, version] {
    RpcResponseBody body;
    body.result = value;
    // Version rides in the error_message-free response via a second arg?
    // Keep it simple: result is the method result; clients needing the
    // version use rover.version or the next import.
    respond(body);
  });
}

void RoverServer::HandleCreate(const RpcRequestBody& req, const Message& envelope,
                               QrpcServer::Responder respond) {
  if (req.args.size() != 1) {
    respond(ErrorResponse(InvalidArgumentError("rover.create expects [descriptor]")));
    return;
  }
  auto bytes = RpcValueAsBytes(req.args[0]);
  if (!bytes.ok()) {
    respond(ErrorResponse(bytes.status()));
    return;
  }
  auto descriptor = RdoDescriptor::Decode(*bytes);
  if (!descriptor.ok()) {
    respond(ErrorResponse(descriptor.status()));
    return;
  }
  Status status = store_.Create(*descriptor);
  if (!status.ok()) {
    respond(ErrorResponse(status));
    return;
  }
  respond(ValueResponse(int64_t{1}));
}

void RoverServer::HandleList(const RpcRequestBody& req, const Message& envelope,
                             QrpcServer::Responder respond) {
  std::string prefix;
  if (!req.args.empty()) {
    auto p = RpcValueAsString(req.args[0]);
    if (p.ok()) {
      prefix = *p;
    }
  }
  respond(ValueResponse(TclListJoin(store_.List(prefix))));
}

void RoverServer::HandleVersion(const RpcRequestBody& req, const Message& envelope,
                                QrpcServer::Responder respond) {
  if (req.args.size() != 1) {
    respond(ErrorResponse(InvalidArgumentError("rover.version expects [name]")));
    return;
  }
  auto name = RpcValueAsString(req.args[0]);
  if (!name.ok()) {
    respond(ErrorResponse(name.status()));
    return;
  }
  auto version = store_.VersionOf(*name);
  if (!version.ok()) {
    respond(ErrorResponse(version.status()));
    return;
  }
  respond(ValueResponse(static_cast<int64_t>(*version)));
}

void RoverServer::HandleSubscribe(const RpcRequestBody& req, const Message& envelope,
                                  QrpcServer::Responder respond) {
  if (req.args.size() != 1) {
    respond(ErrorResponse(InvalidArgumentError("rover.subscribe expects [name]")));
    return;
  }
  auto name = RpcValueAsString(req.args[0]);
  if (!name.ok()) {
    respond(ErrorResponse(name.status()));
    return;
  }
  subscribers_[*name].insert(envelope.header.src);
  respond(ValueResponse(int64_t{1}));
}

void RoverServer::HandleUnsubscribe(const RpcRequestBody& req, const Message& envelope,
                                    QrpcServer::Responder respond) {
  if (req.args.size() != 1) {
    respond(ErrorResponse(InvalidArgumentError("rover.unsubscribe expects [name]")));
    return;
  }
  auto name = RpcValueAsString(req.args[0]);
  if (!name.ok()) {
    respond(ErrorResponse(name.status()));
    return;
  }
  auto it = subscribers_.find(*name);
  if (it != subscribers_.end()) {
    it->second.erase(envelope.header.src);
    if (it->second.empty()) {
      subscribers_.erase(it);
    }
  }
  ++stats_.unsubscribes;
  respond(ValueResponse(int64_t{1}));
}

void RoverServer::HandlePoll(const RpcRequestBody& req, const Message& envelope,
                             QrpcServer::Responder respond) {
  // args: [TclList of object paths] -> TclList of committed versions
  // (0 for unknown objects). Clients use this to detect stale cache
  // entries when subscriptions are off ("periodic polling or server
  // callbacks", paper S3.1).
  if (req.args.size() != 1) {
    respond(ErrorResponse(InvalidArgumentError("rover.poll expects [names]")));
    return;
  }
  auto names_list = RpcValueAsString(req.args[0]);
  if (!names_list.ok()) {
    respond(ErrorResponse(names_list.status()));
    return;
  }
  auto names = TclListSplit(*names_list);
  if (!names.ok()) {
    respond(ErrorResponse(names.status()));
    return;
  }
  std::vector<std::string> versions;
  versions.reserve(names->size());
  for (const std::string& name : *names) {
    auto v = store_.VersionOf(name);
    versions.push_back(std::to_string(v.ok() ? *v : 0));
  }
  respond(ValueResponse(TclListJoin(versions)));
}

void RoverServer::NotifySubscribers(const std::string& name, uint64_t version,
                                    const std::string& except_host) {
  if (subscribers_.find(name) == subscribers_.end()) {
    return;
  }
  // Coalesce: several commits to one object at the same virtual instant
  // produce one invalidation per subscriber, carrying the latest version.
  PendingInvalidation& pending = pending_invalidations_[name];
  pending.version = std::max(pending.version, version);
  pending.except_host = except_host;
  if (invalidation_flush_armed_) {
    return;
  }
  invalidation_flush_armed_ = true;
  loop_->ScheduleAfter(Duration::Zero(),
                       [this, weak = std::weak_ptr<char>(alive_)] {
                         if (weak.expired()) {
                           return;  // server crashed before the flush ran
                         }
                         FlushInvalidations();
                       });
}

void RoverServer::FlushInvalidations() {
  obs::CpuScope cpu(obs::CpuZone::kInvalidationFanout);
  invalidation_flush_armed_ = false;
  // Swap out: a delivered callback (or re-entrant commit) may add new
  // pending invalidations, which belong to the NEXT flush.
  std::map<std::string, PendingInvalidation> batch;
  batch.swap(pending_invalidations_);
  for (const auto& [name, pending] : batch) {
    auto it = subscribers_.find(name);
    if (it == subscribers_.end()) {
      continue;  // last subscriber left while the flush was queued
    }
    // Encode once; every subscriber's message shares the storage.
    const Buffer payload{EncodeInvalidation(name, pending.version)};
    for (const std::string& host : it->second) {
      if (host == pending.except_host) {
        continue;  // the exporter already knows
      }
      Message msg;
      msg.header.type = MessageType::kControl;
      msg.header.priority = Priority::kBackground;
      msg.header.dst = host;
      msg.payload = payload;  // refcount bump, not a copy
      NetworkScheduler::DeliveredCallback delivered;
      if (options_.invalidation_ttl > Duration::Zero()) {
        delivered = [this, weak = std::weak_ptr<char>(alive_), host](const Status& status) {
          if (weak.expired()) {
            return;  // server crashed while the invalidation was queued
          }
          OnInvalidationDelivered(host, status);
        };
      }
      transport_->Send(std::move(msg), std::move(delivered), options_.invalidation_ttl);
      ++stats_.invalidations_sent;
    }
  }
}

void RoverServer::OnInvalidationDelivered(const std::string& host, const Status& status) {
  if (status.ok()) {
    invalidation_failures_.erase(host);
    return;
  }
  if (status.code() != StatusCode::kDeadlineExceeded) {
    return;  // cancelled for another reason; not evidence the host is gone
  }
  ++stats_.invalidations_expired;
  size_t& failures = invalidation_failures_[host];
  ++failures;
  if (options_.subscriber_drop_after_failures > 0 &&
      failures >= options_.subscriber_drop_after_failures) {
    DropSubscriber(host);
    invalidation_failures_.erase(host);
    ++stats_.subscribers_dropped;
  }
}

void RoverServer::DropSubscriber(const std::string& host) {
  for (auto it = subscribers_.begin(); it != subscribers_.end();) {
    it->second.erase(host);
    if (it->second.empty()) {
      it = subscribers_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace rover

#include "src/cache/access_manager.h"

#include <algorithm>
#include <utility>

#include "src/tclite/value.h"
#include "src/util/delta.h"
#include "src/util/logging.h"

namespace rover {

std::string FormatQueueStatus(const QueueStatus& status) {
  std::string out = status.connected ? "connected" : "DISCONNECTED";
  if (status.queued_qrpcs == 0) {
    out += " | 0 queued";
  } else {
    out += " | " + std::to_string(status.queued_qrpcs) + " ops queued";
  }
  if (status.tentative_objects == 0) {
    out += " | all committed";
  } else {
    out += " | " + std::to_string(status.tentative_objects) + " tentative objects";
  }
  if (status.degraded) {
    out += " | DEGRADED";
  }
  if (status.storage_degraded) {
    out += " | STORAGE FULL";
  }
  return out;
}

AccessManager::AccessManager(EventLoop* loop, TransportManager* transport,
                             QrpcClient* qrpc, obs::Registry* metrics,
                             AccessManagerOptions options)
    : loop_(loop), transport_(transport), qrpc_(qrpc), options_(std::move(options)),
      c_cache_hits_(metrics->counter("access_manager.cache_hits")),
      c_cache_misses_(metrics->counter("access_manager.cache_misses")),
      c_imports_completed_(metrics->counter("access_manager.imports_completed")),
      c_exports_completed_(metrics->counter("access_manager.exports_completed")),
      c_local_invokes_(metrics->counter("access_manager.local_invokes")),
      c_remote_invokes_(metrics->counter("access_manager.remote_invokes")),
      c_evictions_(metrics->counter("access_manager.evictions")),
      c_invalidations_received_(metrics->counter("access_manager.invalidations_received")),
      c_polls_sent_(metrics->counter("access_manager.polls_sent")),
      c_poll_staleness_detected_(metrics->counter("access_manager.poll_staleness_detected")),
      c_conflicts_resolved_(metrics->counter("access_manager.conflicts_resolved")),
      c_conflicts_unresolved_(metrics->counter("access_manager.conflicts_unresolved")),
      c_prefetch_issued_(metrics->counter("access_manager.prefetch_issued")),
      c_server_restarts_observed_(metrics->counter("access_manager.server_restarts_observed")),
      c_prefetches_shed_(metrics->counter("access_manager.prefetches_shed")),
      c_degraded_entered_(metrics->counter("access_manager.degraded_entered")),
      c_cache_overflow_events_(metrics->counter("access_manager.cache_overflow_events")),
      c_delta_hits_(metrics->counter("access_manager.delta_hits")),
      c_delta_full_(metrics->counter("access_manager.delta_full")),
      c_delta_not_modified_(metrics->counter("access_manager.delta_not_modified")),
      c_delta_fallbacks_(metrics->counter("access_manager.delta_fallbacks")),
      c_delta_bytes_saved_(metrics->counter("access_manager.delta_bytes_saved")),
      c_storage_stale_marks_(metrics->counter("access_manager.storage_stale_marks")),
      g_degraded_(metrics->gauge("access_manager.degraded")),
      g_cache_overflow_bytes_(metrics->gauge("access_manager.cache_overflow_bytes")) {
  // Gauges first: a manager rebuilt after a crash must not show the previous
  // incarnation's values, and the observers wired below can fire them.
  g_degraded_->Set(0);
  UpdateOverflowGauge();
  transport_->SetHandler(MessageType::kControl,
                         [this](const Message& msg) { HandleControl(msg); });
  transport_->scheduler()->SetQueueObserver([this](size_t) { NotifyStatus(); });
  qrpc_->SetEpochObserver([this](const std::string& server, uint64_t epoch) {
    OnServerRestart(server, epoch);
  });
  if (!options_.poll_interval.is_zero()) {
    SchedulePoll();
  }
}

void AccessManager::SchedulePoll() {
  loop_->ScheduleAfter(options_.poll_interval,
                       [this, weak = std::weak_ptr<char>(alive_)] {
    if (weak.expired()) {
      return;  // manager destroyed (simulated crash) with the timer pending
    }
    RunPoll();
    SchedulePoll();
  });
}

void AccessManager::RunPoll() {
  // Group cached object paths by home server; one rover.poll per server.
  std::map<std::string, std::vector<std::string>> by_server;   // server -> paths
  std::map<std::string, std::vector<std::string>> keys_order;  // server -> cache keys
  for (const auto& [key, entry] : cache_) {
    if (entry.stale) {
      continue;  // already known stale
    }
    const RoverUrn urn = Resolve(key);
    if (!ConnectedTo(urn.server)) {
      continue;  // polling while disconnected would just queue traffic
    }
    by_server[urn.server].push_back(urn.path);
    keys_order[urn.server].push_back(key);
  }
  for (const auto& [server, paths] : by_server) {
    c_polls_sent_->Increment();
    // Best-effort; the next poll repeats it. A newer poll covers everything
    // an unsent older one would, so it supersedes it in the queue.
    QrpcCallOptions poll_opts = MakeCallOptions(Priority::kBackground, false);
    poll_opts.supersede_key = "poll:" + server;
    QrpcCall call = qrpc_->Call(server, "rover.poll", {TclListJoin(paths)},
                                poll_opts);
    const std::vector<std::string> keys = keys_order[server];
    call.result.OnReady([this, keys](const QrpcResult& rpc) {
      if (!rpc.status.ok()) {
        return;
      }
      auto versions_list = RpcValueAsString(rpc.value);
      if (!versions_list.ok()) {
        return;
      }
      auto versions = TclListSplit(*versions_list);
      if (!versions.ok() || versions->size() != keys.size()) {
        return;
      }
      for (size_t i = 0; i < keys.size(); ++i) {
        Entry* entry = FindEntry(keys[i]);
        if (entry == nullptr) {
          continue;  // evicted meanwhile
        }
        const uint64_t server_version =
            static_cast<uint64_t>(TclParseInt((*versions)[i]).value_or(0));
        if (server_version > entry->committed.version) {
          entry->stale = true;
          c_poll_staleness_detected_->Increment();
        }
      }
    });
  }
}

double AccessManager::BestBandwidthBps() const {
  return BestBandwidthBpsTo(options_.server_host);
}

double AccessManager::BestBandwidthBpsTo(const std::string& server) const {
  double best = 0.0;
  for (Link* link : transport_->host()->LinksTo(server)) {
    if (link->IsUp()) {
      best = std::max(best, link->profile().bandwidth_bps);
    }
  }
  return best;
}

bool AccessManager::Connected() const { return ConnectedTo(options_.server_host); }

bool AccessManager::ConnectedTo(const std::string& server) const {
  return transport_->host()->CanReach(server);
}

RoverUrn AccessManager::Resolve(const std::string& name) const {
  return ResolveObjectName(name, options_.server_host);
}

std::string AccessManager::ServerFor(const std::string& name) const {
  return Resolve(name).server;
}

QrpcCallOptions AccessManager::MakeCallOptions(Priority priority, bool log_request) const {
  QrpcCallOptions options;
  options.priority = priority;
  options.log_request = log_request;
  if (!options_.relay_host.empty()) {
    options.via_relay = true;
    options.relay_host = options_.relay_host;
  }
  return options;
}

AccessManager::Entry* AccessManager::FindEntry(const std::string& name) {
  auto it = cache_.find(name);
  return it == cache_.end() ? nullptr : &it->second;
}

const AccessManager::Entry* AccessManager::FindEntry(const std::string& name) const {
  auto it = cache_.find(name);
  return it == cache_.end() ? nullptr : &it->second;
}

void AccessManager::Touch(Entry* entry) { entry->last_use_seq = ++use_seq_; }

bool AccessManager::HasCached(const std::string& name) const {
  return FindEntry(name) != nullptr;
}

bool AccessManager::IsTentative(const std::string& name) const {
  const Entry* entry = FindEntry(name);
  return entry != nullptr && entry->tentative;
}

size_t AccessManager::TentativeCount() const {
  size_t n = 0;
  for (const auto& [name, entry] : cache_) {
    if (entry.tentative) {
      ++n;
    }
  }
  return n;
}

Result<std::string> AccessManager::ReadData(const std::string& name) const {
  const Entry* entry = FindEntry(name);
  if (entry == nullptr) {
    return NotFoundError("object \"" + name + "\" not in cache");
  }
  return entry->instance->ReadState();
}

Result<std::string> AccessManager::ReadCommittedData(const std::string& name) const {
  const Entry* entry = FindEntry(name);
  if (entry == nullptr) {
    return NotFoundError("object \"" + name + "\" not in cache");
  }
  return entry->committed.data;
}

Result<uint64_t> AccessManager::CachedVersion(const std::string& name) const {
  const Entry* entry = FindEntry(name);
  if (entry == nullptr) {
    return NotFoundError("object \"" + name + "\" not in cache");
  }
  return entry->committed.version;
}

void AccessManager::Evict(const std::string& name) {
  auto it = cache_.find(name);
  if (it == cache_.end()) {
    return;
  }
  cache_bytes_ -= it->second.bytes;
  cache_.erase(it);
  UpdateOverflowGauge();
  if (subscribed_.erase(name) > 0) {
    // Tell the server to stop invalidating us for an object we no longer
    // hold; best-effort and unlogged (a lost unsubscribe only costs the
    // server a few wasted invalidations until its GC drops us).
    const RoverUrn urn = Resolve(name);
    qrpc_->Call(urn.server, "rover.unsubscribe", {urn.path},
                MakeCallOptions(Priority::kBackground, /*log_request=*/false));
  }
}

size_t AccessManager::MarkAllImportsStale() {
  size_t marked = 0;
  for (auto& [name, entry] : cache_) {
    if (!entry.stale) {
      entry.stale = true;
      ++marked;
    }
  }
  if (marked > 0) {
    c_storage_stale_marks_->Increment(marked);
  }
  return marked;
}

bool AccessManager::CorruptImportImageForTest(const std::string& name) {
  Entry* entry = FindEntry(name);
  if (entry == nullptr || entry->import_image.empty()) {
    return false;
  }
  for (size_t i = 0; i < entry->import_image.size(); i += 7) {
    entry->import_image[i] ^= 0x5a;
  }
  return true;
}

void AccessManager::SetStatusCallback(StatusCallback callback) {
  status_callback_ = std::move(callback);
  NotifyStatus();
}

void AccessManager::UpdateDegraded(size_t queue_depth) {
  if (options_.degraded_queue_depth == 0) {
    return;
  }
  if (!degraded_ && queue_depth >= options_.degraded_queue_depth) {
    degraded_ = true;
    c_degraded_entered_->Increment();
    g_degraded_->Set(1);
    if (!prefetch_queue_.empty()) {
      c_prefetches_shed_->Increment(prefetch_queue_.size());
      prefetch_queue_.clear();
    }
    ROVER_LOG(Warning) << "access manager degraded: scheduler depth "
                       << queue_depth << " >= " << options_.degraded_queue_depth
                       << "; shedding prefetches (tentative ops still queue)";
  } else if (degraded_ && queue_depth <= options_.degraded_queue_depth / 2) {
    // Hysteresis: recover only once the backlog has clearly drained, so a
    // depth oscillating around the threshold does not flap the mode.
    degraded_ = false;
    g_degraded_->Set(0);
    ROVER_LOG(Info) << "access manager recovered from degraded mode"
                    << " (scheduler depth " << queue_depth << ")";
  }
}

void AccessManager::NotifyStatus() {
  const size_t depth = transport_->scheduler()->TotalQueueDepth();
  UpdateDegraded(depth);
  if (depth == 0 && !prefetch_queue_.empty()) {
    // The link went idle; spend it on cache warming.
    loop_->ScheduleAfter(Duration::Zero(), [this, weak = std::weak_ptr<char>(alive_)] {
      if (!weak.expired()) {
        PumpPrefetchQueue();
      }
    });
  }
  if (!status_callback_) {
    return;
  }
  QueueStatus status;
  status.queued_qrpcs = depth;
  status.tentative_objects = TentativeCount();
  status.connected = Connected();
  status.degraded = degraded_;
  status.storage_degraded = qrpc_->StorageDegraded();
  status_callback_(status);
}

// --- Import ---

Promise<ImportResult> AccessManager::Import(const std::string& name, ImportOptions options) {
  Promise<ImportResult> promise;
  if (options.session != nullptr) {
    Session* session = options.session;
    promise.OnReady([session](const ImportResult& r) {
      if (r.status.ok()) {
        session->RecordRead(r.name, r.version);
      }
    });
  }

  Entry* entry = FindEntry(name);
  const uint64_t required =
      options.session != nullptr ? options.session->RequiredVersion(name) : 0;
  // A stale (invalidated) entry is still better than nothing while the
  // home server is unreachable: serve it rather than queueing a refetch
  // the caller may wait hours for -- availability over freshness, the
  // toolkit's defining trade (tentative-data semantics, paper S3.1).
  const bool serve_stale_offline =
      entry != nullptr && entry->stale && !ConnectedTo(Resolve(name).server);
  if (entry != nullptr && options.allow_cached &&
      (!entry->stale || serve_stale_offline) && entry->committed.version >= required) {
    c_cache_hits_->Increment();
    Touch(entry);
    if (options.pin) {
      entry->pinned = true;
    }
    ImportResult result;
    result.status = Status::Ok();
    result.name = name;
    result.version = entry->committed.version;
    result.from_cache = true;
    if (check_ != nullptr && options.session != nullptr) {
      check_->OnSessionImportServed(transport_->local_host(), name,
                                    entry->committed.version, required, true);
    }
    loop_->ScheduleAfter(Duration::Zero(),
                         [this, weak = std::weak_ptr<char>(alive_), promise,
                          result]() mutable {
      if (weak.expired()) {
        return;
      }
      result.completed_at = loop_->now();
      promise.Set(result);
    });
    return promise;
  }

  c_cache_misses_->Increment();
  auto [it, first] = pending_imports_.try_emplace(name);
  ImportWaiter waiter;
  waiter.promise = promise;
  waiter.required = required;
  waiter.has_session = options.session != nullptr;
  it->second.waiters.push_back(std::move(waiter));
  if (required > it->second.required_version) {
    it->second.required_version = required;
  }
  if (options.pin) {
    it->second.pin = true;
  }
  if (first) {
    it->second.priority = options.priority;
    StartImportRpc(name, options.priority);
  } else if (options.priority < it->second.priority) {
    // Escalate: re-request at the higher priority rather than letting a
    // user wait behind prefetch traffic.
    it->second.priority = options.priority;
    StartImportRpc(name, options.priority);
  }
  return promise;
}

void AccessManager::StartImportRpc(const std::string& name, Priority priority,
                                   bool allow_delta) {
  const RoverUrn urn = Resolve(name);
  Entry* cached = FindEntry(name);
  // With a cached server image, send its version and accept a delta reply.
  const bool want_delta = options_.delta_imports && allow_delta &&
                          cached != nullptr && !cached->import_image.empty();
  QrpcCallOptions copts = MakeCallOptions(priority);
  // Re-requests of the same object (priority escalations, repeated stale
  // refreshes) supersede any not-yet-transmitted predecessor import.
  copts.supersede_key = "import:" + urn.path;
  QrpcCall call =
      want_delta
          ? qrpc_->Call(urn.server, "rover.import",
                        {urn.path,
                         static_cast<int64_t>(cached->committed.version)},
                        copts)
          : qrpc_->Call(urn.server, "rover.import", {urn.path}, copts);
  latest_import_rpc_[name] = call.rpc_id;
  const uint64_t my_rpc = call.rpc_id;
  call.result.OnReady([this, name, my_rpc, want_delta,
                       priority](const QrpcResult& rpc) {
    auto latest = latest_import_rpc_.find(name);
    if (latest == latest_import_rpc_.end() || latest->second != my_rpc) {
      // Superseded (this promise was chained to the newest rpc's result) or
      // a priority escalation re-requested the object: the newest rpc's own
      // handler drives the install, with the decode rules of the request it
      // actually sent.
      return;
    }
    ImportResult result;
    result.name = name;
    result.completed_at = loop_->now();
    if (!rpc.status.ok()) {
      result.status = rpc.status;
      FinishImport(name, result);
      return;
    }
    auto bytes = RpcValueAsBytes(rpc.value);
    if (!bytes.ok()) {
      result.status = bytes.status();
      FinishImport(name, result);
      return;
    }

    // The one-argument form replies with the bare encoded descriptor; the
    // two-argument (delta) form wraps the reply in an ImportReplyKind.
    Bytes full;
    if (!want_delta) {
      full = std::move(*bytes);
    } else {
      WireReader reader(*bytes);
      auto kind = reader.ReadVarint();
      if (!kind.ok()) {
        result.status = kind.status();
        FinishImport(name, result);
        return;
      }
      switch (static_cast<ImportReplyKind>(*kind)) {
        case ImportReplyKind::kNotModified: {
          auto version = reader.ReadVarint();
          Entry* entry = FindEntry(name);
          auto pending = pending_imports_.find(name);
          const uint64_t floor = pending != pending_imports_.end()
                                     ? pending->second.required_version
                                     : 0;
          if (!version.ok() || entry == nullptr ||
              entry->committed.version != *version ||
              entry->committed.version < floor) {
            // The entry changed (or vanished) while the rpc was in flight,
            // or a session waiter needs a newer version than the one the
            // server just confirmed (its state may predate an export the
            // session saw committed elsewhere); the cached copy cannot
            // answer this import.
            c_delta_fallbacks_->Increment();
            StartImportRpc(name, priority, /*allow_delta=*/false);
            return;
          }
          c_delta_not_modified_->Increment();
          c_delta_bytes_saved_->Increment(entry->import_image.size());
          entry->stale = false;
          Touch(entry);
          if (pending != pending_imports_.end() && pending->second.pin) {
            entry->pinned = true;
          }
          result.status = Status::Ok();
          result.version = entry->committed.version;
          FinishImport(name, result);
          return;
        }
        case ImportReplyKind::kDelta: {
          auto base = reader.ReadVarint();
          auto delta = reader.ReadBytes();
          Entry* entry = FindEntry(name);
          Result<Bytes> applied = DataLossError("malformed delta import reply");
          if (base.ok() && delta.ok()) {
            if (entry == nullptr || entry->committed.version != *base ||
                entry->import_image.empty()) {
              applied = FailedPreconditionError("delta base no longer cached");
            } else {
              applied = DeltaApply(entry->import_image, *delta);
            }
          }
          if (!applied.ok()) {
            // Wrong base, corrupt image, or mangled delta: never install a
            // suspect object. Drop the image and re-fetch the full body.
            if (entry != nullptr) {
              entry->import_image.clear();
            }
            c_delta_fallbacks_->Increment();
            StartImportRpc(name, priority, /*allow_delta=*/false);
            return;
          }
          c_delta_hits_->Increment();
          if (applied->size() > delta->size()) {
            c_delta_bytes_saved_->Increment(applied->size() - delta->size());
          }
          full = std::move(*applied);
          break;
        }
        case ImportReplyKind::kFull: {
          auto body = reader.ReadBytes();
          if (!body.ok()) {
            result.status = body.status();
            FinishImport(name, result);
            return;
          }
          c_delta_full_->Increment();
          full = std::move(*body);
          break;
        }
        default:
          result.status = DataLossError("unknown import reply kind");
          FinishImport(name, result);
          return;
      }
    }

    auto descriptor = RdoDescriptor::Decode(full);
    if (!descriptor.ok()) {
      result.status = descriptor.status();
      FinishImport(name, result);
      return;
    }
    // Cache under the caller's name (which may be a URN); the descriptor
    // keeps the server-side path for exports.
    RdoDescriptor keyed = *descriptor;
    keyed.name = name;
    keyed.metadata["rover.path"] = descriptor->name;
    const uint64_t version = descriptor->version;
    auto pending = pending_imports_.find(name);
    const bool pin = pending != pending_imports_.end() && pending->second.pin;
    auto image = std::make_shared<Bytes>(std::move(full));
    InstallDescriptor(keyed, pin, [this, name, version, image](const Status& s) {
      if (s.ok()) {
        Entry* entry = FindEntry(name);
        if (entry != nullptr && entry->committed.version == version) {
          // The exact server-encoded bytes of this version: the delta base
          // for the next re-fetch.
          entry->import_image = std::move(*image);
        }
      }
      ImportResult r;
      r.name = name;
      r.status = s;
      r.version = version;
      r.completed_at = loop_->now();
      FinishImport(name, r);
      if (s.ok() && options_.subscribe_on_import) {
        const RoverUrn sub_urn = Resolve(name);
        // Best-effort; re-subscribes on refetch and on server restart.
        subscribed_.insert(name);
        qrpc_->Call(sub_urn.server, "rover.subscribe", {sub_urn.path},
                    MakeCallOptions(Priority::kBackground, /*log_request=*/false));
      }
    });
  });
}

void AccessManager::InstallDescriptor(const RdoDescriptor& descriptor, bool pin,
                                      std::function<void(const Status&)> done) {
  Entry* existing = FindEntry(descriptor.name);
  if (existing != nullptr && existing->tentative) {
    // Never clobber local uncommitted work: refresh the committed view
    // only. base_version intentionally keeps pointing at the version the
    // tentative state diverged from.
    existing->committed = descriptor;
    existing->stale = false;
    Touch(existing);
    loop_->ScheduleAfter(Duration::Zero(), [done] { done(Status::Ok()); });
    return;
  }

  RdoEnvironment env;
  env.host_name = transport_->local_host();
  env.now = [loop = loop_] { return loop->now(); };
  env.log = [](const std::string& line) { ROVER_LOG(Debug) << "rdo: " << line; };
  auto instance = RdoInstance::Create(descriptor, env, options_.rdo_limits);
  if (!instance.ok()) {
    const Status status = instance.status();
    loop_->ScheduleAfter(Duration::Zero(), [done, status] { done(status); });
    return;
  }

  // Charge the interpreter-load CPU cost before the object is usable.
  const Duration cost = options_.rdo_costs.load_fixed;
  auto instance_ptr = std::make_shared<std::unique_ptr<RdoInstance>>(std::move(*instance));
  loop_->ScheduleAfter(cost, [this, weak = std::weak_ptr<char>(alive_), descriptor, pin,
                              instance_ptr, done] {
    if (weak.expired()) {
      return;  // manager destroyed while the install cost was charging
    }
    Entry* entry = FindEntry(descriptor.name);
    if (entry != nullptr) {
      cache_bytes_ -= entry->bytes;
    } else {
      entry = &cache_[descriptor.name];
    }
    entry->committed = descriptor;
    entry->instance = std::move(*instance_ptr);
    entry->base_version = descriptor.version;
    entry->tentative = false;
    entry->stale = false;
    entry->pinned = entry->pinned || pin;
    entry->bytes = descriptor.ByteSize();
    cache_bytes_ += entry->bytes;
    Touch(entry);
    EvictIfNeeded();
    done(Status::Ok());
  });
}

void AccessManager::FinishImport(const std::string& name, const ImportResult& result) {
  if (result.status.ok()) {
    c_imports_completed_->Increment();
  }
  latest_import_rpc_.erase(name);
  auto it = pending_imports_.find(name);
  if (it == pending_imports_.end()) {
    return;  // a faster duplicate request already resolved the waiters
  }
  std::vector<ImportWaiter> waiters = std::move(it->second.waiters);
  pending_imports_.erase(it);
  for (auto& waiter : waiters) {
    ImportResult r = result;
    if (r.status.ok() && r.version < waiter.required) {
      // The fetch succeeded but at a version below this waiter's session
      // floor (e.g. the home server lost state and restarted older).
      // Failing the import preserves monotonic reads / read-your-writes
      // rather than silently handing the session the past.
      r.status = FailedPreconditionError(
          "session requires " + name + " version >= " +
          std::to_string(waiter.required) + ", import returned " +
          std::to_string(r.version));
    }
    if (check_ != nullptr && waiter.has_session) {
      check_->OnSessionImportServed(transport_->local_host(), name, r.version,
                                    waiter.required, r.status.ok());
    }
    waiter.promise.Set(r);
  }
  NotifyStatus();
}

void AccessManager::UpdateOverflowGauge() {
  const size_t over = cache_bytes_ > options_.cache_capacity_bytes
                          ? cache_bytes_ - options_.cache_capacity_bytes
                          : 0;
  g_cache_overflow_bytes_->Set(static_cast<int64_t>(over));
  if (over == 0) {
    overflowing_ = false;
  }
}

void AccessManager::EvictIfNeeded() {
  while (cache_bytes_ > options_.cache_capacity_bytes) {
    // LRU among evictable entries.
    std::string victim;
    uint64_t oldest = UINT64_MAX;
    for (const auto& [name, entry] : cache_) {
      if (entry.tentative || entry.pinned) {
        continue;
      }
      if (entry.last_use_seq < oldest) {
        oldest = entry.last_use_seq;
        victim = name;
      }
    }
    if (victim.empty()) {
      // Everything is tentative or pinned; allow overflow -- durable local
      // work is never discarded to make room. Surface the overage instead
      // of letting it grow silently (one warning per episode).
      UpdateOverflowGauge();
      if (!overflowing_) {
        overflowing_ = true;
        c_cache_overflow_events_->Increment();
        ROVER_LOG(Warning)
            << "cache over capacity by "
            << (cache_bytes_ - options_.cache_capacity_bytes)
            << " bytes with nothing evictable (all tentative or pinned)";
      }
      return;
    }
    c_evictions_->Increment();
    Evict(victim);
  }
  UpdateOverflowGauge();
}

// --- Invoke ---

Result<RdoInstance*> AccessManager::LocalInstance(const std::string& name) {
  Entry* entry = FindEntry(name);
  if (entry == nullptr || entry->instance == nullptr) {
    return NotFoundError("object \"" + name + "\" not in cache");
  }
  Touch(entry);
  return entry->instance.get();
}

Promise<InvokeResult> AccessManager::Invoke(const std::string& name,
                                            const std::string& method,
                                            std::vector<std::string> args,
                                            InvokeOptions options) {
  Promise<InvokeResult> promise;
  const RoverUrn urn = Resolve(name);
  const bool cached = HasCached(name);
  const bool connected = ConnectedTo(urn.server);
  ExecutionSite site =
      options.force_site.has_value()
          ? *options.force_site
          : options_.migration.Decide(cached, connected,
                                      BestBandwidthBpsTo(urn.server));
  if (site == ExecutionSite::kClient && !cached && connected &&
      !options.force_site.has_value()) {
    site = ExecutionSite::kServer;  // nothing local to run; ship the call
  }

  if (site == ExecutionSite::kClient) {
    auto instance = LocalInstance(name);
    if (!instance.ok()) {
      InvokeResult result;
      result.status = UnavailableError("object \"" + name +
                                       "\" not cached and host is disconnected");
      result.site = ExecutionSite::kClient;
      loop_->ScheduleAfter(Duration::Zero(), [promise, result]() mutable {
        promise.Set(result);
      });
      return promise;
    }
    c_local_invokes_->Increment();
    auto value = (*instance)->Invoke(method, args);
    const Duration cost =
        options_.rdo_costs.per_command *
        static_cast<double>((*instance)->last_invoke_commands());
    Entry* entry = FindEntry(name);
    const bool now_tentative = (*instance)->dirty();
    if (entry != nullptr && now_tentative && !entry->tentative) {
      entry->tentative = true;
      NotifyStatus();
    }
    InvokeResult result;
    result.site = ExecutionSite::kClient;
    if (value.ok()) {
      result.value = *value;
    } else {
      result.status = value.status();
    }
    loop_->ScheduleAfter(cost, [this, weak = std::weak_ptr<char>(alive_), promise,
                                result]() mutable {
      if (weak.expired()) {
        return;
      }
      result.completed_at = loop_->now();
      promise.Set(result);
    });
    return promise;
  }

  // Remote execution at the home server.
  c_remote_invokes_->Increment();
  QrpcCall call = qrpc_->Call(urn.server, "rover.invoke",
                              {urn.path, std::string(method), TclListJoin(args)},
                              MakeCallOptions(options.priority));
  call.result.OnReady([this, promise](const QrpcResult& rpc) mutable {
    InvokeResult result;
    result.site = ExecutionSite::kServer;
    result.completed_at = rpc.completed_at;
    result.status = rpc.status;
    if (rpc.status.ok()) {
      auto value = RpcValueAsString(rpc.value);
      if (value.ok()) {
        result.value = *value;
      } else {
        result.status = value.status();
      }
    }
    promise.Set(result);
  });
  return promise;
}

// --- Export ---

Promise<ExportResult> AccessManager::Export(const std::string& name, Priority priority) {
  Promise<ExportResult> promise;
  Entry* entry = FindEntry(name);
  if (entry == nullptr) {
    ExportResult result;
    result.status = NotFoundError("object \"" + name + "\" not in cache");
    loop_->ScheduleAfter(Duration::Zero(),
                         [promise, result]() mutable { promise.Set(result); });
    return promise;
  }
  if (!entry->tentative) {
    ExportResult result;
    result.status = Status::Ok();
    result.new_version = entry->committed.version;
    loop_->ScheduleAfter(Duration::Zero(),
                         [promise, result]() mutable { promise.Set(result); });
    return promise;
  }

  RdoDescriptor snapshot = entry->instance->Snapshot();
  const RoverUrn urn = Resolve(name);
  snapshot.name = urn.path;  // the server knows the object by its path
  const uint64_t base_version = entry->base_version;
  QrpcCallOptions copts = MakeCallOptions(priority);
  // A newer export of the same object snapshots the full tentative state,
  // so it subsumes any not-yet-transmitted predecessor export.
  copts.supersede_key = "export:" + urn.path;
  QrpcCall call =
      qrpc_->Call(urn.server, "rover.export",
                  {snapshot.Encode(), static_cast<int64_t>(base_version)}, copts);
  latest_export_rpc_[name] = call.rpc_id;
  const uint64_t my_rpc = call.rpc_id;
  call.result.OnReady([this, name, my_rpc, promise](const QrpcResult& rpc) mutable {
    // A coalesced export's promise is chained to the newest rpc's result,
    // so this handler may run for a response another rpc owns: only the
    // newest rpc installs state, bumps counters, and reports conflicts --
    // a stale handler just relays the outcome to its caller.
    auto latest = latest_export_rpc_.find(name);
    const bool newest = latest != latest_export_rpc_.end() && latest->second == my_rpc;
    if (newest) {
      latest_export_rpc_.erase(latest);
    }
    ExportResult result;
    result.completed_at = rpc.completed_at;
    Entry* entry = newest ? FindEntry(name) : nullptr;

    if (rpc.status.ok()) {
      auto payload = RpcValueAsBytes(rpc.value);
      if (!payload.ok()) {
        result.status = payload.status();
        promise.Set(result);
        return;
      }
      WireReader reader(*payload);
      auto was_conflict = reader.ReadBool();
      auto committed_bytes = reader.ReadBytes();
      if (!was_conflict.ok() || !committed_bytes.ok()) {
        result.status = DataLossError("malformed export response");
        promise.Set(result);
        return;
      }
      auto committed = RdoDescriptor::Decode(*committed_bytes);
      if (!committed.ok()) {
        result.status = committed.status();
        promise.Set(result);
        return;
      }
      result.status = Status::Ok();
      result.new_version = committed->version;
      result.server_resolved = *was_conflict;
      if (newest) {
        if (*was_conflict) {
          c_conflicts_resolved_->Increment();
        }
        c_exports_completed_->Increment();
      }
      if (entry != nullptr) {
        cache_bytes_ -= entry->bytes;
        committed->name = name;  // keep the caller's cache key
        entry->committed = *committed;
        entry->base_version = committed->version;
        // Adopt the (possibly merged) committed state locally.
        entry->instance->WriteState(committed->data);
        entry->tentative = false;
        entry->stale = false;
        entry->bytes = entry->committed.ByteSize();
        cache_bytes_ += entry->bytes;
        // The raw server bytes of the new committed version double as the
        // delta base for the next import.
        entry->import_image = *committed_bytes;
      }
      if (newest) {
        NotifyStatus();
      }
      promise.Set(result);
      return;
    }

    result.status = rpc.status;
    if (newest && rpc.status.code() == StatusCode::kConflict) {
      c_conflicts_unresolved_->Increment();
      // The server shipped its committed descriptor along with the refusal.
      auto payload = RpcValueAsBytes(rpc.value);
      if (payload.ok()) {
        auto committed = RdoDescriptor::Decode(*payload);
        if (committed.ok() && entry != nullptr) {
          committed->name = name;  // keep the caller's cache key
          entry->committed = *committed;  // refresh the committed view
          entry->import_image = *payload;
          if (conflict_callback_) {
            conflict_callback_(name, entry->instance->ReadState(), *committed);
          }
        }
      }
    }
    promise.Set(result);
  });
  return promise;
}

// --- Prefetch ---

void AccessManager::Prefetch(const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    if (HasCached(name)) {
      continue;
    }
    if (degraded_ || qrpc_->StorageDegraded()) {
      // Cache warming is the first load we sacrifice under pressure --
      // scheduler backlog or a full stable device alike; the caller can
      // re-issue once the condition clears.
      c_prefetches_shed_->Increment();
      continue;
    }
    prefetch_queue_.push_back(name);
  }
  PumpPrefetchQueue();
}

void AccessManager::PumpPrefetchQueue() {
  while (!degraded_ && !qrpc_->StorageDegraded() &&
         prefetch_in_flight_ < options_.max_background_imports &&
         !prefetch_queue_.empty()) {
    if (transport_->scheduler()->TotalQueueDepth() > 0) {
      return;  // re-pumped from NotifyStatus when the queue drains
    }
    const std::string name = prefetch_queue_.front();
    prefetch_queue_.pop_front();
    if (HasCached(name)) {
      continue;
    }
    ++prefetch_in_flight_;
    c_prefetch_issued_->Increment();
    ImportOptions options;
    options.priority = Priority::kBackground;
    Promise<ImportResult> p = Import(name, options);
    p.OnReady([this](const ImportResult&) {
      --prefetch_in_flight_;
      PumpPrefetchQueue();
    });
  }
}

// --- Persistence ---

Bytes AccessManager::SerializeCache() const {
  WireWriter writer;
  writer.WriteVarint(cache_.size());
  for (const auto& [name, entry] : cache_) {
    writer.WriteString(name);
    writer.WriteBytes(entry.committed.Encode());
    writer.WriteVarint(entry.base_version);
    writer.WriteBool(entry.tentative);
    writer.WriteString(entry.tentative ? entry.instance->ReadState() : "");
    writer.WriteBool(entry.pinned);
    writer.WriteBytes(entry.import_image);
  }
  return writer.TakeData();
}

Status AccessManager::LoadCache(const Bytes& snapshot) {
  WireReader reader(snapshot);
  ROVER_ASSIGN_OR_RETURN(uint64_t count, reader.ReadVarint());
  for (uint64_t i = 0; i < count; ++i) {
    ROVER_ASSIGN_OR_RETURN(std::string name, reader.ReadString());
    ROVER_ASSIGN_OR_RETURN(Bytes descriptor_bytes, reader.ReadBytes());
    ROVER_ASSIGN_OR_RETURN(uint64_t base_version, reader.ReadVarint());
    ROVER_ASSIGN_OR_RETURN(bool tentative, reader.ReadBool());
    ROVER_ASSIGN_OR_RETURN(std::string tentative_state, reader.ReadString());
    ROVER_ASSIGN_OR_RETURN(bool pinned, reader.ReadBool());
    ROVER_ASSIGN_OR_RETURN(Bytes import_image, reader.ReadBytes());
    ROVER_ASSIGN_OR_RETURN(RdoDescriptor descriptor,
                           RdoDescriptor::Decode(descriptor_bytes));

    RdoEnvironment env;
    env.host_name = transport_->local_host();
    env.now = [loop = loop_] { return loop->now(); };
    env.log = [](const std::string& line) { ROVER_LOG(Debug) << "rdo: " << line; };
    auto instance = RdoInstance::Create(descriptor, env, options_.rdo_limits);
    if (!instance.ok()) {
      ROVER_LOG(Warning) << "cache load: skipping " << name << ": " << instance.status();
      continue;
    }
    Entry& entry = cache_[name];
    if (entry.instance != nullptr) {
      cache_bytes_ -= entry.bytes;
    }
    entry.committed = descriptor;
    entry.instance = std::move(*instance);
    entry.base_version = base_version;
    entry.tentative = tentative;
    if (tentative) {
      entry.instance->WriteState(tentative_state);
      // WriteState clears dirty; the entry-level flag carries tentativeness.
    }
    entry.pinned = pinned;
    entry.import_image = std::move(import_image);
    entry.bytes = entry.committed.ByteSize();
    cache_bytes_ += entry.bytes;
    Touch(&entry);
  }
  EvictIfNeeded();
  NotifyStatus();
  return Status::Ok();
}

// --- Invalidations ---

void AccessManager::HandleControl(const Message& msg) {
  auto inval = DecodeInvalidation(msg.payload);
  if (!inval.ok()) {
    return;  // not for us
  }
  c_invalidations_received_->Increment();
  // The server names objects by path. Only two cache keys can resolve to
  // (home server, path): its URN, and -- on the default server -- the bare
  // path. Look up both and confirm each with Resolve.
  auto mark_stale = [&](const std::string& key) {
    Entry* entry = FindEntry(key);
    if (entry == nullptr) {
      return;
    }
    const RoverUrn urn = Resolve(key);
    if (urn.server == msg.header.src && urn.path == inval->name &&
        entry->committed.version < inval->version) {
      entry->stale = true;
    }
  };
  mark_stale(MakeRoverUrn(msg.header.src, inval->name));
  mark_stale(inval->name);
}

void AccessManager::OnServerRestart(const std::string& server, uint64_t /*epoch*/) {
  c_server_restarts_observed_->Increment();
  // The restarted server lost its volatile subscription table, and anything
  // it committed that never reached its stable store is gone: re-validate
  // every cached import from it (tentative work is preserved -- only the
  // committed view is marked stale) and re-issue our subscriptions.
  for (auto& [key, entry] : cache_) {
    if (Resolve(key).server == server) {
      entry.stale = true;
    }
  }
  for (const std::string& key : subscribed_) {
    const RoverUrn urn = Resolve(key);
    if (urn.server != server) {
      continue;
    }
    qrpc_->Call(urn.server, "rover.subscribe", {urn.path},
                MakeCallOptions(Priority::kBackground, /*log_request=*/false));
  }
}

}  // namespace rover

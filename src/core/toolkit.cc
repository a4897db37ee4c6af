#include "src/core/toolkit.h"

#include <utility>

#include "src/util/logging.h"

namespace rover {

RoverClientNode::RoverClientNode(EventLoop* loop, Host* host, ClientNodeOptions options)
    : loop_(loop), host_(host), options_(std::move(options)) {
  log_ = std::make_unique<StableLog>(loop_, options_.log_costs, options_.disk_faults);
  log_->BindMetrics(&metrics_, "stable_log");
  // Permanent sync failure is fail-stop: the node treats it as a crash.
  log_->SetFailStopHandler([this] { OnStorageFailStop(); });
  Build();
  ArmScrubTimer();
}

void RoverClientNode::ArmScrubTimer() {
  if (options_.scrub_interval.is_zero()) {
    return;
  }
  // The node outlives every loop event (the testbed tears the loop down
  // with the nodes), so a plain `this` capture is safe here.
  loop_->ScheduleAfter(options_.scrub_interval, [this] {
    metrics_.counter("storage_scrub.runs")->Increment();
    const size_t quarantined = ScrubStorage();
    metrics_.counter("storage_scrub.quarantined")->Increment(quarantined);
    ArmScrubTimer();
  });
}

void RoverClientNode::OnStorageFailStop() {
  if (!log_->device()->sync_failed()) {
    return;  // an earlier fail-stop already replaced the device
  }
  ++storage_fail_stops_;
  // Model the operator swapping the dead disk during the reboot: without a
  // working device the node could never ack durability again, so the
  // deployment would have no post-fault convergence path.
  log_->device()->Repair();
  SimulateCrashAndRestart(false);
}

size_t RoverClientNode::ScrubStorage() {
  const StableLog::ScrubReport report = log_->Scrub();
  if (report.quarantined.empty()) {
    return 0;
  }
  if (check_ != nullptr) {
    check_->OnClientStorageQuarantine(host_name(), report.quarantined);
  }
  // The quarantined records' operations were durability-acknowledged and
  // are now lost: fail their calls loudly (kDataLoss) and conservatively
  // re-validate the whole cache against the server.
  qrpc_client_->FailQuarantinedRecords(report.quarantined);
  access_manager_->MarkAllImportsStale();
  return report.quarantined.size();
}

void RoverClientNode::Build() {
  transport_ = std::make_unique<TransportManager>(loop_, host_, options_.scheduler);
  qrpc_client_ =
      std::make_unique<QrpcClient>(loop_, transport_.get(), log_.get(), options_.qrpc);
  access_manager_ = std::make_unique<AccessManager>(loop_, transport_.get(),
                                                    qrpc_client_.get(), options_.access);
  if (!options_.auth_token.empty()) {
    transport_->set_auth_token(options_.auth_token);
  }
  // One registry per node: every subsystem's instruments under its own
  // "<subsystem>." prefix, one tracer shared by the QRPC client (enqueue/
  // log/flush/respond events) and the scheduler (transmit events). A
  // rebuilt component starts at zero, so re-binding after a crash keeps the
  // registry's counters cumulative.
  transport_->scheduler()->BindMetrics(&metrics_, "scheduler");
  transport_->BindMetrics(&metrics_, "transport");
  qrpc_client_->BindMetrics(&metrics_, "qrpc_client");
  access_manager_->BindMetrics(&metrics_, "access_manager");
  qrpc_client_->SetTracer(&tracer_);
  transport_->scheduler()->SetTracer(&tracer_);
  if (check_ != nullptr) {
    qrpc_client_->SetCheckListener(check_);
    access_manager_->SetCheckListener(check_);
  }
}

void RoverClientNode::SetCheckListener(obs::CheckListener* listener) {
  check_ = listener;
  qrpc_client_->SetCheckListener(listener);
  access_manager_->SetCheckListener(listener);
}

size_t RoverClientNode::SimulateCrashAndRestart(bool tear_last_log_record) {
  if (check_ != nullptr) {
    check_->OnClientCrashed(host_name());
  }
  // Stable storage at crash time: the cache snapshot, the rpc-id counter
  // (both persisted alongside the log), and the durable log records. The
  // failover engagement travels with them: once the primary has been
  // declared dead it stays dead, so the rebuilt client must re-route its
  // recovered resends to the backup, not fire them at a fenced corpse.
  const Bytes cache_snapshot = access_manager_->SerializeCache();
  const uint64_t next_rpc_id = qrpc_client_->next_rpc_id();
  const bool failover_engaged = qrpc_client_->failover_engaged();
  // A tear models a power cut mid-write; records whose flush completed
  // (whose commit promises may have resolved) cannot be torn after the fact.
  log_->SimulateCrash(tear_last_log_record && log_->WriteInFlight());

  // Process state dies with the process.
  access_manager_.reset();
  qrpc_client_.reset();
  transport_.reset();

  const StableLog::RecoveryReport report = log_->RecoverWithReport();
  Build();
  qrpc_client_->set_next_rpc_id(next_rpc_id);
  if (failover_engaged) {
    qrpc_client_->TriggerFailover();  // re-engage before RecoverFromLog re-sends
  }
  Status loaded = access_manager_->LoadCache(cache_snapshot);
  if (!loaded.ok()) {
    ROVER_LOG(Warning) << "client cache reload failed: " << loaded.message();
  }
  if (!report.quarantined.empty()) {
    // Interior corruption: acknowledged operations whose records rotted.
    // Reported BEFORE RecoverFromLog so the checker exempts them from its
    // silent-durability-loss audit, then the cache re-validates everything
    // the lost operations might have touched.
    if (check_ != nullptr) {
      check_->OnClientStorageQuarantine(host_name(), report.quarantined);
    }
    access_manager_->MarkAllImportsStale();
  }
  return qrpc_client_->RecoverFromLog();
}

RoverServerNode::RoverServerNode(EventLoop* loop, Host* host, ServerNodeOptions options)
    : loop_(loop), host_(host), options_(std::move(options)),
      stable_store_(loop, options_.stable_store) {
  // Permanent WAL sync failure is fail-stop: the node treats it as a crash.
  stable_store_.wal()->SetFailStopHandler([this] { OnStorageFailStop(); });
  Build();
  ArmScrubTimer();
}

void RoverServerNode::ArmScrubTimer() {
  if (options_.scrub_interval.is_zero() || dead_) {
    return;
  }
  loop_->ScheduleAfter(options_.scrub_interval, [this] {
    if (dead_) {
      return;
    }
    metrics_.counter("storage_scrub.runs")->Increment();
    const size_t quarantined = ScrubStorage();
    metrics_.counter("storage_scrub.quarantined")->Increment(quarantined);
    ArmScrubTimer();
  });
}

void RoverServerNode::EnableReplicationPrimary(const std::string& backup_host,
                                               Duration sync_timeout) {
  repl_primary_peer_ = backup_host;
  repl_backup_peer_.clear();
  repl_sync_timeout_ = sync_timeout;
  BuildReplication();
}

void RoverServerNode::EnableReplicationBackup(const std::string& primary_host) {
  repl_backup_peer_ = primary_host;
  repl_primary_peer_.clear();
  BuildReplication();
}

void RoverServerNode::BuildReplication() {
  // Both roles claim the host's kControl handler, which is why a node holds
  // at most one of them.
  repl_sender_.reset();
  repl_receiver_.reset();
  if (rover_server_ != nullptr) {
    rover_server_->SetReplicationSender(nullptr);
  }
  if (!repl_primary_peer_.empty()) {
    ReplicationOptions ropts;
    ropts.peer = repl_primary_peer_;
    ropts.sync_timeout = repl_sync_timeout_;
    repl_sender_ = std::make_unique<ReplicationSender>(loop_, transport_.get(), ropts);
    repl_sender_->SetResyncProvider([this] {
      ReplicationSender::ResyncImage img;
      img.object_image = rover_server_->store()->Serialize();
      img.responses = qrpc_server_->CachedResponses();
      img.baseline_seq = stable_store_.last_logged_id();
      img.epoch = stable_store_.epoch();
      return img;
    });
    repl_sender_->SetDegradeListener([this] {
      ROVER_LOG(Warning) << host_name()
                         << ": replication degraded to async (backup not acking)";
      if (check_ != nullptr) {
        check_->OnReplicationDegraded(host_name());
      }
    });
    repl_sender_->BindMetrics(&metrics_, "replication_sender");
    rover_server_->SetReplicationSender(repl_sender_.get());
  } else if (!repl_backup_peer_.empty()) {
    ReplicationOptions ropts;
    ropts.peer = repl_backup_peer_;
    repl_receiver_ = std::make_unique<ReplicationReceiver>(
        loop_, transport_.get(), rover_server_.get(),
        options_.durable ? &stable_store_ : nullptr, qrpc_server_.get(), ropts);
    if (check_ != nullptr) {
      repl_receiver_->SetCheckListener(check_);
    }
    repl_receiver_->BindMetrics(&metrics_, "replication_receiver");
  }
}

uint64_t RoverServerNode::Promote() {
  if (repl_receiver_ == nullptr || dead_) {
    return 0;
  }
  return repl_receiver_->Promote();
}

void RoverServerNode::Kill() {
  if (dead_) {
    return;
  }
  dead_ = true;
  if (check_ != nullptr) {
    check_->OnServerCrashed(host_name());
  }
  // The dead host's interfaces never come back: parked client queues
  // conclude the destination is unreachable, which force-opens their
  // breaker and (via the breaker observer) triggers failover.
  for (Link* link : host_->links()) {
    link->ForceDown();
  }
  repl_sender_.reset();
  repl_receiver_.reset();
  rover_server_.reset();
  qrpc_server_.reset();
  transport_.reset();
  stable_store_.SimulateCrash(false);
}

void RoverServerNode::OnStorageFailStop() {
  if (!stable_store_.wal()->device()->sync_failed()) {
    return;  // an earlier fail-stop already replaced the device
  }
  RequestWalFailStop();
}

void RoverServerNode::RequestWalFailStop() {
  if (wal_failstop_pending_ || dead_) {
    return;  // several journal flushes can fail in one episode; crash once
  }
  wal_failstop_pending_ = true;
  loop_->ScheduleAfter(Duration::Zero(), [this] {
    wal_failstop_pending_ = false;
    if (dead_) {
      return;
    }
    ++storage_fail_stops_;
    if (failstop_failover_handler_) {
      // A backup exists: storage death is terminal for this node, and the
      // handler moves the service instead of resurrecting the disk.
      auto handler = failstop_failover_handler_;
      Kill();
      handler();
      return;
    }
    if (stable_store_.wal()->device()->sync_failed()) {
      // Operator swaps the dead disk during the reboot (see the client-side
      // counterpart): recovery then proceeds from snapshot + surviving WAL.
      stable_store_.wal()->device()->Repair();
    }
    SimulateCrashAndRestart(false);
  });
}

size_t RoverServerNode::ScrubStorage() {
  return dead_ ? 0 : rover_server_->ScrubStableStore();
}

void RoverServerNode::Build() {
  transport_ = std::make_unique<TransportManager>(loop_, host_, options_.scheduler);
  qrpc_server_ = std::make_unique<QrpcServer>(loop_, transport_.get(), options_.qrpc);
  rover_server_ = std::make_unique<RoverServer>(
      loop_, transport_.get(), qrpc_server_.get(), options_.rover,
      options_.durable ? &stable_store_ : nullptr);
  // A response-journal flush that exhausts its retries (kUnavailable) is
  // fail-stop, like a permanent sync failure: the in-memory image diverged
  // from what stable storage will recover, so discard the incarnation and
  // let resends re-execute against recovered state.
  rover_server_->SetWalFailureHandler([this] { RequestWalFailStop(); });
  transport_->scheduler()->BindMetrics(&metrics_, "scheduler");
  qrpc_server_->BindMetrics(&metrics_, "qrpc_server");
  transport_->BindMetrics(&metrics_, "transport");
  if (check_ != nullptr) {
    qrpc_server_->SetCheckListener(check_);
    rover_server_->SetCheckListener(check_);
  }
  BuildReplication();
}

void RoverServerNode::SetCheckListener(obs::CheckListener* listener) {
  check_ = listener;
  if (qrpc_server_ != nullptr) {
    qrpc_server_->SetCheckListener(listener);
  }
  if (rover_server_ != nullptr) {
    rover_server_->SetCheckListener(listener);
  }
  if (repl_receiver_ != nullptr) {
    repl_receiver_->SetCheckListener(listener);
  }
}

RecoveredServerState RoverServerNode::SimulateCrashAndRestart(bool tear_last_wal_record) {
  if (dead_) {
    return RecoveredServerState{};  // killed for good; nothing restarts
  }
  if (check_ != nullptr) {
    check_->OnServerCrashed(host_name());
  }
  stable_store_.SimulateCrash(tear_last_wal_record);

  // Process state dies with the process. The replication endpoints hold the
  // transport, so they go first.
  repl_sender_.reset();
  repl_receiver_.reset();
  rover_server_.reset();
  qrpc_server_.reset();
  transport_.reset();

  RecoveredServerState recovered = stable_store_.Recover();
  Build();
  rover_server_->RestoreFromRecovery(recovered);
  return recovered;
}

Testbed::Testbed(Options options) : options_(std::move(options)), network_(&loop_) {
  Host* host = network_.AddHost(options_.server_name);
  server_ = std::make_unique<RoverServerNode>(&loop_, host, options_.server);
}

RoverServerNode* Testbed::AddServer(const std::string& name, ServerNodeOptions options) {
  auto it = extra_servers_.find(name);
  if (it != extra_servers_.end()) {
    return it->second.get();
  }
  Host* host = network_.AddHost(name);
  auto node = std::make_unique<RoverServerNode>(&loop_, host, options);
  RoverServerNode* raw = node.get();
  if (check_ != nullptr) {
    raw->SetCheckListener(check_);
  }
  extra_servers_.emplace(name, std::move(node));
  return raw;
}

RoverServerNode* Testbed::AddBackup(const std::string& name, LinkProfile repl_link,
                                    ServerNodeOptions options, Duration sync_timeout) {
  RoverServerNode* backup = AddServer(name, std::move(options));
  AddLink(options_.server_name, name, std::move(repl_link));
  server_->EnableReplicationPrimary(name, sync_timeout);
  backup->EnableReplicationBackup(options_.server_name);
  return backup;
}

RoverServerNode* Testbed::FindServer(const std::string& name) {
  if (name == options_.server_name) {
    return server_.get();
  }
  auto it = extra_servers_.find(name);
  return it == extra_servers_.end() ? nullptr : it->second.get();
}

Link* Testbed::AddLink(const std::string& host_a, const std::string& host_b,
                       LinkProfile profile, std::unique_ptr<ConnectivitySchedule> schedule) {
  return network_.Connect(host_a, host_b, std::move(profile), std::move(schedule));
}

RoverClientNode* Testbed::AddClient(const std::string& name, LinkProfile profile,
                                    std::unique_ptr<ConnectivitySchedule> schedule,
                                    ClientNodeOptions options) {
  network_.Connect(name, options_.server_name, std::move(profile), std::move(schedule));
  auto it = clients_.find(name);
  if (it != clients_.end()) {
    return it->second.get();  // extra link attached to an existing client
  }
  if (options.access.server_host.empty() || options.access.server_host == "server") {
    options.access.server_host = options_.server_name;
  }
  auto node =
      std::make_unique<RoverClientNode>(&loop_, network_.FindHost(name), options);
  RoverClientNode* raw = node.get();
  if (check_ != nullptr) {
    raw->SetCheckListener(check_);
  }
  clients_.emplace(name, std::move(node));
  return raw;
}

RoverClientNode* Testbed::AddDetachedClient(const std::string& name,
                                            ClientNodeOptions options) {
  auto it = clients_.find(name);
  if (it != clients_.end()) {
    return it->second.get();
  }
  if (options.access.server_host.empty() || options.access.server_host == "server") {
    options.access.server_host = options_.server_name;
  }
  Host* host = network_.AddHost(name);
  auto node = std::make_unique<RoverClientNode>(&loop_, host, options);
  RoverClientNode* raw = node.get();
  if (check_ != nullptr) {
    raw->SetCheckListener(check_);
  }
  clients_.emplace(name, std::move(node));
  return raw;
}

SmtpRelay* Testbed::AddRelay(const std::string& relay_name, const std::string& client_name,
                             LinkProfile client_link, LinkProfile server_link) {
  network_.Connect(client_name, relay_name, std::move(client_link));
  network_.Connect(relay_name, options_.server_name, std::move(server_link));
  Relay relay;
  relay.transport =
      std::make_unique<TransportManager>(&loop_, network_.FindHost(relay_name));
  relay.relay = std::make_unique<SmtpRelay>(&loop_, relay.transport.get());
  SmtpRelay* raw = relay.relay.get();
  relays_.emplace(relay_name, std::move(relay));
  return raw;
}

RoverClientNode* Testbed::client(const std::string& name) {
  auto it = clients_.find(name);
  return it == clients_.end() ? nullptr : it->second.get();
}

std::vector<RoverClientNode*> Testbed::AllClients() {
  std::vector<RoverClientNode*> out;
  out.reserve(clients_.size());
  for (auto& [name, node] : clients_) {
    out.push_back(node.get());
  }
  return out;
}

std::vector<RoverServerNode*> Testbed::AllServers() {
  std::vector<RoverServerNode*> out;
  out.reserve(1 + extra_servers_.size());
  out.push_back(server_.get());
  for (auto& [name, node] : extra_servers_) {
    out.push_back(node.get());
  }
  return out;
}

void Testbed::SetCheckListener(obs::CheckListener* listener) {
  check_ = listener;
  server_->SetCheckListener(listener);
  for (auto& [name, node] : extra_servers_) {
    node->SetCheckListener(listener);
  }
  for (auto& [name, node] : clients_) {
    node->SetCheckListener(listener);
  }
}

RdoDescriptor MakeRdo(const std::string& name, const std::string& type,
                      const std::string& code, const std::string& data) {
  RdoDescriptor d;
  d.name = name;
  d.type = type;
  d.code = code;
  d.data = data;
  return d;
}

}  // namespace rover

// Rover server (paper §5.1): mediates access to RDOs for client access
// managers. It exposes the toolkit's server-side operations over QRPC --
// import (fetch), export (commit with conflict detection/resolution),
// server-side method invocation, creation, listing -- and pushes
// best-effort invalidation notices to subscribed clients when an object
// commits a new version.

#ifndef ROVER_SRC_STORE_SERVER_H_
#define ROVER_SRC_STORE_SERVER_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/qrpc/qrpc.h"
#include "src/rdo/rdo.h"
#include "src/store/conflict.h"
#include "src/store/object_store.h"
#include "src/store/server_store.h"

namespace rover {

class ReplicationSender;

struct RoverServerOptions {
  ExecLimits rdo_limits;
  RdoCostModel rdo_costs;
  size_t instance_cache_max = 64;
  // Invalidations are best-effort: a non-zero TTL withdraws ones still
  // queued for an unreachable subscriber after this long instead of letting
  // them pile up behind a dead link. Zero = queue forever.
  Duration invalidation_ttl = Duration::Zero();
  // After this many consecutive expired invalidations to one host, the host
  // is dropped from every subscription set (it re-subscribes when it next
  // talks to us). Zero disables the garbage collection.
  size_t subscriber_drop_after_failures = 3;
};

struct RoverServerStats {
  uint64_t imports = 0;
  uint64_t exports = 0;
  uint64_t invokes = 0;
  uint64_t invalidations_sent = 0;
  uint64_t invalidations_expired = 0;  // TTL fired before delivery
  uint64_t unsubscribes = 0;
  uint64_t subscribers_dropped = 0;    // GC'd after repeated expiries
  uint64_t deltas_sent = 0;            // imports answered with a delta
  uint64_t imports_not_modified = 0;   // client already held the version
  uint64_t delta_bytes_saved = 0;      // full-body bytes not shipped
  // Storage fault handling (journal device).
  uint64_t wal_space_exhausted = 0;    // journal flushes refused with ENOSPC
  uint64_t wal_space_recoveries = 0;   // degraded episodes ended by compaction
  uint64_t wal_compactions_forced = 0; // compactions run to reclaim WAL space
};

// Invalidation control-message payload helpers (shared with the client
// access manager).
Bytes EncodeInvalidation(const std::string& name, uint64_t version);
struct Invalidation {
  std::string name;
  uint64_t version = 0;
};
Result<Invalidation> DecodeInvalidation(const Bytes& payload);
Result<Invalidation> DecodeInvalidation(const Buffer& payload);

// Reply wrapper for the two-argument form of rover.import
// ([path, cached_version]); the one-argument form still returns the bare
// encoded descriptor. Shared with the client access manager.
//   kFull:        varint kind | bytes full_encoded_descriptor
//   kDelta:       varint kind | varint base_version | bytes delta
//   kNotModified: varint kind | varint version
enum class ImportReplyKind : uint8_t { kFull = 0, kDelta = 1, kNotModified = 2 };

class RoverServer {
 public:
  // Every RPC's store mutations and its duplicate-cache response entry are
  // journaled to `stable_store` as one atomic WAL transaction before the
  // response leaves, and the WAL is compacted into snapshots as it grows.
  RoverServer(EventLoop* loop, TransportManager* transport, QrpcServer* qrpc,
              ServerStableStore* stable_store, RoverServerOptions options = {});

  ObjectStore* store() { return &store_; }
  ConflictResolverRegistry* resolvers() { return &resolvers_; }
  const RoverServerStats& stats() const { return stats_; }

  // Convenience for tests/benches/examples: create an object directly.
  Status CreateObject(const RdoDescriptor& descriptor);

  // Rebuilds the server image from recovered stable state: snapshot
  // adoption (no decode), WAL replay (mutations + duplicate-cache entries),
  // epoch installation. Subscriptions and live RDO instances are volatile
  // and start empty.
  void RestoreFromRecovery(const RecoveredServerState& recovered);

  // Reports recovery outcomes (the survived duplicate-response keys) to an
  // external invariant checker. Null disables (the default).
  void SetCheckListener(obs::CheckListener* listener) { check_ = listener; }

  // Proactive WAL scrub: CRC-sweeps the durable journal, quarantines
  // interior-corrupt records, and -- when anything was quarantined and no
  // transaction is mid-journal -- forces a compaction snapshot so the
  // intact in-memory image re-covers the hole. Returns quarantined count.
  size_t ScrubStableStore();

  // Invoked (asynchronously, by the owning node) when a response journal
  // flush terminally fails with kUnavailable -- retries exhausted, device
  // misbehaving beyond the transient model. The in-memory image has then
  // diverged from what stable storage will recover, so the node should
  // fail-stop this incarnation: the client's resend re-executes against
  // recovered state. (Permanent sync failure, kDataLoss, rides the WAL's
  // own fail-stop handler instead.)
  void SetWalFailureHandler(std::function<void()> handler) {
    wal_failure_handler_ = std::move(handler);
  }

  // True while the journal device is out of space and responses are gated
  // on a reclaim compaction.
  bool WalSpaceDegraded() const { return wal_space_degraded_; }

  // Primary role: every journaled transaction is shipped through `sender`
  // and response releases gate on the acked replication watermark (see
  // replication.h). Null (the default) disables shipping.
  void SetReplicationSender(ReplicationSender* sender) { replication_ = sender; }

  // Backup role: applies one transaction shipped by the primary -- store
  // mutations plus the duplicate-cache response entry -- with journal hooks
  // suppressed, then journals it to the local WAL. `done` runs with the
  // local durability outcome; the transaction must only be acked upstream
  // when it is durable here.
  void ApplyReplicatedTransaction(const ServerTransaction& txn,
                                  std::function<void(const Status&)> done);

  // Backup role: replaces the whole server image with a resync snapshot
  // from the primary (object store + duplicate cache) and persists it as a
  // local snapshot. `done` runs once the snapshot is durable locally.
  void AdoptReplicatedSnapshot(Bytes object_image,
                               std::vector<CachedResponseEntry> responses,
                               std::function<void()> done);

  size_t SubscriberCount(const std::string& name) const {
    auto it = subscribers_.find(name);
    return it == subscribers_.end() ? 0 : it->second.size();
  }

 private:
  void RegisterMethods();
  void WireDurability();
  void RecordOp(ReplayOp op);
  void MaybeCompact();
  // Snapshots the object store and duplicate cache into the stable store
  // (sharing, not encoding, their contents); `done` runs once it is durable.
  void WriteSnapshot(std::function<void()> done);
  // Journal ENOSPC path: queue the blocked response release, put the QRPC
  // server into storage-degraded refusal, and drive compaction until the
  // re-flush succeeds (or the retry budget runs out).
  void RecoverWalSpace(std::function<void()> release);
  void TryReclaimWalSpace();
  void FinishWalRecovery(bool ok);
  void OnInvalidationDelivered(const std::string& host, const Status& status);
  void DropSubscriber(const std::string& host);
  void HandleImport(const RpcRequestBody& req, const Message& envelope,
                    QrpcServer::Responder respond);
  void HandleExport(const RpcRequestBody& req, const Message& envelope,
                    QrpcServer::Responder respond);
  void HandleInvoke(const RpcRequestBody& req, const Message& envelope,
                    QrpcServer::Responder respond);
  void HandleCreate(const RpcRequestBody& req, const Message& envelope,
                    QrpcServer::Responder respond);
  void HandleList(const RpcRequestBody& req, const Message& envelope,
                  QrpcServer::Responder respond);
  void HandleVersion(const RpcRequestBody& req, const Message& envelope,
                     QrpcServer::Responder respond);
  void HandleSubscribe(const RpcRequestBody& req, const Message& envelope,
                       QrpcServer::Responder respond);
  void HandleUnsubscribe(const RpcRequestBody& req, const Message& envelope,
                         QrpcServer::Responder respond);
  void HandlePoll(const RpcRequestBody& req, const Message& envelope,
                  QrpcServer::Responder respond);

  // Cached live instance for server-side execution; invalidated on commit.
  Result<RdoInstance*> InstanceFor(const std::string& name);
  void DropInstance(const std::string& name);
  void NotifySubscribers(const std::string& name, uint64_t version,
                         const std::string& except_host);
  // Drains pending_invalidations_: encodes each (name, latest version) ONCE
  // into a refcounted Buffer and enqueues per-subscriber messages that
  // share it -- N sends cost N refcount bumps, not N encodes + N copies.
  void FlushInvalidations();

  EventLoop* loop_;
  TransportManager* transport_;
  QrpcServer* qrpc_;
  RoverServerOptions options_;
  ServerStableStore* stable_store_;
  ReplicationSender* replication_ = nullptr;  // non-null on a primary
  obs::CheckListener* check_ = nullptr;
  RoverServerStats stats_;
  ObjectStore store_;
  ConflictResolverRegistry resolvers_;
  std::map<std::string, std::unique_ptr<RdoInstance>> instances_;
  std::map<std::string, std::set<std::string>> subscribers_;  // name -> hosts
  // Store mutations made by the handler for (client, rpc_id), buffered until
  // its response is journaled so the pair forms one atomic WAL transaction.
  std::map<std::pair<std::string, uint64_t>, std::vector<ReplayOp>> pending_ops_;
  // Consecutive expired invalidations per subscriber host.
  std::map<std::string, size_t> invalidation_failures_;
  // Same-tick invalidation coalescing: commits occurring at one virtual
  // instant are coalesced per object (latest version wins) and flushed by a
  // single deferred event, so a burst of imports to one object does not
  // fan out once per commit. Ordered map: flush order is deterministic.
  struct PendingInvalidation {
    uint64_t version = 0;
    std::string except_host;
  };
  std::map<std::string, PendingInvalidation> pending_invalidations_;
  bool invalidation_flush_armed_ = false;
  // True while RestoreFromRecovery replays the WAL: journal hooks must not
  // re-log the replayed mutations.
  bool replaying_ = false;
  // Journal-device ENOSPC recovery: while degraded, new requests are refused
  // (QrpcServer::SetStorageDegraded) and the releases of responses whose
  // journal flush hit ENOSPC wait here for a reclaim compaction.
  bool wal_space_degraded_ = false;
  bool wal_reclaim_in_progress_ = false;
  size_t wal_reclaim_attempts_ = 0;
  std::vector<std::function<void()>> wal_space_waiters_;
  std::function<void()> wal_failure_handler_;
  // Invalidation delivered-callbacks capture a weak_ptr to this token and
  // bail out if the server was destroyed (simulated crash) first.
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);
};

}  // namespace rover

#endif  // ROVER_SRC_STORE_SERVER_H_

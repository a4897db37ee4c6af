// Client-side access manager (paper §3.1, §5.2): "A mobile host imports
// objects into its local cache and exports updated objects back to their
// home servers." The access manager owns the object cache, decides where
// each invocation executes (migration policy), tracks tentative vs
// committed state, and surfaces queue/consistency information for user
// notification.
//
// All operations are non-blocking and return promises resolved on the
// event loop -- import can complete from the cache immediately or after an
// arbitrarily long disconnection.

#ifndef ROVER_SRC_CACHE_ACCESS_MANAGER_H_
#define ROVER_SRC_CACHE_ACCESS_MANAGER_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/cache/session.h"
#include "src/cache/urn.h"
#include "src/obs/metrics.h"
#include "src/qrpc/promise.h"
#include "src/qrpc/qrpc.h"
#include "src/rdo/migration.h"
#include "src/rdo/rdo.h"
#include "src/store/server.h"  // invalidation wire helpers

namespace rover {

struct AccessManagerOptions {
  std::string server_host = "server";
  size_t cache_capacity_bytes = 4 << 20;
  ExecLimits rdo_limits;
  RdoCostModel rdo_costs;
  MigrationPolicy migration;
  bool subscribe_on_import = false;  // ask the server for invalidations
  // Prefetch throttle. Prefetches are issued only while the send queue is
  // idle, so background cache-warming never delays a foreground request on
  // a slow link.
  size_t max_background_imports = 4;
  // When non-zero, periodically rover.poll each home server for the
  // versions of cached objects and mark stale entries (the alternative to
  // subscriptions; paper S3.1 "periodic polling or server callbacks").
  Duration poll_interval = Duration::Zero();
  // When set, every QRPC travels through this SMTP relay instead of a
  // direct connection (responses return the same way). For hosts that can
  // only reach their home servers by mail.
  std::string relay_host;
  // Degraded mode (0 = never): when the scheduler's queue depth reaches
  // this, the manager sheds its prefetch queue and refuses new prefetches
  // until the depth falls back below half the threshold. Tentative-op
  // queuing (imports, invokes, exports) stays fully alive -- degraded mode
  // sacrifices cache warming, never the disconnected-operation promise.
  size_t degraded_queue_depth = 0;
  // Delta imports: when re-fetching an object whose server-encoded image is
  // still cached, send the cached version id and accept a delta reply
  // (applied locally, CRC-validated; any mismatch falls back to a full
  // re-fetch). The big import-size win on CSLIP links (E12).
  bool delta_imports = true;
};

struct ImportResult {
  Status status;
  std::string name;
  uint64_t version = 0;
  bool from_cache = false;
  TimePoint completed_at;
};

struct InvokeResult {
  Status status;
  std::string value;
  ExecutionSite site = ExecutionSite::kClient;
  TimePoint completed_at;
};

struct ExportResult {
  Status status;               // kConflict => unresolved, tentative kept
  uint64_t new_version = 0;
  bool server_resolved = false;  // a resolver merged concurrent updates
  TimePoint completed_at;
};

struct InvokeOptions {
  Priority priority = Priority::kForeground;
  // Overrides the migration policy when set.
  std::optional<ExecutionSite> force_site;
  Session* session = nullptr;
};

struct ImportOptions {
  Priority priority = Priority::kForeground;
  bool allow_cached = true;  // false forces a server round trip
  bool pin = false;          // exempt from eviction
  Session* session = nullptr;
};

// Snapshot handed to the status callback whenever it changes -- the
// toolkit's "user notification" information (paper §3.4).
struct QueueStatus {
  size_t queued_qrpcs = 0;       // operations waiting for connectivity
  size_t tentative_objects = 0;  // locally modified, not yet committed
  bool connected = false;
  bool degraded = false;         // overload: prefetching suspended
  // The stable-log device is full: new durable operations are refused
  // (kResourceExhausted) until log compaction frees space.
  bool storage_degraded = false;
};

// Renders the status as the one-line indicator the paper's applications
// display ("because the mobile environment may rapidly change ... it is
// important to present the user with information about its current state"):
//   "connected | 0 queued | all committed"
//   "DISCONNECTED | 3 ops queued | 2 tentative objects"
std::string FormatQueueStatus(const QueueStatus& status);

class AccessManager {
 public:
  using StatusCallback = std::function<void(const QueueStatus&)>;
  // Fired when an export is rejected with an unresolvable conflict:
  // (name, local tentative state, server committed descriptor).
  using ConflictCallback = std::function<void(const std::string& name,
                                              const std::string& tentative_data,
                                              const RdoDescriptor& committed)>;

  // Counts into `metrics` under "access_manager.".
  AccessManager(EventLoop* loop, TransportManager* transport, QrpcClient* qrpc,
                obs::Registry* metrics, AccessManagerOptions options = {});

  // --- the toolkit's four core operations ---

  Promise<ImportResult> Import(const std::string& name, ImportOptions options = {});

  Promise<InvokeResult> Invoke(const std::string& name, const std::string& method,
                               std::vector<std::string> args, InvokeOptions options = {});

  Promise<ExportResult> Export(const std::string& name,
                               Priority priority = Priority::kDefault);

  // Background import of a batch of objects (cache warming for
  // disconnection; paper §3.1 "filling the cache with useful information").
  void Prefetch(const std::vector<std::string>& names);

  // --- cache inspection ---

  bool HasCached(const std::string& name) const;
  bool IsTentative(const std::string& name) const;
  size_t TentativeCount() const;
  // Current (tentative if modified, else committed) state of a cached object.
  Result<std::string> ReadData(const std::string& name) const;
  // Last known committed state, ignoring tentative local mutations.
  Result<std::string> ReadCommittedData(const std::string& name) const;
  Result<uint64_t> CachedVersion(const std::string& name) const;
  size_t CacheBytes() const { return cache_bytes_; }
  size_t CachedObjectCount() const { return cache_.size(); }

  // Drops a cached object (tentative state is lost). Pinned entries can be
  // dropped explicitly even though eviction skips them.
  void Evict(const std::string& name);

  // Conservative response to detected stable-storage loss (quarantined log
  // records): marks every cached entry stale so the next access
  // re-validates against the home server. Tentative local state is kept --
  // only trust in the committed view is withdrawn. Returns entries marked.
  size_t MarkAllImportsStale();

  // --- persistence ---
  // Rover keeps the object cache on stable storage so a reboot does not
  // empty it. SerializeCache captures every entry (committed descriptor,
  // base version, tentative state, pinned flag); LoadCache rebuilds the
  // cache in a fresh access manager, preserving tentative work.
  Bytes SerializeCache() const;
  Status LoadCache(const Bytes& snapshot);

  // Damages the cached server-encoded image for `name` in place, as stable-
  // storage corruption would; the next delta import must detect the bad
  // base and fall back to a full fetch. Returns false when there is no
  // image. Test-only.
  bool CorruptImportImageForTest(const std::string& name);

  // --- notification ---

  void SetStatusCallback(StatusCallback callback);
  void SetConflictCallback(ConflictCallback callback) {
    conflict_callback_ = std::move(callback);
  }

  // Reports session-tracked import outcomes to an external invariant
  // checker. Null disables (the default).
  void SetCheckListener(obs::CheckListener* listener) { check_ = listener; }

  const AccessManagerOptions& options() const { return options_; }

  // Best currently-up bandwidth to the default home server (or a named
  // host), 0 when disconnected.
  double BestBandwidthBps() const;
  double BestBandwidthBpsTo(const std::string& server) const;
  bool Connected() const;
  bool ConnectedTo(const std::string& server) const;

  // True while degraded mode has prefetching suspended (see
  // AccessManagerOptions::degraded_queue_depth).
  bool Degraded() const { return degraded_; }

  // Home server for `name` ("rover://host/path" URNs name their server;
  // bare paths use the default).
  std::string ServerFor(const std::string& name) const;

 private:
  struct Entry {
    RdoDescriptor committed;                 // last known committed version
    std::unique_ptr<RdoInstance> instance;   // live interpreter
    // Version the *local state* diverged from -- the base for exports.
    // Unlike committed.version, this does NOT advance when the committed
    // view is refreshed while tentative changes exist; otherwise a retry
    // after a conflict would take the server's fast path and clobber
    // concurrent updates.
    uint64_t base_version = 0;
    bool tentative = false;                  // local uncommitted mutations
    bool stale = false;                      // invalidated by the server
    bool pinned = false;
    uint64_t last_use_seq = 0;
    size_t bytes = 0;
    // Exact server-encoded bytes of `committed` (the image the server sent
    // or would send for this version): the dictionary a delta import is
    // applied against. Empty = delta unavailable, request the full body.
    Bytes import_image;
  };

  Entry* FindEntry(const std::string& name);
  const Entry* FindEntry(const std::string& name) const;
  void Touch(Entry* entry);
  void InstallDescriptor(const RdoDescriptor& descriptor, bool pin,
                         std::function<void(const Status&)> done);
  void EvictIfNeeded();
  void HandleControl(const Message& msg);
  void OnServerRestart(const std::string& server, uint64_t epoch);
  void NotifyStatus();
  void StartImportRpc(const std::string& name, Priority priority,
                      bool allow_delta = true);
  RoverUrn Resolve(const std::string& name) const;
  void SchedulePoll();
  void RunPoll();
  QrpcCallOptions MakeCallOptions(Priority priority, bool log_request = true) const;
  void FinishImport(const std::string& name, const ImportResult& result);
  void PumpPrefetchQueue();
  void UpdateDegraded(size_t queue_depth);
  void UpdateOverflowGauge();

  Result<RdoInstance*> LocalInstance(const std::string& name);

  EventLoop* loop_;
  TransportManager* transport_;
  QrpcClient* qrpc_;
  AccessManagerOptions options_;
  obs::CheckListener* check_ = nullptr;
  obs::Counter* const c_cache_hits_;
  obs::Counter* const c_cache_misses_;
  obs::Counter* const c_imports_completed_;
  obs::Counter* const c_exports_completed_;
  obs::Counter* const c_local_invokes_;
  obs::Counter* const c_remote_invokes_;
  obs::Counter* const c_evictions_;
  obs::Counter* const c_invalidations_received_;
  obs::Counter* const c_polls_sent_;
  obs::Counter* const c_poll_staleness_detected_;
  obs::Counter* const c_conflicts_resolved_;
  obs::Counter* const c_conflicts_unresolved_;
  obs::Counter* const c_prefetch_issued_;
  // Server epoch bumps observed in responses: each one means the server
  // restarted, so subscriptions were re-issued and its imports marked stale.
  obs::Counter* const c_server_restarts_observed_;
  obs::Counter* const c_prefetches_shed_;     // dropped on entering/while degraded
  obs::Counter* const c_degraded_entered_;    // times degraded mode engaged
  // EvictIfNeeded found only tentative/pinned entries and let the cache
  // overflow its capacity (each overage episode counts once).
  obs::Counter* const c_cache_overflow_events_;
  obs::Counter* const c_delta_hits_;          // imports answered with an applied delta
  obs::Counter* const c_delta_full_;          // delta requested, server sent full body
  obs::Counter* const c_delta_not_modified_;  // cached version was already current
  obs::Counter* const c_delta_fallbacks_;     // delta failed to apply; full re-fetch
  obs::Counter* const c_delta_bytes_saved_;   // full-body bytes the wire never carried
  // Cache entries marked stale by MarkAllImportsStale (storage-loss sweeps).
  obs::Counter* const c_storage_stale_marks_;
  obs::Gauge* const g_degraded_;
  obs::Gauge* const g_cache_overflow_bytes_;
  std::map<std::string, Entry> cache_;
  size_t cache_bytes_ = 0;
  uint64_t use_seq_ = 0;
  // In-flight imports, coalesced by name. If a foreground import arrives
  // while a background fetch for the same object is pending, a second RPC
  // is issued at the higher priority (imports are idempotent), so user
  // requests never wait at prefetch priority.
  struct ImportWaiter {
    Promise<ImportResult> promise;
    // Session floor recorded at join time: the version below which this
    // waiter must NOT be handed an ok result (monotonic reads /
    // read-your-writes). 0 = no session constraint.
    uint64_t required = 0;
    bool has_session = false;
  };
  struct PendingImport {
    std::vector<ImportWaiter> waiters;
    Priority priority = Priority::kBackground;
    // Pin applies at install, before EvictIfNeeded runs: an entry imported
    // with pin=true must not evict itself when it alone exceeds capacity.
    bool pin = false;
    // Max of the waiters' session floors: a kNotModified reply confirming a
    // version below this cannot satisfy every waiter and falls back to a
    // full re-fetch.
    uint64_t required_version = 0;
  };
  std::map<std::string, PendingImport> pending_imports_;
  // Newest import rpc issued per name. An import response handler whose rpc
  // is no longer the newest does nothing: either it was superseded (its
  // promise chained to the newest rpc's result) or a priority escalation
  // re-requested the object and the newest response drives the install.
  std::map<std::string, uint64_t> latest_import_rpc_;
  // Newest export rpc issued per name, mirroring latest_import_rpc_: when a
  // queued export is coalesced, the predecessor's promise is chained to the
  // newest rpc's result, so both handlers see the same response. Only the
  // newest rpc's handler installs state, bumps completion/conflict
  // counters, and invokes conflict_callback_; stale handlers just relay
  // the outcome to their caller.
  std::map<std::string, uint64_t> latest_export_rpc_;
  std::deque<std::string> prefetch_queue_;
  size_t prefetch_in_flight_ = 0;
  bool degraded_ = false;
  // True while cache_bytes_ exceeds capacity with nothing evictable; the
  // flag gives each overage episode exactly one warning + counter bump.
  bool overflowing_ = false;
  // Cache keys we hold (volatile, server-side) subscriptions for; re-issued
  // when the server's epoch bumps, withdrawn on eviction.
  std::set<std::string> subscribed_;
  StatusCallback status_callback_;
  ConflictCallback conflict_callback_;
  // Loop-scheduled callbacks (poll timer, install cost, prefetch pump)
  // capture a weak_ptr to this token and bail out once it is gone, so an
  // access manager destroyed by a simulated crash is never touched by
  // events already in the loop.
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);
};

}  // namespace rover

#endif  // ROVER_SRC_CACHE_ACCESS_MANAGER_H_

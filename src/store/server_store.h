// Server stable store (paper §3.1: "every object has a home server" that
// keeps the authoritative copy on stable storage). The server journals each
// RPC's effects as ONE write-ahead transaction record -- the object
// mutations it committed plus the duplicate-cache response entry -- so a
// crash can never make a mutation durable while losing the response that
// proves it ran. Recovery replays snapshot + surviving WAL transactions;
// a torn tail record (CRC failure) drops atomically, leaving the client's
// resend free to re-execute exactly once.
//
// The WAL reuses StableLog (CRC32 framing, SimulateCrash/Recover contract,
// simulated device costs); compaction writes an atomic snapshot of the
// object image and duplicate cache, then truncates the log.

#ifndef ROVER_SRC_STORE_SERVER_STORE_H_
#define ROVER_SRC_STORE_SERVER_STORE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/qrpc/qrpc.h"
#include "src/qrpc/stable_log.h"
#include "src/rdo/rdo.h"
#include "src/sim/event_loop.h"
#include "src/store/object_store.h"
#include "src/util/buffer.h"
#include "src/util/bytes.h"

namespace rover {

struct ServerStoreOptions {
  // Journal device. The default models battery-backed NVRAM (near-zero
  // latency), keeping the journal off the response critical path; chaos and
  // durability experiments pass disk-like costs instead.
  StableLogCostModel wal_costs{/*flush_base=*/Duration::Zero(),
                               /*write_bytes_per_sec=*/1e12,
                               /*group_commit=*/true};
  // Snapshot + truncate once the WAL holds this many records.
  size_t compact_after_records = 256;
  // Fault schedule for the WAL device (healthy by default). The snapshot
  // area is modelled as a separate preallocated region: snapshot writes do
  // not consume WAL device capacity, which is what lets compaction reclaim
  // space from a full WAL.
  DiskFaultOptions wal_disk_faults;
};

struct ServerStoreStats {
  uint64_t transactions_logged = 0;
  uint64_t snapshots_written = 0;
  uint64_t recoveries = 0;
  uint64_t wal_records_dropped = 0;  // torn-tail/undecodable records rejected
  // Interior-corrupt WAL records (bit rot on an acknowledged transaction)
  // quarantined by recovery or a scrub -- detected data loss, not a torn tail.
  uint64_t wal_interior_quarantined = 0;
};

// One replayable store mutation inside a transaction.
struct ReplayOp {
  bool is_remove = false;
  RdoDescriptor committed;  // valid when !is_remove
  std::string name;         // valid when is_remove
};

// The unit of server durability: everything one RPC changed, journaled
// atomically. Standalone (non-RPC) mutations use has_response = false.
struct ServerTransaction {
  std::vector<ReplayOp> ops;
  bool has_response = false;
  std::string client;
  uint64_t rpc_id = 0;
  Buffer response;

  Bytes Encode() const;
  // Decoded `response` is a slice of `data`'s storage (no copy).
  static Result<ServerTransaction> Decode(const Buffer& data);
};

// Everything Recover() salvages from stable storage.
struct RecoveredServerState {
  uint64_t epoch = 1;
  ObjectImage object_image;  // no objects when no snapshot was written
  std::vector<CachedResponseEntry> snapshot_responses;
  std::vector<ServerTransaction> wal;  // oldest first
  size_t records_dropped = 0;
  // Interior-corrupt records quarantined by this recovery: acknowledged
  // transactions whose bytes rotted. The epoch bump that every recovery
  // performs already forces clients to re-subscribe and refresh.
  size_t interior_quarantined = 0;
};

class ServerStableStore {
 public:
  ServerStableStore(EventLoop* loop, ServerStoreOptions options = {});

  // Appends one transaction to the WAL (not yet durable). Returns record id.
  uint64_t LogTransaction(const ServerTransaction& txn);

  // Durability point: `done` runs when every appended record is on the
  // device -- or when the write terminally fails (non-ok status: the
  // transaction is NOT durable and its response must not leave). Response
  // sends gate on this.
  void Flush(StableLog::FlushCallback done);

  bool NeedsCompaction() const {
    return !compaction_in_progress_ && wal_.RecordCount() >= options_.compact_after_records;
  }

  // Writes a snapshot of the full server image (object store + duplicate
  // cache) and truncates the WAL records it covers. The image shares its
  // versions and response buffers with the live server, so this copies no
  // payload; the device is still charged for the image's serialized size.
  // The swap is atomic at write completion: a crash mid-snapshot keeps the
  // previous snapshot and the untruncated WAL.
  void WriteSnapshot(ObjectImage object_image, std::vector<CachedResponseEntry> responses,
                     std::function<void()> done = nullptr);

  // Crash: volatile WAL tail vanishes; with `tear_last_record`, the record
  // under an in-flight device write survives torn (dropped by Recover's CRC
  // scan). A snapshot write in progress is abandoned.
  void SimulateCrash(bool tear_last_record = false);

  // Recovery scan: bumps the (durable) epoch, validates WAL CRCs, decodes
  // surviving transactions. Torn or undecodable records are dropped and
  // counted.
  RecoveredServerState Recover();

  // Proactive CRC sweep over the durable WAL; interior corruption is
  // quarantined and counted. The caller should force a compaction snapshot
  // afterwards so the intact in-memory image re-covers the hole.
  StableLog::ScrubReport ScrubWal();

  uint64_t epoch() const { return epoch_; }

  // Promotion fence: raises the durable epoch to at least `epoch` (never
  // lowers it). A backup taking over adopts one above anything the dead
  // primary ever used, so its responses are distinguishable from stale ones.
  void AdoptEpoch(uint64_t epoch) { epoch_ = std::max(epoch_, epoch); }

  // Highest WAL record id ever assigned by LogTransaction -- monotone across
  // crashes and compactions (the device outlives both). Doubles as the
  // replication sequence baseline when serving a resync snapshot.
  uint64_t last_logged_id() const { return last_logged_id_; }

  size_t WalRecordCount() const { return wal_.RecordCount(); }
  bool CompactionInProgress() const { return compaction_in_progress_; }
  const ServerStoreStats& stats() const { return stats_; }
  // The WAL log (and through it the fault-injectable device).
  StableLog* wal() { return &wal_; }

 private:
  struct Snapshot {
    bool valid = false;
    ObjectImage object_image;
    std::vector<CachedResponseEntry> responses;
  };

  EventLoop* loop_;
  ServerStoreOptions options_;
  // The WAL counts into its own registry, not the server node's: node
  // registries' "stable_log." counters are the client operation log's, and
  // sums over every node (the benchmark's log-flush ratios) must not mix in
  // WAL traffic. Declared before the WAL so it outlives the WAL's handles.
  obs::Registry wal_metrics_;
  StableLog wal_;
  Snapshot snapshot_;
  // Server incarnation; persisted trivially (a tiny durable cell), bumped by
  // every Recover() so clients can detect the restart.
  uint64_t epoch_ = 1;
  uint64_t last_logged_id_ = 0;
  bool compaction_in_progress_ = false;
  // Bumped by SimulateCrash so snapshot-completion events scheduled before
  // the crash abandon their swap.
  uint64_t crash_generation_ = 0;
  ServerStoreStats stats_;
};

}  // namespace rover

#endif  // ROVER_SRC_STORE_SERVER_STORE_H_

// Stable operation log (paper §5.2). Every QRPC is appended to a log on
// stable storage before it is handed to the network scheduler, so that a
// crash or battery pull never loses a queued operation. "The flush is on
// the critical path for message sending", which experiment E2 measures.
//
// The simulated device charges a fixed per-flush cost (seek + sync) plus a
// per-byte transfer cost, and can fail: transient write errors are retried
// with bounded jittered backoff, capacity exhaustion refuses the flush with
// kResourceExhausted, and a permanently failed sync is fail-stop (see
// SetFailStopHandler). Records carry a CRC32; SimulateCrash can tear the
// tail record, and recovery distinguishes a legitimate torn tail (truncated
// silently, as a real redo log would) from interior corruption -- bit rot in
// a record whose write was acknowledged -- which is quarantined and reported
// so upper layers can surface kDataLoss instead of silently losing work.

#ifndef ROVER_SRC_QRPC_STABLE_LOG_H_
#define ROVER_SRC_QRPC_STABLE_LOG_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/qrpc/stable_device.h"
#include "src/sim/event_loop.h"
#include "src/transport/overload.h"
#include "src/util/buffer.h"
#include "src/util/bytes.h"
#include "src/util/status.h"
#include "src/util/time.h"

namespace rover {

struct StableLogCostModel {
  // Fixed cost per flush: rotational/flash sync latency.
  Duration flush_base = Duration::Millis(8);
  // Sequential write bandwidth of the stable store.
  double write_bytes_per_sec = 2e6;
  // Group commit [Hagmann 87, cited by the paper as an optimization its
  // prototype skipped]: flushes requested while a device write is in
  // progress coalesce into one following write instead of queueing a
  // serial write each. A burst of N queued QRPCs then pays ~2 sync costs
  // instead of N. On by default; E2/E8 quantify the win.
  bool group_commit = true;
  // Transient device write errors are retried up to this many times with
  // decorrelated-jitter backoff before the flush fails with kUnavailable.
  size_t flush_max_retries = 4;
  Duration flush_retry_base = Duration::Millis(2);
  Duration flush_retry_max = Duration::Millis(200);

  Duration FlushCost(size_t bytes) const {
    return flush_base + Duration::Seconds(static_cast<double>(bytes) / write_bytes_per_sec);
  }
};

// Snapshot of the stable_log.flushes counter (see stats()), the one field
// the benchmark harness reads.
struct StableLogStats {
  uint64_t flushes = 0;
};

class StableLog {
 public:
  struct Record {
    uint64_t id = 0;
    // A Buffer so the log can retain the caller's payload without copying
    // it; simulated device damage (bit rot, torn writes) goes through
    // MutableData(), whose copy-on-write keeps other holders of the same
    // bytes intact.
    Buffer data;
    uint32_t crc = 0;  // CRC of what the device holds
    bool durable = false;
  };

  // Outcome of a recovery scan (see RecoverWithReport).
  struct RecoveryReport {
    size_t valid = 0;              // records that survive
    size_t torn_tail_dropped = 0;  // trailing CRC failures, silently truncated
    std::vector<uint64_t> quarantined;  // interior-corrupt record ids removed
  };

  struct ScrubReport {
    size_t scanned = 0;
    std::vector<uint64_t> quarantined;
  };

  // Runs when the flush terminally completes; a non-ok status means the
  // covered records did NOT become durable (kUnavailable: retries exhausted,
  // kResourceExhausted: device full, kDataLoss: permanent sync failure).
  using FlushCallback = std::function<void(const Status&)>;

  // Counts into `metrics` under "stable_log.".
  StableLog(EventLoop* loop, obs::Registry* metrics, StableLogCostModel cost_model = {},
            DiskFaultOptions disk_faults = {});

  // Appends a record to the in-memory tail (not yet durable). Returns its
  // id. Takes a Buffer: an rvalue Bytes adopts without copying, and a
  // payload already living in a Buffer is retained by refcount.
  uint64_t Append(Buffer data);

  // Makes all appended records durable. `done` runs once the (simulated)
  // device write terminally completes -- successfully or not; flushes are
  // serialized in FIFO order. Records already covered by an in-flight write
  // are not written again -- an overlapping flush only pays for (and charges
  // stats for) the remainder.
  void Flush(FlushCallback done);

  // True when no appended record is awaiting a flush.
  bool FullyDurable() const;

  // True while a simulated device write is in progress. Only then can a
  // crash physically tear a record; toolkit-level crash APIs gate their
  // tear flag on this so a record whose write completed (and may have been
  // acknowledged) is never retroactively corrupted.
  bool WriteInFlight() const {
    return write_in_progress_ || !flush_in_flight_ids_.empty();
  }

  // True when the device has room for a new record of `payload_bytes` on
  // top of everything already appended but not yet stored. The admission
  // path checks this before accepting a durable enqueue so a full disk
  // surfaces as kResourceExhausted at call time, not as a failed flush.
  bool HasSpaceFor(size_t payload_bytes) const;

  // Removes records with id <= `up_to_id` (they have been acknowledged).
  void Truncate(uint64_t up_to_id);

  // Removes one record anywhere in the log (e.g. a cancelled request).
  bool RemoveRecord(uint64_t id);

  // All durable records, oldest first.
  std::vector<Record> DurableRecords() const;

  size_t RecordCount() const { return records_.size(); }

  // Total payload bytes of records currently in the log (durable or not).
  // The QRPC client's admission control bounds this against its byte budget.
  size_t TotalBytes() const { return total_bytes_; }

  // The record with the given id, or nullptr. The pointer is invalidated by
  // any mutation of the log.
  const Record* FindRecord(uint64_t id) const;

  // The record's payload after a CRC check: a refcount bump, not a copy.
  // kDataLoss if the record is corrupt (CRC mismatch, i.e. latent bit rot
  // surfacing at read time).
  Result<Buffer> RecordPayload(const Record& rec) const;

  // Id of the oldest record still in the log, or 0 when empty.
  uint64_t FrontRecordId() const { return records_.empty() ? 0 : records_.front().id; }

  // Id of the newest record in the log, or 0 when empty. Snapshot-based
  // compaction captures this before writing a snapshot and truncates up to
  // it afterwards, leaving records appended meanwhile in place.
  uint64_t BackRecordId() const { return records_.empty() ? 0 : records_.back().id; }

  // Crash: in-memory (non-durable) records vanish. If `tear_last_record`,
  // the final durable record is corrupted as a torn write would.
  void SimulateCrash(bool tear_last_record = false);

  // Recovery scan: validates CRCs. Trailing CRC failures are a torn tail
  // and truncate silently (the pre-fault behaviour); a CRC failure with a
  // valid record after it is interior corruption -- the write was
  // acknowledged and later rotted -- and is quarantined and reported so the
  // caller can surface kDataLoss instead of silently losing work.
  RecoveryReport RecoverWithReport();

  // Compatibility wrapper: returns the number of surviving records.
  size_t Recover();

  // Proactive CRC sweep over durable records; interior corruption found
  // outside recovery is quarantined the same way.
  ScrubReport Scrub();

  // Plants latent corruption in a stored (durable) record, preferring an
  // interior one; `selector` picks among candidates deterministically.
  // Returns the damaged record's id, or 0 when no durable record exists.
  uint64_t InjectBitRot(uint64_t selector);

  // Runs (once per failure episode, asynchronously) when a flush fails
  // because the device's sync is permanently broken. The node layer treats
  // this as fail-stop: crash + device replacement, never an ack over a
  // lying device.
  void SetFailStopHandler(std::function<void()> handler) {
    fail_stop_handler_ = std::move(handler);
  }

  StableDevice* device() { return &device_; }
  const StableDevice* device() const { return &device_; }

  // Snapshot of the flush counter. Tests and benches read the registry by
  // name; this remains for the benchmark harness.
  StableLogStats stats() const;
  const StableLogCostModel& cost_model() const { return cost_model_; }

 private:
  // One terminal device write: the id set it covers, the bytes it charges,
  // and the flush callbacks waiting on it. Retries re-use the job; a crash
  // invalidates it via the generation stamp.
  struct WriteJob {
    std::vector<uint64_t> ids;  // sorted
    size_t bytes = 0;
    size_t attempt = 0;
    bool group = false;
    uint64_t generation = 0;
    std::vector<FlushCallback> callbacks;
  };

  void StartGroupWrite();
  void ScheduleAttempt(std::shared_ptr<WriteJob> job);
  void CompleteWrite(const std::shared_ptr<WriteJob>& job, const Status& status);
  void MarkDurable(const WriteJob& job);
  void ChargeWrite(size_t bytes, Duration cost);
  size_t PendingStoredBytes() const;

  EventLoop* loop_;
  StableLogCostModel cost_model_;
  StableDevice device_;
  DecorrelatedJitterBackoff flush_backoff_;
  std::function<void()> fail_stop_handler_;
  std::deque<Record> records_;
  uint64_t next_id_ = 1;
  size_t total_bytes_ = 0;  // sum of records_[i].data.size()
  TimePoint flush_busy_until_ = TimePoint::Epoch();
  // Ids covered by a device write that has started but not completed;
  // overlapping flushes skip these instead of charging for them twice.
  std::set<uint64_t> flush_in_flight_ids_;
  // Group-commit state.
  bool write_in_progress_ = false;
  std::vector<FlushCallback> waiting_flushes_;
  // Bumped by SimulateCrash; pending write completions and retries from
  // before the crash notice the stamp changed and do nothing.
  uint64_t crash_generation_ = 0;

  obs::Counter* const c_appends_;
  obs::Counter* const c_flushes_;
  obs::Counter* const c_bytes_flushed_;
  obs::Counter* const c_flush_time_micros_;
  obs::Counter* const c_flush_transient_errors_;  // device write errors observed
  obs::Counter* const c_flush_retries_;           // retry attempts scheduled
  obs::Counter* const c_flush_failures_;          // flushes that terminally failed
  obs::Counter* const c_flush_enospc_;            // flushes refused for capacity
  obs::Counter* const c_flush_sync_failures_;     // flushes failed by a dead sync
  obs::Counter* const c_records_quarantined_;     // interior-corrupt records removed
  obs::Counter* const c_torn_tail_dropped_;
  obs::Gauge* const g_device_used_bytes_;
  obs::Histogram* const h_flush_seconds_;
};

}  // namespace rover

#endif  // ROVER_SRC_QRPC_STABLE_LOG_H_

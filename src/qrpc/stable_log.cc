#include "src/qrpc/stable_log.h"

#include <memory>

#include <algorithm>
#include <utility>

#include "src/obs/cpu_scope.h"
#include "src/util/crc32.h"

namespace rover {

namespace {
constexpr size_t kRecordFraming = 16;  // id + length + crc framing bytes
}  // namespace

StableLog::StableLog(EventLoop* loop, obs::Registry* metrics, StableLogCostModel cost_model,
                     DiskFaultOptions disk_faults)
    : loop_(loop),
      cost_model_(cost_model),
      device_(disk_faults),
      flush_backoff_(cost_model.flush_retry_base, cost_model.flush_retry_max,
                     disk_faults.seed ^ 0xf1005bacc0ffULL),
      c_appends_(metrics->counter("stable_log.appends")),
      c_flushes_(metrics->counter("stable_log.flushes")),
      c_bytes_flushed_(metrics->counter("stable_log.bytes_flushed")),
      c_flush_time_micros_(metrics->counter("stable_log.flush_time_micros")),
      c_flush_transient_errors_(metrics->counter("stable_log.flush_transient_errors")),
      c_flush_retries_(metrics->counter("stable_log.flush_retries")),
      c_flush_failures_(metrics->counter("stable_log.flush_failures")),
      c_flush_enospc_(metrics->counter("stable_log.flush_enospc")),
      c_flush_sync_failures_(metrics->counter("stable_log.flush_sync_failures")),
      c_records_quarantined_(metrics->counter("stable_log.records_quarantined")),
      c_torn_tail_dropped_(metrics->counter("stable_log.torn_tail_records_dropped")),
      g_device_used_bytes_(metrics->gauge("stable_log.device_used_bytes")),
      h_flush_seconds_(metrics->histogram("stable_log.flush_seconds")) {
  g_device_used_bytes_->Set(static_cast<int64_t>(device_.used_bytes()));
}

StableLogStats StableLog::stats() const {
  StableLogStats s;
  s.flushes = c_flushes_->value();
  return s;
}

void StableLog::ChargeWrite(size_t bytes, Duration cost) {
  c_flushes_->Increment();
  c_bytes_flushed_->Increment(bytes);
  c_flush_time_micros_->Increment(static_cast<uint64_t>(cost.micros()));
  h_flush_seconds_->Observe(cost.seconds());
}

size_t StableLog::PendingStoredBytes() const {
  size_t bytes = 0;
  for (const Record& rec : records_) {
    if (!rec.durable) {
      bytes += rec.data.size() + kRecordFraming;
    }
  }
  return bytes;
}

bool StableLog::HasSpaceFor(size_t payload_bytes) const {
  return device_.HasSpaceFor(PendingStoredBytes() + payload_bytes + kRecordFraming);
}

uint64_t StableLog::Append(Buffer data) {
  Record rec;
  rec.id = next_id_++;
  rec.data = std::move(data);
  rec.crc = Crc32(rec.data.data(), rec.data.size());
  rec.durable = false;
  total_bytes_ += rec.data.size();
  records_.push_back(std::move(rec));
  c_appends_->Increment();
  return records_.back().id;
}

const StableLog::Record* StableLog::FindRecord(uint64_t id) const {
  for (const Record& rec : records_) {
    if (rec.id == id) {
      return &rec;
    }
  }
  return nullptr;
}

Result<Buffer> StableLog::RecordPayload(const Record& rec) const {
  if (Crc32(rec.data.data(), rec.data.size()) != rec.crc) {
    return DataLossError("stable log: record CRC mismatch (latent corruption)");
  }
  return rec.data;  // refcount bump; no copy
}

void StableLog::Flush(FlushCallback done) {
  obs::CpuScope cpu(obs::CpuZone::kWalFlush);
  if (cost_model_.group_commit) {
    waiting_flushes_.push_back(std::move(done));
    if (!write_in_progress_) {
      StartGroupWrite();
    }
    return;
  }
  // Collect only records no write is covering yet: an overlapping flush
  // must not re-write (and re-charge for) bytes already on their way to
  // the device.
  auto job = std::make_shared<WriteJob>();
  job->group = false;
  job->generation = crash_generation_;
  for (const Record& rec : records_) {
    if (!rec.durable && flush_in_flight_ids_.count(rec.id) == 0) {
      job->bytes += rec.data.size() + kRecordFraming;
      job->ids.push_back(rec.id);
    }
  }
  if (job->ids.empty()) {
    // Nothing new to write. Completion still waits for any in-flight
    // writes (the durability point this flush was asked to reach), or runs
    // asynchronously right away when the log is already durable. NOTE: the
    // serial path's overlap shortcut reports Ok without re-checking the
    // overlapped write's outcome; group commit is the fault-accurate path.
    if (done) {
      auto run = [done = std::move(done)] { done(Status::Ok()); };
      if (flush_in_flight_ids_.empty()) {
        loop_->ScheduleAfter(Duration::Zero(), std::move(run));
      } else {
        loop_->ScheduleAt(flush_busy_until_, std::move(run));
      }
    }
    return;
  }
  if (done) {
    job->callbacks.push_back(std::move(done));
  }
  flush_in_flight_ids_.insert(job->ids.begin(), job->ids.end());
  ScheduleAttempt(std::move(job));
}

void StableLog::StartGroupWrite() {
  // One device write covers every record appended so far; flush requests
  // arriving while it runs join the *next* write.
  auto job = std::make_shared<WriteJob>();
  job->group = true;
  job->generation = crash_generation_;
  for (const Record& rec : records_) {
    if (!rec.durable) {
      job->bytes += rec.data.size() + kRecordFraming;
      job->ids.push_back(rec.id);
    }
  }
  job->callbacks = std::move(waiting_flushes_);
  waiting_flushes_.clear();
  if (job->ids.empty()) {
    loop_->ScheduleAfter(Duration::Zero(), [job] {
      for (auto& cb : job->callbacks) {
        if (cb) {
          cb(Status::Ok());
        }
      }
    });
    return;
  }
  write_in_progress_ = true;
  ScheduleAttempt(std::move(job));
}

void StableLog::ScheduleAttempt(std::shared_ptr<WriteJob> job) {
  // Fail fast -- without burning device time -- when the write cannot
  // possibly succeed: the sync is permanently dead, or capacity cannot hold
  // the job. Completion still runs asynchronously so callers never see
  // their callback re-enter them from inside Flush().
  Status precheck = Status::Ok();
  if (device_.sync_failed()) {
    c_flush_sync_failures_->Increment();
    precheck = DataLossError("stable device: sync permanently failed");
  } else if (!device_.HasSpaceFor(job->bytes)) {
    c_flush_enospc_->Increment();
    precheck = ResourceExhaustedError("stable device: out of space");
  }
  if (!precheck.ok()) {
    loop_->ScheduleAfter(Duration::Zero(), [this, job, precheck] {
      if (job->generation != crash_generation_) {
        return;
      }
      CompleteWrite(job, precheck);
    });
    return;
  }
  const Duration cost = cost_model_.FlushCost(job->bytes);
  TimePoint finish;
  if (job->group) {
    finish = loop_->now() + cost;
  } else {
    const TimePoint start = std::max(loop_->now(), flush_busy_until_);
    finish = start + cost;
    flush_busy_until_ = finish;
  }
  ChargeWrite(job->bytes, cost);
  loop_->ScheduleAt(finish, [this, job] {
    if (job->generation != crash_generation_) {
      return;  // the node crashed mid-write; recovery re-validates the log
    }
    switch (device_.Write(job->bytes)) {
      case StableDevice::WriteOutcome::kOk:
        MarkDurable(*job);
        CompleteWrite(job, Status::Ok());
        return;
      case StableDevice::WriteOutcome::kTransientError: {
        c_flush_transient_errors_->Increment();
        if (job->attempt >= cost_model_.flush_max_retries) {
          CompleteWrite(job, UnavailableError(
                                 "stable device: flush retries exhausted"));
          return;
        }
        ++job->attempt;
        c_flush_retries_->Increment();
        const Duration delay = flush_backoff_.Next();
        if (!job->group) {
          flush_busy_until_ = std::max(flush_busy_until_, loop_->now() + delay);
        }
        loop_->ScheduleAfter(delay, [this, job] {
          if (job->generation != crash_generation_) {
            return;
          }
          ScheduleAttempt(job);
        });
        return;
      }
      case StableDevice::WriteOutcome::kNoSpace:
        c_flush_enospc_->Increment();
        CompleteWrite(job, ResourceExhaustedError("stable device: out of space"));
        return;
      case StableDevice::WriteOutcome::kSyncFailed:
        c_flush_sync_failures_->Increment();
        CompleteWrite(job, DataLossError("stable device: sync permanently failed"));
        return;
    }
  });
}

void StableLog::MarkDurable(const WriteJob& job) {
  for (Record& rec : records_) {
    if (std::binary_search(job.ids.begin(), job.ids.end(), rec.id)) {
      rec.durable = true;
      // The write succeeded, but flash can still rot: plant latent damage
      // the CRC scan will surface at read/recovery time. MutableData() is
      // copy-on-write: rot on the device never reaches other holders of
      // the same payload bytes (in-flight messages, caches).
      if (!rec.data.empty() && device_.DrawBitRot()) {
        rec.data.MutableData()[rec.data.size() / 3] ^= 0x24;
      }
    }
  }
  g_device_used_bytes_->Set(static_cast<int64_t>(device_.used_bytes()));
  flush_backoff_.Reset();
}

void StableLog::CompleteWrite(const std::shared_ptr<WriteJob>& job,
                              const Status& status) {
  if (job->group) {
    write_in_progress_ = false;
  } else {
    for (uint64_t id : job->ids) {
      flush_in_flight_ids_.erase(id);
    }
  }
  if (!status.ok()) {
    c_flush_failures_->Increment();
    if (status.code() == StatusCode::kDataLoss && fail_stop_handler_) {
      // Permanent sync failure: hand control to the node's fail-stop policy
      // (crash + device replacement). Deduplication happens there -- the
      // handler checks whether the device is still broken.
      loop_->ScheduleAfter(Duration::Zero(), [handler = fail_stop_handler_] {
        handler();
      });
    }
  }
  for (auto& cb : job->callbacks) {
    if (cb) {
      cb(status);
    }
  }
  if (job->group && !waiting_flushes_.empty()) {
    StartGroupWrite();
  }
}

bool StableLog::FullyDurable() const {
  for (const Record& rec : records_) {
    if (!rec.durable) {
      return false;
    }
  }
  return true;
}

void StableLog::Truncate(uint64_t up_to_id) {
  while (!records_.empty() && records_.front().id <= up_to_id) {
    total_bytes_ -= records_.front().data.size();
    if (records_.front().durable) {
      device_.Release(records_.front().data.size() + kRecordFraming);
    }
    records_.pop_front();
  }
  g_device_used_bytes_->Set(static_cast<int64_t>(device_.used_bytes()));
}

bool StableLog::RemoveRecord(uint64_t id) {
  for (auto it = records_.begin(); it != records_.end(); ++it) {
    if (it->id == id) {
      total_bytes_ -= it->data.size();
      if (it->durable) {
        device_.Release(it->data.size() + kRecordFraming);
      }
      records_.erase(it);
      g_device_used_bytes_->Set(static_cast<int64_t>(device_.used_bytes()));
      return true;
    }
  }
  return false;
}

std::vector<StableLog::Record> StableLog::DurableRecords() const {
  std::vector<Record> out;
  for (const Record& rec : records_) {
    if (rec.durable) {
      out.push_back(rec);
    }
  }
  return out;
}

void StableLog::SimulateCrash(bool tear_last_record) {
  // If a device write was in progress, its newest record may have partially
  // reached the platter: with tear_last_record it survives as a torn record
  // (kept, marked durable, bytes damaged) for Recover()'s CRC scan to
  // reject, instead of vanishing silently with the volatile tail.
  bool tore_in_flight = false;
  if (tear_last_record) {
    for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
      if (it->durable) {
        break;
      }
      const bool being_written =
          flush_in_flight_ids_.count(it->id) > 0 || write_in_progress_;
      if (being_written) {
        it->durable = true;
        if (it->data.empty()) {
          it->data = Buffer(Bytes{0xff});
          ++total_bytes_;
        } else {
          it->data.MutableData()[it->data.size() / 2] ^= 0x5a;
        }
        // The partial write occupies device space even though its Write()
        // never completed.
        device_.Charge(it->data.size() + kRecordFraming);
        tore_in_flight = true;
        break;
      }
    }
  }
  // Volatile tail is lost.
  while (!records_.empty() && !records_.back().durable) {
    total_bytes_ -= records_.back().data.size();
    records_.pop_back();
  }
  if (tear_last_record && !tore_in_flight && !records_.empty()) {
    Record& last = records_.back();
    if (last.data.empty()) {
      last.data = Buffer(Bytes{0xff});  // garbage byte; CRC of empty no longer matches
      ++total_bytes_;
    } else {
      last.data.MutableData()[last.data.size() / 2] ^= 0x5a;
    }
  }
  // Pending write completions and retries stamp the old generation and do
  // nothing when they fire; Recover() re-validates everything.
  ++crash_generation_;
  flush_busy_until_ = loop_->now();
  flush_in_flight_ids_.clear();
  write_in_progress_ = false;
  waiting_flushes_.clear();
  flush_backoff_.Reset();
}

StableLog::RecoveryReport StableLog::RecoverWithReport() {
  RecoveryReport report;
  // Gather durable records (the volatile tail died with the crash) and find
  // the last one whose CRC still checks out: failures after it form the
  // torn tail -- legitimate power-cut damage, truncated silently as a real
  // redo log would -- while failures before it are interior corruption on
  // records whose writes were acknowledged, which must be surfaced.
  std::deque<Record> durable;
  for (Record& rec : records_) {
    if (rec.durable) {
      durable.push_back(std::move(rec));
    }
  }
  std::vector<bool> valid(durable.size(), false);
  size_t last_valid = durable.size();  // i.e. "none"
  for (size_t i = 0; i < durable.size(); ++i) {
    valid[i] = Crc32(durable[i].data.data(), durable[i].data.size()) ==
               durable[i].crc;
    if (valid[i]) {
      last_valid = i;
    }
  }
  std::deque<Record> out;
  for (size_t i = 0; i < durable.size(); ++i) {
    if (valid[i]) {
      out.push_back(std::move(durable[i]));
      continue;
    }
    device_.Release(durable[i].data.size() + kRecordFraming);
    if (last_valid != durable.size() && i < last_valid) {
      report.quarantined.push_back(durable[i].id);
      c_records_quarantined_->Increment();
    } else {
      ++report.torn_tail_dropped;
      c_torn_tail_dropped_->Increment();
    }
  }
  records_ = std::move(out);
  total_bytes_ = 0;
  for (const Record& rec : records_) {
    total_bytes_ += rec.data.size();
  }
  g_device_used_bytes_->Set(static_cast<int64_t>(device_.used_bytes()));
  report.valid = records_.size();
  return report;
}

size_t StableLog::Recover() { return RecoverWithReport().valid; }

StableLog::ScrubReport StableLog::Scrub() {
  ScrubReport report;
  std::deque<Record> out;
  for (Record& rec : records_) {
    if (rec.durable) {
      ++report.scanned;
      if (Crc32(rec.data.data(), rec.data.size()) != rec.crc) {
        report.quarantined.push_back(rec.id);
        c_records_quarantined_->Increment();
        device_.Release(rec.data.size() + kRecordFraming);
        total_bytes_ -= rec.data.size();
        continue;
      }
    }
    out.push_back(std::move(rec));
  }
  records_ = std::move(out);
  g_device_used_bytes_->Set(static_cast<int64_t>(device_.used_bytes()));
  return report;
}

uint64_t StableLog::InjectBitRot(uint64_t selector) {
  std::vector<Record*> candidates;
  for (Record& rec : records_) {
    if (rec.durable && !rec.data.empty()) {
      candidates.push_back(&rec);
    }
  }
  if (candidates.empty()) {
    return 0;
  }
  // Prefer an interior record: the last durable record could be mistaken
  // for a torn tail, which is exactly the distinction under test.
  if (candidates.size() > 1) {
    candidates.pop_back();
  }
  Record* victim = candidates[selector % candidates.size()];
  // CoW mutation: rot lands on the stored record only, never on live
  // aliases of the payload elsewhere in the system.
  victim->data.MutableData()[victim->data.size() / 2] ^= 0x3c;
  return victim->id;
}

}  // namespace rover

#include "src/core/fault_plan.h"

#include <utility>

namespace rover {

void FaultPlan::CrashServerAt(RoverServerNode* server, TimePoint t, bool tear_last_record) {
  loop_->ScheduleAt(t, [this, server, tear_last_record] {
    server->SimulateCrashAndRestart(tear_last_record);
    ++server_crashes_executed_;
  });
}

void FaultPlan::CrashClientAt(RoverClientNode* client, TimePoint t, bool tear_last_record) {
  loop_->ScheduleAt(t, [this, client, tear_last_record] {
    client->SimulateCrashAndRestart(tear_last_record);
    ++client_crashes_executed_;
  });
}

void FaultPlan::ScheduleRandomFaults(RoverServerNode* server,
                                     const std::vector<RoverClientNode*>& clients,
                                     RandomFaultOptions options) {
  const uint64_t span = static_cast<uint64_t>(options.horizon.micros());
  auto random_time = [this, span] {
    return TimePoint::FromMicros(static_cast<int64_t>(rng_.NextBelow(span > 0 ? span : 1)));
  };
  for (size_t i = 0; i < options.server_crashes; ++i) {
    CrashServerAt(server, random_time(), rng_.NextBool(options.tear_probability));
  }
  for (RoverClientNode* client : clients) {
    for (size_t i = 0; i < options.client_crashes; ++i) {
      CrashClientAt(client, random_time(), rng_.NextBool(options.tear_probability));
    }
  }
}

void FaultPlan::ScheduleFailover(RoverServerNode* primary, RoverServerNode* backup,
                                 const std::vector<RoverClientNode*>& clients,
                                 FailoverOptions options) {
  TimePoint kill_at = options.at;
  if (kill_at == TimePoint::Epoch()) {
    const uint64_t span = static_cast<uint64_t>(options.horizon.micros());
    kill_at = TimePoint::FromMicros(
        static_cast<int64_t>(rng_.NextBelow(span > 0 ? span : 1)));
  }
  loop_->ScheduleAt(kill_at, [this, primary] {
    primary->Kill();
    ++failovers_executed_;
  });
  loop_->ScheduleAt(kill_at + options.detection_delay, [backup, clients] {
    backup->Promote();
    for (RoverClientNode* client : clients) {
      client->qrpc()->TriggerFailover();
    }
  });
}

void FaultPlan::ScheduleRandomDiskFaults(RoverServerNode* server,
                                         const std::vector<RoverClientNode*>& clients,
                                         DiskFaultScheduleOptions options) {
  if (server != nullptr) {
    ScheduleDeviceFaults(server->stable_store()->wal(), options);
  }
  for (RoverClientNode* client : clients) {
    ScheduleDeviceFaults(client->log(), options);
  }
}

void FaultPlan::ScheduleDeviceFaults(StableLog* log,
                                     const DiskFaultScheduleOptions& options) {
  // The StableLog (and its device) models hardware: it outlives simulated
  // crash-restarts, so capturing the pointer here is safe.
  const uint64_t span = static_cast<uint64_t>(options.horizon.micros());
  auto random_time = [this, span] {
    return TimePoint::FromMicros(static_cast<int64_t>(rng_.NextBelow(span > 0 ? span : 1)));
  };
  for (size_t i = 0; i < options.transient_bursts; ++i) {
    const size_t errors =
        1 + rng_.NextBelow(options.max_burst_errors > 0 ? options.max_burst_errors : 1);
    loop_->ScheduleAt(random_time(), [this, log, errors] {
      log->device()->InjectTransientWriteErrors(errors);
      ++disk_faults_injected_;
    });
  }
  for (size_t i = 0; i < options.disk_full_episodes; ++i) {
    // Clamp capacity to what is already used (plus a little slack) at a
    // random time, then free the device again after an exponential hold --
    // truncated to the horizon so every episode ends inside the window.
    const TimePoint start = random_time();
    Duration hold =
        Duration::Seconds(rng_.NextExponential(options.disk_full_mean.seconds()));
    if (hold < Duration::Millis(10)) {
      hold = Duration::Millis(10);
    }
    TimePoint end = start + hold;
    const TimePoint horizon_end = TimePoint::Epoch() + options.horizon;
    if (end > horizon_end) {
      end = horizon_end;
    }
    const size_t slack = 64 + rng_.NextBelow(512);
    loop_->ScheduleAt(start, [this, log, slack] {
      log->device()->ClampCapacityToUsed(slack);
      ++disk_faults_injected_;
    });
    loop_->ScheduleAt(end, [log] { log->device()->SetCapacityBytes(0); });
  }
  for (size_t i = 0; i < options.bitrot_injections; ++i) {
    const uint64_t selector = rng_.NextU64();
    loop_->ScheduleAt(random_time(), [this, log, selector] {
      log->InjectBitRot(selector);
      ++disk_faults_injected_;
    });
  }
  if (options.sync_fail_probability > 0 && rng_.NextBool(options.sync_fail_probability)) {
    loop_->ScheduleAt(random_time(), [this, log] {
      log->device()->FailSyncPermanently();
      ++disk_faults_injected_;
    });
  }
}

std::unique_ptr<IntervalConnectivity> FaultPlan::FlappyConnectivity(Duration mean_up,
                                                                    Duration mean_down,
                                                                    Duration horizon) {
  std::vector<IntervalConnectivity::Interval> intervals;
  TimePoint t = TimePoint::Epoch();
  const TimePoint end = TimePoint::Epoch() + horizon;
  bool up = true;
  while (t < end) {
    Duration span = Duration::Seconds(
        rng_.NextExponential((up ? mean_up : mean_down).seconds()));
    if (span < Duration::Millis(1)) {
      span = Duration::Millis(1);  // guarantee forward progress
    }
    if (up) {
      TimePoint finish = t + span;
      if (finish > end) {
        finish = end;
      }
      intervals.push_back({t, finish});
    }
    t = t + span;
    up = !up;
  }
  // Permanently up after the fault window, so queued work always drains.
  intervals.push_back({end, TimePoint::FromMicros(INT64_MAX)});
  return std::make_unique<IntervalConnectivity>(std::move(intervals));
}

}  // namespace rover

// Deterministic fault-injection plans for chaos testing. A FaultPlan
// schedules client/server crash-restarts (optionally tearing the last
// stable-log record, as a power cut mid-write would) and builds seeded
// flappy-link connectivity schedules, either at explicit times or at
// seeded-random times over a horizon. Every draw comes from one seeded
// Rng, so a failing schedule replays exactly from its seed.

#ifndef ROVER_SRC_CORE_FAULT_PLAN_H_
#define ROVER_SRC_CORE_FAULT_PLAN_H_

#include <memory>
#include <vector>

#include "src/core/toolkit.h"
#include "src/sim/connectivity.h"
#include "src/sim/event_loop.h"
#include "src/util/rng.h"
#include "src/util/time.h"

namespace rover {

struct RandomFaultOptions {
  Duration horizon = Duration::Seconds(60);  // faults fall in [0, horizon)
  size_t server_crashes = 1;
  size_t client_crashes = 1;   // per client
  // Probability a crash also tears the record under the in-flight device
  // write (power cut mid-write).
  double tear_probability = 0.5;
};

// Failover injection: kill the primary for good at a (possibly seeded-
// random) time, then -- one failure-detection delay later -- promote the
// backup and engage every client's failover route. The delay models the
// time real detectors (missed heartbeats, broken connections) need; during
// it, in-flight work is neither answered nor re-routed.
struct FailoverOptions {
  // Explicit kill time; unset (epoch) = drawn uniformly over [0, horizon).
  TimePoint at = TimePoint::Epoch();
  Duration horizon = Duration::Seconds(60);
  Duration detection_delay = Duration::Millis(200);
};

// Seeded storage-fault schedule over the same horizon: transient write-error
// bursts, bounded disk-full episodes (always freed before the horizon ends so
// post-fault convergence stays reachable), latent bit rot, and -- rarely --
// a permanent sync failure (fail-stop at the node layer).
struct DiskFaultScheduleOptions {
  Duration horizon = Duration::Seconds(60);
  size_t transient_bursts = 2;      // per device
  size_t max_burst_errors = 4;      // forced errors per burst, 1..max
  size_t disk_full_episodes = 1;    // per device
  Duration disk_full_mean = Duration::Seconds(5);  // mean episode length
  size_t bitrot_injections = 1;     // per device
  double sync_fail_probability = 0.0;  // per device, at most one
};

class FaultPlan {
 public:
  FaultPlan(EventLoop* loop, uint64_t seed) : loop_(loop), rng_(seed) {}

  // Explicit schedule: crash + restart the node at `t`.
  void CrashServerAt(RoverServerNode* server, TimePoint t, bool tear_last_record = false);
  void CrashClientAt(RoverClientNode* client, TimePoint t, bool tear_last_record = false);

  // Seeded-random schedule: crashes uniformly over the horizon.
  void ScheduleRandomFaults(RoverServerNode* server,
                            const std::vector<RoverClientNode*>& clients,
                            RandomFaultOptions options = {});

  // Kills `primary` permanently (Kill(), links down for good), then after
  // `detection_delay` promotes `backup` and calls TriggerFailover on every
  // client's QRPC engine. Works with any kill time, including mid-WAL-flush
  // or mid-coalesce -- whatever the simulation happens to be doing then.
  void ScheduleFailover(RoverServerNode* primary, RoverServerNode* backup,
                        const std::vector<RoverClientNode*>& clients,
                        FailoverOptions options = {});

  // Seeded-random storage faults against every node's stable device (the
  // server's WAL and each client's operation log). All randomness is drawn
  // at schedule time, so a plan replays exactly from its seed regardless of
  // how the simulation interleaves.
  void ScheduleRandomDiskFaults(RoverServerNode* server,
                                const std::vector<RoverClientNode*>& clients,
                                DiskFaultScheduleOptions options = {});

  // Random up/down connectivity over [0, horizon), permanently up from the
  // horizon onwards -- unlike MakeRandomConnectivity, whose schedule ends
  // down forever, so post-fault convergence is always reachable.
  std::unique_ptr<IntervalConnectivity> FlappyConnectivity(Duration mean_up,
                                                           Duration mean_down,
                                                           Duration horizon);

  Rng* rng() { return &rng_; }
  size_t server_crashes_executed() const { return server_crashes_executed_; }
  size_t client_crashes_executed() const { return client_crashes_executed_; }
  size_t disk_faults_injected() const { return disk_faults_injected_; }
  size_t failovers_executed() const { return failovers_executed_; }

 private:
  void ScheduleDeviceFaults(StableLog* log, const DiskFaultScheduleOptions& options);

  EventLoop* loop_;
  Rng rng_;
  size_t server_crashes_executed_ = 0;
  size_t client_crashes_executed_ = 0;
  size_t disk_faults_injected_ = 0;  // storage-fault events executed
  size_t failovers_executed_ = 0;    // primary kills + promotions executed
};

}  // namespace rover

#endif  // ROVER_SRC_CORE_FAULT_PLAN_H_

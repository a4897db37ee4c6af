// Connectivity schedules model a mobile host's intermittent network
// attachment: always-connected office Ethernet, periodic "docking", or a
// randomized walk between coverage and dead zones. A schedule answers two
// questions the transport layer needs: is the interface up at time t, and
// when is the next state transition?

#ifndef ROVER_SRC_SIM_CONNECTIVITY_H_
#define ROVER_SRC_SIM_CONNECTIVITY_H_

#include <memory>
#include <vector>

#include "src/util/rng.h"
#include "src/util/time.h"

namespace rover {

class ConnectivitySchedule {
 public:
  virtual ~ConnectivitySchedule() = default;

  virtual bool IsUp(TimePoint t) const = 0;

  // The next time strictly after `t` at which IsUp changes value, or
  // TimePoint::FromMicros(INT64_MAX) if the state never changes again.
  virtual TimePoint NextTransition(TimePoint t) const = 0;

  // Earliest time >= t at which the link is up (t itself if up at t).
  TimePoint NextUpTime(TimePoint t) const;
};

// Permanently up (or permanently down).
class ConstantConnectivity : public ConnectivitySchedule {
 public:
  explicit ConstantConnectivity(bool up) : up_(up) {}
  bool IsUp(TimePoint t) const override { return up_; }
  TimePoint NextTransition(TimePoint t) const override;

 private:
  bool up_;
};

// Repeats: up for `up_duration`, then down for `down_duration`, starting
// (up) at `phase`. Before `phase` the link is down.
class PeriodicConnectivity : public ConnectivitySchedule {
 public:
  PeriodicConnectivity(Duration up_duration, Duration down_duration,
                       TimePoint phase = TimePoint::Epoch());
  bool IsUp(TimePoint t) const override;
  TimePoint NextTransition(TimePoint t) const override;

 private:
  Duration up_;
  Duration down_;
  TimePoint phase_;
};

// An explicit, sorted list of [start, end) up-intervals; down elsewhere.
class IntervalConnectivity : public ConnectivitySchedule {
 public:
  struct Interval {
    TimePoint start;
    TimePoint end;
  };
  explicit IntervalConnectivity(std::vector<Interval> up_intervals);
  bool IsUp(TimePoint t) const override;
  TimePoint NextTransition(TimePoint t) const override;

 private:
  std::vector<Interval> intervals_;
};

// Draws alternating up/down period lengths from exponential distributions
// (pre-generated over `horizon` so lookups are deterministic and O(log n)).
std::unique_ptr<IntervalConnectivity> MakeRandomConnectivity(Rng* rng, Duration mean_up,
                                                             Duration mean_down,
                                                             Duration horizon,
                                                             bool start_up = true);

}  // namespace rover

#endif  // ROVER_SRC_SIM_CONNECTIVITY_H_

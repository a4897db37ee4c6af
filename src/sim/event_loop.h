// Discrete-event simulation core. A single EventLoop owns virtual time for
// one simulated world; every component (links, transports, QRPC engines,
// applications) schedules callbacks on it. Events at equal timestamps run
// in scheduling order, which keeps runs fully deterministic.
//
// Storage is one binary min-heap ordered by (time, seq) plus the set of
// live ids (scheduled, not yet run, not cancelled). Cancel only erases the
// id, so the heap entry stays behind as a tombstone that is dropped when it
// reaches the front. Timers that are mostly cancelled before they fire --
// deadlines, TTLs, breaker cooldowns -- would otherwise pile up, so the
// loop compacts the heap once tombstones are at least 64 and more than
// half of it, keeping memory and pop cost proportional to live events
// (see docs/architecture.md "Timer storage").

#ifndef ROVER_SRC_SIM_EVENT_LOOP_H_
#define ROVER_SRC_SIM_EVENT_LOOP_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_set>
#include <vector>

#include "src/util/time.h"

namespace rover {

using EventId = uint64_t;
constexpr EventId kInvalidEventId = 0;

class EventLoop {
 public:
  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  TimePoint now() const { return now_; }

  // Schedules `fn` to run at absolute time `t` (clamped to now()).
  EventId ScheduleAt(TimePoint t, std::function<void()> fn);

  // Schedules `fn` to run `d` after now().
  EventId ScheduleAfter(Duration d, std::function<void()> fn);

  // Cancels a pending event. Returns false if it already ran or is unknown.
  bool Cancel(EventId id);

  // Runs events until the queue is empty. Returns the number executed.
  size_t Run();

  // Runs events with timestamp <= t, then advances now() to t.
  size_t RunUntil(TimePoint t);

  // RunUntil(now() + d).
  size_t RunFor(Duration d);

  // Runs at most one pending event. Returns false if the queue was empty.
  bool Step();

  // Timestamp of the next live (non-cancelled) event, if any. Does not
  // advance time.
  std::optional<TimePoint> NextEventTime();

  // Live (non-cancelled) events.
  size_t pending_events() const { return live_.size(); }

  // Guard against runaway simulations: Run() aborts (returns) after this
  // many events. Default is 200M, far above any experiment in this repo.
  void set_event_limit(size_t limit) { event_limit_ = limit; }

  // Always 0: there is no timer wheel, every event lives in the heap. Kept
  // for the benchmark harness, which samples it alongside the heap size.
  size_t wheel_resident_events() const { return 0; }
  // Physical heap entries, including not-yet-reclaimed tombstones.
  size_t heap_physical_size() const { return heap_.size(); }

 private:
  struct Event {
    TimePoint when;
    uint64_t seq;
    std::function<void()> fn;
  };
  struct EventOrder {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) {
        return a.when > b.when;  // min-heap on time
      }
      return a.seq > b.seq;  // FIFO among ties
    }
  };

  void CompactHeapIfNeeded();
  // Pops heap entries with when <= t, discarding tombstones, and runs the
  // first live one. False when no live event at or before t remains.
  bool RunNext(TimePoint t);

  TimePoint now_ = TimePoint::Epoch();
  uint64_t next_seq_ = 1;
  size_t event_limit_ = 200'000'000;

  std::vector<Event> heap_;
  std::unordered_set<uint64_t> live_;  // heap entries not in here are tombstones
};

}  // namespace rover

#endif  // ROVER_SRC_SIM_EVENT_LOOP_H_

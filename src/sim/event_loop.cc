#include "src/sim/event_loop.h"

#include <algorithm>
#include <utility>

#include "src/obs/cpu_scope.h"

namespace rover {

namespace {
constexpr TimePoint kNoBound = TimePoint::FromMicros(INT64_MAX);
}  // namespace

EventId EventLoop::ScheduleAt(TimePoint t, std::function<void()> fn) {
  if (t < now_) {
    t = now_;
  }
  const uint64_t seq = next_seq_++;
  live_.insert(seq);
  heap_.push_back(Event{t, seq, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), EventOrder{});
  return seq;
}

EventId EventLoop::ScheduleAfter(Duration d, std::function<void()> fn) {
  return ScheduleAt(now_ + d, std::move(fn));
}

bool EventLoop::Cancel(EventId id) {
  // The heap entry becomes a tombstone, reclaimed at pop or by compaction.
  if (live_.erase(id) == 0) {
    return false;  // already ran, already cancelled, or unknown
  }
  CompactHeapIfNeeded();
  return true;
}

void EventLoop::CompactHeapIfNeeded() {
  // Rebuild once tombstones outnumber live entries (and are worth the
  // walk): memory and per-pop skip cost stay proportional to live events.
  const size_t tombstones = heap_.size() - live_.size();
  if (tombstones < 64 || tombstones * 2 <= heap_.size()) {
    return;
  }
  auto live_end = std::remove_if(heap_.begin(), heap_.end(), [this](const Event& ev) {
    return live_.count(ev.seq) == 0;
  });
  heap_.erase(live_end, heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), EventOrder{});
}

bool EventLoop::RunNext(TimePoint t) {
  std::function<void()> fn;
  {
    obs::CpuScope cpu(obs::CpuZone::kEventLoopPop);
    for (;;) {
      // A tombstone front bounds every live entry from below, so stopping
      // at it when it lies past t is exact.
      if (heap_.empty() || heap_.front().when > t) {
        return false;
      }
      std::pop_heap(heap_.begin(), heap_.end(), EventOrder{});
      Event ev = std::move(heap_.back());
      heap_.pop_back();
      if (live_.erase(ev.seq) > 0) {
        now_ = ev.when;
        fn = std::move(ev.fn);
        break;
      }
    }
  }
  fn();
  return true;
}

size_t EventLoop::Run() {
  size_t executed = 0;
  while (executed < event_limit_ && RunNext(kNoBound)) {
    ++executed;
  }
  return executed;
}

size_t EventLoop::RunUntil(TimePoint t) {
  size_t executed = 0;
  while (executed < event_limit_ && RunNext(t)) {
    ++executed;
  }
  if (now_ < t) {
    now_ = t;
  }
  return executed;
}

size_t EventLoop::RunFor(Duration d) { return RunUntil(now_ + d); }

bool EventLoop::Step() { return RunNext(kNoBound); }

std::optional<TimePoint> EventLoop::NextEventTime() {
  while (!heap_.empty() && live_.count(heap_.front().seq) == 0) {
    std::pop_heap(heap_.begin(), heap_.end(), EventOrder{});
    heap_.pop_back();
  }
  if (heap_.empty()) {
    return std::nullopt;
  }
  return heap_.front().when;
}

}  // namespace rover

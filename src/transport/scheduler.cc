#include "src/transport/scheduler.h"

#include <algorithm>
#include <iterator>
#include <utility>
#include <vector>

#include "src/obs/cpu_scope.h"
#include "src/util/compress.h"
#include "src/util/logging.h"

namespace rover {
namespace {
constexpr int kBackgroundPrio = static_cast<int>(Priority::kBackground);
}  // namespace

NetworkScheduler::NetworkScheduler(EventLoop* loop, Host* host, obs::Registry* metrics,
                                   SchedulerOptions options)
    : loop_(loop), host_(host), options_(options),
      retry_budget_(options.retry_budget_capacity, options.retry_budget_refill_per_sec),
      c_messages_enqueued_(metrics->counter("scheduler.messages_enqueued")),
      c_messages_delivered_(metrics->counter("scheduler.messages_delivered")),
      c_messages_expired_(metrics->counter("scheduler.messages_expired")),
      c_frames_sent_(metrics->counter("scheduler.frames_sent")),
      c_retries_(metrics->counter("scheduler.retries")),
      c_bytes_sent_(metrics->counter("scheduler.bytes_sent")),
      c_payload_bytes_original_(metrics->counter("scheduler.payload_bytes_original")),
      c_payload_bytes_sent_(metrics->counter("scheduler.payload_bytes_sent")),
      c_payload_bytes_cancelled_(metrics->counter("scheduler.payload_bytes_cancelled")),
      c_messages_shed_(metrics->counter("scheduler.messages_shed")),
      c_enqueue_rejected_(metrics->counter("scheduler.enqueue_rejected")),
      c_retry_budget_waits_(metrics->counter("scheduler.retry_budget_waits")),
      c_breaker_opened_(metrics->counter("scheduler.breaker_open_transitions")),
      g_queue_depth_(metrics->gauge("scheduler.queue_depth")),
      g_queued_bytes_(metrics->gauge("scheduler.queued_payload_bytes")),
      g_breakers_open_(metrics->gauge("scheduler.breakers_open")) {
  // A scheduler rebuilt after a crash starts empty; the node registry's
  // gauges still hold the previous incarnation's values until reset here.
  g_queue_depth_->Set(0);
  g_queued_bytes_->Set(0);
  g_breakers_open_->Set(0);
}

NetworkScheduler::DestId NetworkScheduler::InternDest(const std::string& dest) {
  auto [it, inserted] = dest_ids_.try_emplace(dest, static_cast<DestId>(dests_.size()));
  if (inserted) {
    dests_.emplace_back();
    DestQueue& q = dests_.back();
    q.name = dest;
    // Per-destination seed: decorrelates this queue's jitter from other
    // destinations (and, via the options seed, from other hosts).
    uint64_t seed = options_.backoff_seed;
    for (char c : dest) {
      seed = seed * 1099511628211ull + static_cast<unsigned char>(c);
    }
    q.backoff = std::make_unique<DecorrelatedJitterBackoff>(
        options_.loss_retry_backoff, options_.loss_retry_backoff_max, seed);
    q.breaker = CircuitBreaker(options_.breaker);
  }
  return it->second;
}

const NetworkScheduler::DestQueue* NetworkScheduler::FindDest(
    const std::string& dest) const {
  auto it = dest_ids_.find(dest);
  return it == dest_ids_.end() ? nullptr : &dests_[it->second];
}

NetworkScheduler::DestQueue* NetworkScheduler::FindDest(const std::string& dest) {
  auto it = dest_ids_.find(dest);
  return it == dest_ids_.end() ? nullptr : &dests_[it->second];
}

BreakerState NetworkScheduler::BreakerStateFor(const std::string& dest) const {
  const DestQueue* q = FindDest(dest);
  return q == nullptr ? BreakerState::kClosed : q->breaker.state();
}

void NetworkScheduler::Put(DestId id, Pending p, bool at_front) {
  DestQueue& q = dests_[id];
  const int prio = static_cast<int>(p.msg.header.priority);
  const size_t bytes = p.msg.payload.size();
  const uint64_t message_id = p.msg.header.message_id;
  PendingList& pq = q.by_priority[prio];
  q.index.try_emplace(message_id, pq.insert(at_front ? pq.begin() : pq.end(), std::move(p)));
  ++q.queued_count;
  q.queued_bytes += bytes;
  if (prio == kBackgroundPrio && q.background_count++ == 0) {
    background_dests_.insert(id);
  }
  ++total_queued_;
  queued_payload_bytes_ += bytes;
}

NetworkScheduler::Pending NetworkScheduler::Take(DestId id, int prio,
                                                 PendingList::iterator it) {
  DestQueue& q = dests_[id];
  const size_t bytes = it->msg.payload.size();
  --q.queued_count;
  q.queued_bytes -= bytes;
  if (prio == kBackgroundPrio && --q.background_count == 0) {
    background_dests_.erase(id);
  }
  --total_queued_;
  queued_payload_bytes_ -= bytes;
  auto slot = q.index.find(it->msg.header.message_id);
  if (slot != q.index.end() && slot->second == it) {
    q.index.erase(slot);
  }
  Pending p = std::move(*it);
  q.by_priority[prio].erase(it);
  return p;
}

void NetworkScheduler::Enqueue(Message msg, DeliveredCallback delivered, Duration ttl) {
  obs::CpuScope cpu(obs::CpuZone::kSchedulerDispatch);
  c_payload_bytes_original_->Increment(msg.payload.size());

  // Compress once, at enqueue time, so retries do not repeat the work.
  // Delivered-byte accounting happens in HandleBatchOutcome: counting here
  // would credit cancelled and still-queued messages as "sent".
  if (options_.compress && !msg.header.compressed &&
      msg.payload.size() >= options_.compress_min_bytes) {
    Bytes packed = LzCompress(msg.payload.data(), msg.payload.size());
    if (packed.size() < msg.payload.size()) {
      msg.payload = std::move(packed);
      msg.header.compressed = true;
    }
  }

  const size_t payload_size = msg.payload.size();

  // Admission: when either bound is hit, background traffic is rejected
  // outright and queued background is shed to admit higher priorities --
  // which are then always accepted (the QRPC layer bounds them upstream,
  // and refusing them here would strand durable application ops).
  const bool over_depth = options_.max_queued_messages > 0 &&
                          total_queued_ + 1 > options_.max_queued_messages;
  const bool over_bytes = options_.max_queued_bytes > 0 &&
                          queued_payload_bytes_ + payload_size > options_.max_queued_bytes;
  if (over_depth || over_bytes) {
    if (msg.header.priority == Priority::kBackground) {
      c_enqueue_rejected_->Increment();
      c_payload_bytes_cancelled_->Increment(payload_size);
      if (delivered) {
        delivered(ResourceExhaustedError("scheduler queue budget exceeded"));
      }
      return;
    }
    ShedBackground(payload_size);
  }

  c_messages_enqueued_->Increment();
  const DestId id = InternDest(msg.header.dst);
  const uint64_t message_id = msg.header.message_id;
  Pending pending{std::move(msg), std::move(delivered)};
  if (!ttl.is_zero()) {
    pending.expires_at = loop_->now() + ttl;
    // A purge event at the deadline covers the queue-asleep case (a dest
    // that never connects drains nothing, so SendBatch never looks at it).
    // O(1) at fire time: the index finds exactly this message.
    loop_->ScheduleAt(pending.expires_at,
                      [this, id, message_id, alive = std::weak_ptr<char>(alive_)] {
                        if (!alive.expired()) {
                          ExpireMessage(id, message_id);
                        }
                      });
  }
  Put(id, std::move(pending));
  NotifyObserver();
  TryDrain(id);
}

size_t NetworkScheduler::ShedBackground(size_t incoming_bytes) {
  auto fits = [&] {
    const bool depth_ok = options_.max_queued_messages == 0 ||
                          total_queued_ + 1 <= options_.max_queued_messages;
    const bool bytes_ok =
        options_.max_queued_bytes == 0 ||
        queued_payload_bytes_ + incoming_bytes <= options_.max_queued_bytes;
    return depth_ok && bytes_ok;
  };
  // Collect victims first, fire their callbacks after: a delivered callback
  // may re-enter the scheduler (e.g. resolve a promise whose continuation
  // issues a new call), which must not happen mid-iteration. Only
  // destinations with live background traffic are visited.
  std::vector<Pending> victims;
  const std::vector<DestId> candidates(background_dests_.begin(), background_dests_.end());
  for (DestId id : candidates) {
    PendingList& bq = dests_[id].by_priority[kBackgroundPrio];
    // Newest first: the oldest queued background message has waited longest
    // and is closest to going out.
    while (!bq.empty() && !fits()) {
      victims.push_back(Take(id, kBackgroundPrio, std::prev(bq.end())));
    }
    if (fits()) {
      break;
    }
  }
  for (Pending& v : victims) {
    c_messages_shed_->Increment();
    c_payload_bytes_cancelled_->Increment(v.msg.payload.size());
    if (v.delivered) {
      v.delivered(ResourceExhaustedError("shed under queue pressure"));
    }
  }
  if (!victims.empty()) {
    NotifyObserver();
  }
  return victims.size();
}

void NetworkScheduler::ExpireMessage(DestId id, uint64_t message_id) {
  DestQueue& q = dests_[id];
  auto it = q.index.find(message_id);
  if (it == q.index.end()) {
    return;  // delivered, cancelled, in flight, or rebound meanwhile
  }
  const PendingList::iterator entry = it->second;
  if (entry->expires_at > loop_->now()) {
    return;  // a different message reusing the id (fresh TTL)
  }
  c_messages_expired_->Increment();
  c_payload_bytes_cancelled_->Increment(entry->msg.payload.size());
  // The payload is released with the taken entry, before the callback runs.
  DeliveredCallback cb =
      Take(id, static_cast<int>(entry->msg.header.priority), entry).delivered;
  if (cb) {
    cb(DeadlineExceededError("message ttl expired in queue"));
  }
  NotifyObserver();
}

bool NetworkScheduler::CancelMessage(const std::string& dest, uint64_t message_id) {
  auto dit = dest_ids_.find(dest);
  if (dit == dest_ids_.end()) {
    return false;
  }
  const DestId id = dit->second;
  DestQueue& q = dests_[id];
  auto it = q.index.find(message_id);
  if (it == q.index.end()) {
    return false;  // unknown or already in flight
  }
  const PendingList::iterator entry = it->second;
  c_payload_bytes_cancelled_->Increment(entry->msg.payload.size());
  DeliveredCallback cb =
      Take(id, static_cast<int>(entry->msg.header.priority), entry).delivered;
  if (cb) {
    cb(CancelledError("cancelled before transmission"));
  }
  NotifyObserver();
  return true;
}

std::vector<uint64_t> NetworkScheduler::RebindDestination(const std::string& from,
                                                          const std::string& to) {
  std::vector<uint64_t> moved;
  auto it = dest_ids_.find(from);
  if (it == dest_ids_.end() || from == to) {
    return moved;
  }
  const DestId src_id = it->second;
  const DestId dst_id = InternDest(to);  // may grow dests_; deque keeps refs valid
  for (int prio = 0; prio < kNumPriorities; ++prio) {
    PendingList& spq = dests_[src_id].by_priority[prio];
    while (!spq.empty()) {
      Pending p = Take(src_id, prio, spq.begin());
      p.msg.header.dst = to;
      moved.push_back(p.msg.header.message_id);
      Put(dst_id, std::move(p));
    }
  }
  if (!moved.empty()) {
    NotifyObserver();
    TryDrain(dst_id);
  }
  return moved;
}

size_t NetworkScheduler::QueueDepthFor(const std::string& dest) const {
  const DestQueue* q = FindDest(dest);
  return q == nullptr ? 0 : q->queued_count;
}

SchedulerQueueAudit NetworkScheduler::AuditQueues() const {
  SchedulerQueueAudit audit;
  for (const DestQueue& q : dests_) {
    size_t count = 0;
    size_t bytes = 0;
    size_t background = 0;
    size_t indexed = 0;  // entries their id's index slot names
    for (int prio = 0; prio < kNumPriorities; ++prio) {
      const PendingList& pq = q.by_priority[prio];
      for (auto it = pq.begin(); it != pq.end(); ++it) {
        ++count;
        bytes += it->msg.payload.size();
        if (prio == kBackgroundPrio) {
          ++background;
        }
        auto slot = q.index.find(it->msg.header.message_id);
        if (slot != q.index.end() && slot->second == it) {
          ++indexed;
        }
      }
    }
    // Each index slot must name a queued entry of this destination with the
    // matching id: a dangling or mis-keyed slot leaves indexed short.
    if (count != q.queued_count || bytes != q.queued_bytes ||
        background != q.background_count || indexed != q.index.size()) {
      audit.per_dest_consistent = false;
    }
    audit.messages += count;
    audit.payload_bytes += bytes;
  }
  if (audit.messages != total_queued_ || audit.payload_bytes != queued_payload_bytes_) {
    audit.per_dest_consistent = false;
  }
  return audit;
}

Link* NetworkScheduler::PickLink(const std::string& dest) const {
  obs::CpuScope cpu(obs::CpuZone::kConnectivity);
  Link* best = nullptr;
  for (Link* link : host_->LinksTo(dest)) {
    if (!link->IsUp()) {
      continue;
    }
    if (best == nullptr || link->profile().bandwidth_bps > best->profile().bandwidth_bps) {
      best = link;
    }
  }
  return best;
}

void NetworkScheduler::TryDrain(DestId id) {
  obs::CpuScope cpu(obs::CpuZone::kSchedulerDispatch);
  DestQueue& q = dests_[id];
  if (q.in_flight || q.empty()) {
    return;
  }
  Link* link = PickLink(q.name);
  if (link == nullptr) {
    if (!ArmUpWakeup(id)) {
      NoteDestUnreachable(id);
    }
    return;
  }
  const TimePoint now = loop_->now();
  const BreakerState before_attempt = q.breaker.state();
  const bool attempt_allowed = q.breaker.AllowAttempt(now);
  NoteBreakerChange(q.name, before_attempt, q.breaker.state());
  if (!attempt_allowed) {
    // Open circuit: park until the cooldown passes, then probe.
    if (!q.breaker_wait_armed) {
      q.breaker_wait_armed = true;
      const TimePoint at =
          std::max(q.breaker.open_until(), now + options_.loss_retry_backoff);
      loop_->ScheduleAt(at, [this, id, alive = std::weak_ptr<char>(alive_)] {
        if (alive.expired()) {
          return;
        }
        dests_[id].breaker_wait_armed = false;
        TryDrain(id);
      });
    }
    return;
  }
  SendBatch(id, link);
}

void NetworkScheduler::SendBatch(DestId id, Link* link) {
  DestQueue& q = dests_[id];
  const TimePoint now = loop_->now();

  std::vector<Pending> batch;
  size_t bytes = 0;
  bool dropped_expired = false;
  // Frames carry a single priority class: mixing background traffic into a
  // frame with (or ahead of) foreground traffic would extend the frame's
  // airtime and delay the interactive response behind it. Background
  // frames additionally carry one message each, bounding the priority
  // inversion a just-started background transfer can inflict to a single
  // message's serialization time.
  for (int prio = 0; prio < kNumPriorities && batch.empty(); ++prio) {
    PendingList& pq = q.by_priority[prio];
    const size_t prio_max = prio == kBackgroundPrio ? 1 : options_.max_batch_messages;
    while (!pq.empty() && batch.size() < prio_max) {
      const Pending& front = pq.front();
      if (front.expires_at <= now) {
        // TTL lapsed while queued; drop here rather than transmit. Take the
        // entry out BEFORE firing its callback -- the callback may re-enter
        // the scheduler and must not find it still at the head.
        c_messages_expired_->Increment();
        c_payload_bytes_cancelled_->Increment(front.msg.payload.size());
        Pending dead = Take(id, prio, pq.begin());
        dropped_expired = true;
        if (dead.delivered) {
          dead.delivered(DeadlineExceededError("message ttl expired in queue"));
        }
        continue;
      }
      const size_t sz = front.msg.EncodedSize();
      if (!batch.empty() && bytes + sz > options_.max_batch_bytes) {
        break;
      }
      bytes += sz;
      // In flight from here: Take drops the index slot, so it is no longer
      // cancellable.
      batch.push_back(Take(id, prio, pq.begin()));
    }
  }
  if (dropped_expired) {
    NotifyObserver();
  }
  if (batch.empty()) {
    return;
  }
  std::vector<const Message*> wire;
  wire.reserve(batch.size());
  for (const Pending& p : batch) {
    wire.push_back(&p.msg);
    if (tracer_ != nullptr && p.msg.header.type == MessageType::kRequest) {
      tracer_->Record(p.msg.header.message_id, obs::RpcEvent::kTransmitted, loop_->now());
    }
  }
  Bytes frame = EncodeFrame(wire);
  q.in_flight = true;
  c_frames_sent_->Increment();
  c_bytes_sent_->Increment(frame.size());

  // `batch` is moved into the completion lambda; shared_ptr keeps the
  // lambda copyable for std::function.
  auto batch_ptr = std::make_shared<std::vector<Pending>>(std::move(batch));
  link->SendFrame(host_->name(), std::move(frame),
                  [this, id, batch_ptr, alive = std::weak_ptr<char>(alive_)](
                      const Status& status) {
                    if (alive.expired()) {
                      return;  // scheduler torn down while the frame flew
                    }
                    HandleBatchOutcome(id, std::move(*batch_ptr), status);
                  });
}

void NetworkScheduler::HandleBatchOutcome(DestId id, std::vector<Pending> batch,
                                          const Status& status) {
  obs::CpuScope cpu(obs::CpuZone::kSchedulerDispatch);
  DestQueue& q = dests_[id];
  q.in_flight = false;

  if (status.ok()) {
    q.consecutive_losses = 0;
    q.backoff->Reset();
    const BreakerState before = q.breaker.state();
    q.breaker.RecordSuccess();
    NoteBreakerChange(q.name, before, q.breaker.state());
    c_messages_delivered_->Increment(batch.size());
    for (Pending& p : batch) {
      // Payload accounting at the delivery point: only bytes a link carried
      // end-to-end count as sent.
      c_payload_bytes_sent_->Increment(p.msg.payload.size());
      if (p.delivered) {
        p.delivered(Status::Ok());
      }
    }
    NotifyObserver();
    TryDrain(id);
    return;
  }

  // Failure: requeue at the front of each message's priority queue,
  // preserving the original order, and restore their index slots.
  c_retries_->Increment();
  for (auto it = batch.rbegin(); it != batch.rend(); ++it) {
    Put(id, std::move(*it), /*at_front=*/true);
  }
  NotifyObserver();

  if (status.code() == StatusCode::kUnavailable) {
    // Link down: says nothing about the peer, so it neither counts against
    // the circuit breaker nor spends retry-budget tokens. If the failed
    // frame was a half-open probe, allow a fresh probe after reconnection.
    const BreakerState before = q.breaker.state();
    q.breaker.AbortProbe();
    NoteBreakerChange(q.name, before, q.breaker.state());
    if (!ArmUpWakeup(id)) {
      NoteDestUnreachable(id);
    }
  } else {
    // Random loss: decorrelated-jitter backoff (drawn from [base,
    // 3 * previous], capped), gated by the shared retry budget and counted
    // against the destination's circuit breaker.
    const TimePoint now = loop_->now();
    ++q.consecutive_losses;
    const BreakerState before = q.breaker.state();
    q.breaker.RecordFailure(now);
    NoteBreakerChange(q.name, before, q.breaker.state());
    if (q.breaker.state() == BreakerState::kOpen && before != BreakerState::kOpen) {
      c_breaker_opened_->Increment();
      NotifyObserver();
    }
    TimePoint fire_at = now + q.backoff->Next();
    if (retry_budget_.enabled()) {
      const TimePoint token_at = retry_budget_.Reserve(now);
      if (token_at == TimePoint::FromMicros(INT64_MAX)) {
        // Budget can never refill; delivery is still reliable, so fall back
        // to pacing at the maximum backoff instead of never retrying.
        c_retry_budget_waits_->Increment();
        fire_at = std::max(fire_at, now + options_.loss_retry_backoff_max);
      } else if (token_at > fire_at) {
        c_retry_budget_waits_->Increment();
        fire_at = token_at;
      }
    }
    loop_->ScheduleAt(fire_at, [this, id, alive = std::weak_ptr<char>(alive_)] {
      if (!alive.expired()) {
        TryDrain(id);
      }
    });
  }
}

bool NetworkScheduler::ArmUpWakeup(DestId id) {
  DestQueue& q = dests_[id];
  // Any queue parking here cares about future link events for its peer:
  // OnPeerChanged re-evaluates it on attach and force-down from now on.
  q.parked = true;
  if (q.waiting_for_up) {
    return true;
  }
  // Find the link to `dest` that comes up soonest and schedule a wakeup.
  // The computation is only valid for the link set as it stands right now;
  // OnPeerChanged re-runs it when that set changes.
  Link* soonest = nullptr;
  bool has_link = false;
  TimePoint best = TimePoint::FromMicros(INT64_MAX);
  obs::CpuScope cpu(obs::CpuZone::kConnectivity);
  for (Link* link : host_->LinksTo(q.name)) {
    has_link = true;
    const TimePoint up = link->NextUpTime();
    if (up < best) {
      best = up;
      soonest = link;
    }
  }
  if (soonest == nullptr) {
    // No wakeup to arm. With no link at all a route may still be attached
    // later (Host::Attach fires OnPeerChanged, which retries); with links
    // that will never come up again the destination is dead -- report that
    // to the caller.
    return !has_link;
  }
  q.waiting_for_up = true;
  q.up_wakeup_event =
      loop_->ScheduleAt(best, [this, id, alive = std::weak_ptr<char>(alive_)] {
        if (alive.expired()) {
          return;  // scheduler torn down while waiting for the link
        }
        DestQueue& dq = dests_[id];
        dq.waiting_for_up = false;
        dq.up_wakeup_event = kInvalidEventId;
        // A fresh connection starts with a fresh loss history: the backoff
        // and breaker state accumulated before the outage say nothing about
        // the new link conditions, and inheriting them would stall the first
        // retry after a long disconnection by up to the maximum backoff.
        dq.consecutive_losses = 0;
        dq.backoff->Reset();
        const BreakerState before = dq.breaker.state();
        dq.breaker.Reset();
        NoteBreakerChange(dq.name, before, dq.breaker.state());
        TryDrain(id);
      });
  return true;
}

void NetworkScheduler::OnPeerChanged(const std::string& peer) {
  auto it = dest_ids_.find(peer);
  if (it == dest_ids_.end()) {
    return;
  }
  const DestId id = it->second;
  DestQueue& q = dests_[id];
  if (!q.parked || q.in_flight || q.empty()) {
    return;
  }
  // The link set toward this peer changed: any armed wakeup was computed
  // against the old set, so recompute from scratch.
  if (q.waiting_for_up) {
    loop_->Cancel(q.up_wakeup_event);
    q.waiting_for_up = false;
    q.up_wakeup_event = kInvalidEventId;
  }
  TryDrain(id);
}

void NetworkScheduler::NoteDestUnreachable(DestId id) {
  DestQueue& q = dests_[id];
  if (q.empty() || q.breaker.state() == BreakerState::kOpen) {
    return;
  }
  const BreakerState before = q.breaker.state();
  q.breaker.ForceOpen(loop_->now());
  if (q.breaker.state() != BreakerState::kOpen) {
    return;  // breaker disabled; nothing to report
  }
  c_breaker_opened_->Increment();
  NoteBreakerChange(q.name, before, q.breaker.state());
  NotifyObserver();
}

void NetworkScheduler::NoteBreakerChange(const std::string& dest, BreakerState before,
                                         BreakerState after) {
  open_breakers_ += (after != BreakerState::kClosed ? 1 : 0) -
                    (before != BreakerState::kClosed ? 1 : 0);
  if (before != after && breaker_observer_) {
    breaker_observer_(dest, after);
  }
}

void NetworkScheduler::NotifyObserver() {
  g_queue_depth_->Set(static_cast<int64_t>(total_queued_));
  g_queued_bytes_->Set(static_cast<int64_t>(queued_payload_bytes_));
  g_breakers_open_->Set(open_breakers_);
  if (observer_) {
    observer_(total_queued_);
  }
}

}  // namespace rover

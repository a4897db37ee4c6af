// Network scheduler (paper §5.3). The lower transport level keeps one set
// of priority queues per destination and decides, whenever any traffic is
// pending, which network interface to use "based on availability and
// quality". It also implements the two channel optimizations the paper's
// evaluation studies:
//
//   * batch frames: coalescing queued messages into a single frame so that slow
//     links pay per-packet header overhead once per batch, and
//   * compression: LZ-compressing marshalled payloads before transmission.
//
// Delivery is reliable: frames rejected or dropped by a link are requeued
// (in order) and retried when a link to the destination next comes up.
//
// Hot-path design (see docs/architecture.md "Hot-path memory and
// scheduling"): destination names are interned to dense uint32 ids at the
// public boundary -- one hash lookup per call, integer indexing inside.
// Each priority queue is a std::list, and each destination keeps a
// message_id -> list-iterator index, so CancelMessage / supersede-withdraw
// are O(1) instead of a queue scan. One private Take() is the only way out
// of a queue (cancel, TTL, shed, batch pull, rebind) and one Put() the only
// way in. Depth and byte gauges are maintained incrementally;
// TotalQueueDepth() is O(1), and AuditQueues() provides the independent
// structural recount the SimCheck conservation invariants compare against.

#ifndef ROVER_SRC_TRANSPORT_SCHEDULER_H_
#define ROVER_SRC_TRANSPORT_SCHEDULER_H_

#include <array>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/rpc_trace.h"
#include "src/sim/network.h"
#include "src/transport/message.h"
#include "src/transport/overload.h"
#include "src/util/time.h"

namespace rover {

struct SchedulerOptions {
  // Per-frame batch bounds; max_batch_messages = 1 sends one message per
  // frame.
  size_t max_batch_messages = 16;
  size_t max_batch_bytes = 32 * 1024;
  bool compress = false;
  size_t compress_min_bytes = 64;  // don't bother compressing tiny payloads
  // Loss retries use decorrelated jitter: each interval is drawn from
  // [base, 3 * previous], clamped to the max. The seed decorrelates this
  // host from other hosts retrying into the same congested link.
  Duration loss_retry_backoff = Duration::Millis(200);
  Duration loss_retry_backoff_max = Duration::Seconds(30);
  uint64_t backoff_seed = 0x9e3779b97f4a7c15ull;
  // Admission bounds across all destination queues (0 = unbounded). When a
  // bound is hit, queued background messages are shed first (their delivered
  // callback fires kResourceExhausted); an incoming background message is
  // rejected outright; higher-priority traffic is always admitted after
  // shedding -- the QRPC layer bounds it upstream.
  size_t max_queued_messages = 0;
  size_t max_queued_bytes = 0;
  // Token-bucket budget shared by all loss retries (capacity 0 = unlimited).
  // When the bucket empties, retries wait for refill instead of firing, so a
  // fault storm cannot amplify offered load.
  double retry_budget_capacity = 0;
  double retry_budget_refill_per_sec = 10;
  // Per-destination circuit breaker (failure_threshold 0 disables).
  CircuitBreakerOptions breaker;
};

// Independent structural recount of the queues, for invariant checking
// (SimCheck compares these against the incrementally-maintained gauges).
struct SchedulerQueueAudit {
  size_t messages = 0;       // queued messages
  size_t payload_bytes = 0;  // their payload bytes
  // False if any per-destination incremental counter disagrees with the
  // structural walk -- an index/queue consistency violation.
  bool per_dest_consistent = true;
};

class NetworkScheduler {
 public:
  using DeliveredCallback = std::function<void(const Status&)>;
  // Observes total queued-message count after every change; drives the
  // toolkit's user notification ("N requests waiting for connectivity").
  using QueueObserver = std::function<void(size_t depth)>;
  // Observes per-destination circuit-breaker transitions (fires on every
  // state change, with the new state). The QRPC client uses the kOpen edge
  // on its primary as the failure-detector input for failover.
  using BreakerObserver = std::function<void(const std::string& dest, BreakerState state)>;

  // Counts into `metrics` under "scheduler.".
  NetworkScheduler(EventLoop* loop, Host* host, obs::Registry* metrics,
                   SchedulerOptions options = {});

  // Queues `msg` for delivery to msg.header.dst. Returns immediately;
  // `delivered` (may be null) fires when a link accepts the frame carrying
  // this message end-to-end. A non-zero `ttl` bounds how long the message
  // may wait in the queues: if no link carried it by then it is dropped and
  // `delivered` fires with kDeadlineExceeded -- for best-effort traffic
  // (invalidations) that must not pile up behind a peer that never
  // reconnects. A message already in flight when its TTL lapses is allowed
  // to complete.
  void Enqueue(Message msg, DeliveredCallback delivered = nullptr,
               Duration ttl = Duration::Zero());

  // Removes a not-yet-transmitted message from the queues. Returns false
  // if it is unknown or already in flight. O(1): indexed by message id.
  bool CancelMessage(const std::string& dest, uint64_t message_id);

  // O(1): incremental counters, never a queue walk.
  size_t TotalQueueDepth() const { return total_queued_; }
  size_t QueueDepthFor(const std::string& dest) const;
  // Payload bytes sitting in queues (excludes the in-flight batch).
  size_t QueuedPayloadBytes() const { return queued_payload_bytes_; }
  // Circuit-breaker state for `dest` (kClosed if the dest is unknown).
  BreakerState BreakerStateFor(const std::string& dest) const;

  // Full structural walk (O(queued)); used by invariant checks and tests to
  // verify the incremental counters and the per-dest indexes never drift.
  SchedulerQueueAudit AuditQueues() const;

  void SetQueueObserver(QueueObserver observer) { observer_ = std::move(observer); }
  void SetBreakerObserver(BreakerObserver observer) {
    breaker_observer_ = std::move(observer);
  }

  // Destination rebind (failover): moves every queued -- not in-flight --
  // message addressed to `from` onto `to`'s queues, preserving priority and
  // order, and rewrites their headers. Returns the message ids moved.
  // Messages already in flight are untouched; the caller owns re-sending
  // whatever `from` never answered. O(moved), not O(queue scan).
  std::vector<uint64_t> RebindDestination(const std::string& from, const std::string& to);

  // Records kTransmitted span events for request messages it sends.
  void SetTracer(obs::RpcTracer* tracer) { tracer_ = tracer; }

  const SchedulerOptions& options() const { return options_; }

  // Highest-quality (bandwidth) currently-up link to `dest`, or nullptr.
  Link* PickLink(const std::string& dest) const;

  // The host's peer-change upcall (wired by TransportManager): a link to
  // `peer` was attached or forced down. A queue to that peer that has
  // parked re-evaluates from scratch; one that never parked, or that waits
  // on a loss backoff or breaker cooldown, is left alone.
  void OnPeerChanged(const std::string& peer);

 private:
  // Dense interned destination id; index into dests_.
  using DestId = uint32_t;

  struct Pending {
    Message msg;
    DeliveredCallback delivered;
    TimePoint expires_at = TimePoint::FromMicros(INT64_MAX);  // TTL deadline
  };
  using PendingList = std::list<Pending>;

  struct DestQueue {
    std::string name;  // interned destination name
    std::array<PendingList, kNumPriorities> by_priority;
    // message_id -> queued entry. Take() drops an entry's index slot when
    // the entry leaves the queue (in-flight messages are not cancellable).
    // On the rare id collision (distinct id spaces can reuse a value
    // against one dest) the later message is simply not indexed: it stays
    // deliverable but is not individually cancellable, matching the old
    // scan's first-match pick.
    std::unordered_map<uint64_t, PendingList::iterator> index;
    // Incremental per-destination accounting.
    size_t queued_count = 0;
    size_t queued_bytes = 0;
    size_t background_count = 0;
    bool in_flight = false;
    bool waiting_for_up = false;
    // Set the first time this queue parks with no usable link; from then on
    // OnPeerChanged re-evaluates it (peer changes are rare: attach or
    // force-down of a link to this one peer, never unrelated link events).
    bool parked = false;
    EventId up_wakeup_event = kInvalidEventId;
    int consecutive_losses = 0;
    // Retry pacing and overload state (configured lazily in InternDest).
    std::unique_ptr<DecorrelatedJitterBackoff> backoff;
    CircuitBreaker breaker;
    bool breaker_wait_armed = false;

    bool empty() const { return queued_count == 0; }
  };

  // Interns `dest`, creating its queue (with overload state initialised
  // from options) on first use. Ids are dense and never invalidated;
  // dests_ is a deque so element references survive growth.
  DestId InternDest(const std::string& dest);
  const DestQueue* FindDest(const std::string& dest) const;
  DestQueue* FindDest(const std::string& dest);

  // The one way into a destination queue: appends `p` to its priority
  // queue (prepends it when `at_front`, for a failed frame's requeue),
  // indexes it unless its id is already indexed there, and counts it in
  // (also maintaining the background active-destination set).
  void Put(DestId id, Pending p, bool at_front = false);
  // The one way out: counts the entry out, drops the index slot only if it
  // names this entry, erases the node and returns the entry. Fires nothing;
  // the caller decides what the withdrawal means.
  Pending Take(DestId id, int prio, PendingList::iterator it);

  // Sheds queued background messages (newest first) until the bounds fit
  // `incoming_bytes` more or no background remains. Returns freed count.
  size_t ShedBackground(size_t incoming_bytes);
  void TryDrain(DestId id);
  // TTL purge for one message (scheduled at its deadline; O(1) via index).
  void ExpireMessage(DestId id, uint64_t message_id);
  void SendBatch(DestId id, Link* link);
  void HandleBatchOutcome(DestId id, std::vector<Pending> batch, const Status& status);
  // Returns false when no wakeup could be armed because no link to `dest`
  // will ever come up again (dead destination).
  bool ArmUpWakeup(DestId id);
  // Verdict for a destination with queued traffic, no up link, and no
  // scheduled reconnection: force the breaker open so observers (failover)
  // learn the destination is gone.
  void NoteDestUnreachable(DestId id);
  void NotifyObserver();
  // Folds a breaker state transition into open_breakers_ and fires the
  // breaker observer; called at every mutation site so NotifyObserver never
  // rescans the queues.
  void NoteBreakerChange(const std::string& dest, BreakerState before, BreakerState after);

  EventLoop* loop_;
  Host* host_;
  SchedulerOptions options_;
  // Boundary interning: string keys only here; everything below indexes by
  // DestId. dests_ is a deque: growth never moves existing DestQueues, so
  // references to them stay valid.
  std::unordered_map<std::string, DestId> dest_ids_;
  std::deque<DestQueue> dests_;
  // Destinations with queued background traffic, maintained on 0 <-> nonzero
  // transitions of background_count. Ordered so shedding visits them in a
  // deterministic order (the simulator replays byte-identically from a seed).
  std::set<DestId> background_dests_;
  RetryBudget retry_budget_;
  size_t total_queued_ = 0;
  size_t queued_payload_bytes_ = 0;
  // Destinations whose breaker is not kClosed, maintained incrementally
  // (dests_ entries are never removed, so this cannot drift).
  int64_t open_breakers_ = 0;
  QueueObserver observer_;
  BreakerObserver breaker_observer_;
  // Deferred callbacks (up-wakeups, loss-backoff retries, frame
  // completions) capture a weak_ptr to this token and bail out when it is
  // gone, so events queued past the scheduler's destruction -- e.g. a
  // transport rebuilt after a simulated crash -- never touch freed state.
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);

  obs::RpcTracer* tracer_ = nullptr;
  obs::Counter* const c_messages_enqueued_;
  obs::Counter* const c_messages_delivered_;
  obs::Counter* const c_messages_expired_;
  obs::Counter* const c_frames_sent_;
  obs::Counter* const c_retries_;
  obs::Counter* const c_bytes_sent_;
  obs::Counter* const c_payload_bytes_original_;
  obs::Counter* const c_payload_bytes_sent_;
  obs::Counter* const c_payload_bytes_cancelled_;
  obs::Counter* const c_messages_shed_;
  obs::Counter* const c_enqueue_rejected_;
  obs::Counter* const c_retry_budget_waits_;
  obs::Counter* const c_breaker_opened_;
  obs::Gauge* const g_queue_depth_;
  obs::Gauge* const g_queued_bytes_;
  obs::Gauge* const g_breakers_open_;
};

}  // namespace rover

#endif  // ROVER_SRC_TRANSPORT_SCHEDULER_H_

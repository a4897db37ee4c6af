// End-to-end overload protection tests.
//
// Part 1 unit-tests the pure primitives in src/transport/overload.h --
// decorrelated-jitter backoff, token-bucket retry budget, circuit breaker --
// with explicit TimePoints (no sleeps, no wall clock).
// Part 2 covers scheduler admission: queue depth/byte budgets, priority-
// aware shedding (background first, durable app ops never silently dropped).
// Part 3 covers scheduler retry pacing on a lossy link: budget-gated retries
// and breaker open/half-open/re-open transitions.
// Part 4 covers QRPC client admission (call count + stable-log byte budget)
// and server concurrency pushback with client-honored retry-after hints.
// Part 5 covers the access manager's degraded mode and the cache-overflow
// gauge.
// Part 6 is the seeded overload chaos scenario: 2x sustained load over a
// flapping lossy link against a concurrency-limited server, asserting the
// client stays within its memory budgets, retries stay within the retry
// budget, durable ops are never shed, and everything drains to convergence
// once the pressure lifts. Seeds 1-6 run by default; ROVER_OVERLOAD_SEEDS
// names others in the shared seed grammar, e.g. "1-24" (used by the CI
// chaos job, which runs the binary directly).

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/check/fuzz.h"
#include "src/check/simcheck.h"
#include "src/core/fault_plan.h"
#include "src/core/toolkit.h"
#include "src/sim/network.h"
#include "src/tclite/value.h"
#include "src/transport/overload.h"
#include "src/transport/scheduler.h"
#include "src/transport/transport.h"
#include "tests/test_metrics.h"

namespace rover {
namespace {

constexpr char kJournalCode[] = R"(
proc get {} { global state; return $state }
proc add {t} { global state; lappend state $t; return $state }
)";

TimePoint At(double seconds) {
  return TimePoint::Epoch() + Duration::Seconds(seconds);
}

// --- Part 1: primitives ----------------------------------------------------

TEST(DecorrelatedJitterBackoffTest, FirstIntervalIsBaseAndBoundsHold) {
  const Duration base = Duration::Millis(200);
  const Duration cap = Duration::Seconds(30);
  DecorrelatedJitterBackoff backoff(base, cap, 42);
  Duration prev = backoff.Next();
  // The first interval after construction (or Reset) is exactly the base:
  // the first retry after a state change is fast and deterministic.
  EXPECT_EQ(prev.micros(), base.micros());
  for (int i = 0; i < 200; ++i) {
    const Duration d = backoff.Next();
    EXPECT_GE(d.micros(), base.micros());
    EXPECT_LE(d.micros(), cap.micros());
    EXPECT_LE(d.micros(), std::min(cap.micros(), 3 * prev.micros()));
    prev = d;
  }
}

TEST(DecorrelatedJitterBackoffTest, ResetReturnsToBase) {
  const Duration base = Duration::Millis(100);
  DecorrelatedJitterBackoff backoff(base, Duration::Seconds(10), 7);
  for (int i = 0; i < 10; ++i) {
    backoff.Next();
  }
  backoff.Reset();
  EXPECT_EQ(backoff.Next().micros(), base.micros());
}

TEST(DecorrelatedJitterBackoffTest, SameSeedSameSequenceDifferentSeedDiffers) {
  const Duration base = Duration::Millis(100);
  const Duration cap = Duration::Seconds(60);
  DecorrelatedJitterBackoff a(base, cap, 1), b(base, cap, 1), c(base, cap, 2);
  bool c_differs = false;
  for (int i = 0; i < 50; ++i) {
    const Duration da = a.Next();
    EXPECT_EQ(da.micros(), b.Next().micros());
    if (da.micros() != c.Next().micros()) {
      c_differs = true;
    }
  }
  EXPECT_TRUE(c_differs);
}

TEST(DecorrelatedJitterBackoffTest, ClampsToCap) {
  const Duration base = Duration::Seconds(1);
  const Duration cap = Duration::Seconds(2);
  DecorrelatedJitterBackoff backoff(base, cap, 3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_LE(backoff.Next().micros(), cap.micros());
  }
}

TEST(RetryBudgetTest, ConsumesAndRefillsAtConfiguredRate) {
  RetryBudget budget(4, 2.0);  // 4 tokens, 2/s
  ASSERT_TRUE(budget.enabled());
  const TimePoint t0 = At(0);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(budget.TryConsume(t0)) << "token " << i;
  }
  EXPECT_FALSE(budget.TryConsume(t0));
  EXPECT_DOUBLE_EQ(budget.available(t0), 0.0);
  // 2/s refill: one full token 500ms later.
  EXPECT_FALSE(budget.TryConsume(At(0.25)));
  EXPECT_TRUE(budget.TryConsume(At(0.5)));
  // Refill clamps at capacity.
  EXPECT_DOUBLE_EQ(budget.available(At(1000)), 4.0);
}

TEST(RetryBudgetTest, ReserveRunsIntoDebtCoveredAtRefillRate) {
  RetryBudget budget(2, 1.0);  // 2 tokens, 1/s
  const TimePoint t0 = At(0);
  EXPECT_EQ(budget.Reserve(t0).micros(), t0.micros());
  EXPECT_EQ(budget.Reserve(t0).micros(), t0.micros());
  // Bucket empty: each further reservation is covered one refill later.
  EXPECT_EQ(budget.Reserve(t0).micros(), At(1).micros());
  EXPECT_EQ(budget.Reserve(t0).micros(), At(2).micros());
  // The debt repays at exactly the refill rate: no token before then.
  EXPECT_FALSE(budget.TryConsume(At(2.5)));
}

TEST(RetryBudgetTest, ZeroRefillEmptyBucketNeverRecovers) {
  RetryBudget budget(1, 0.0);
  EXPECT_TRUE(budget.TryConsume(At(0)));
  EXPECT_FALSE(budget.TryConsume(At(1e6)));
  // The sentinel for "never": callers must treat it as drop, not wait.
  EXPECT_EQ(budget.NextTokenAt(At(1)).micros(), INT64_MAX);
}

TEST(RetryBudgetTest, ZeroCapacityDisablesBudget) {
  RetryBudget budget(0, 10.0);
  EXPECT_FALSE(budget.enabled());
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(budget.TryConsume(At(0)));
  }
}

TEST(CircuitBreakerTest, OpensAtThresholdThenHalfOpenProbeCloses) {
  CircuitBreakerOptions opts;
  opts.failure_threshold = 3;
  opts.open_duration = Duration::Seconds(2);
  CircuitBreaker breaker(opts);

  EXPECT_TRUE(breaker.AllowAttempt(At(0)));
  breaker.RecordFailure(At(0));
  breaker.RecordFailure(At(0.1));
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.RecordFailure(At(0.2));
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_FALSE(breaker.AllowAttempt(At(0.3)));
  EXPECT_FALSE(breaker.AllowAttempt(At(2.1)));  // cooldown from last failure

  // Cooldown passed: exactly one half-open probe is granted.
  EXPECT_TRUE(breaker.AllowAttempt(At(2.3)));
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_FALSE(breaker.AllowAttempt(At(2.3)));
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(), 0);
  EXPECT_TRUE(breaker.AllowAttempt(At(2.4)));
}

TEST(CircuitBreakerTest, FailedProbeReopensWithDoubledCooldownUpToCap) {
  CircuitBreakerOptions opts;
  opts.failure_threshold = 1;
  opts.open_duration = Duration::Seconds(2);
  opts.open_duration_max = Duration::Seconds(5);
  CircuitBreaker breaker(opts);

  breaker.RecordFailure(At(0));  // open, cooldown 2s
  ASSERT_TRUE(breaker.AllowAttempt(At(2)));
  breaker.RecordFailure(At(2));  // failed probe: reopen, cooldown 4s
  EXPECT_FALSE(breaker.AllowAttempt(At(5.9)));
  ASSERT_TRUE(breaker.AllowAttempt(At(6)));
  breaker.RecordFailure(At(6));  // reopen, cooldown 8s -> capped at 5s
  EXPECT_FALSE(breaker.AllowAttempt(At(10.9)));
  ASSERT_TRUE(breaker.AllowAttempt(At(11)));
  // A successful probe resets cooldown back to the base open duration.
  breaker.RecordSuccess();
  breaker.RecordFailure(At(12));
  EXPECT_FALSE(breaker.AllowAttempt(At(13.9)));
  EXPECT_TRUE(breaker.AllowAttempt(At(14)));
}

TEST(CircuitBreakerTest, AbortedProbePermitsAnotherProbe) {
  CircuitBreakerOptions opts;
  opts.failure_threshold = 1;
  opts.open_duration = Duration::Seconds(1);
  CircuitBreaker breaker(opts);
  breaker.RecordFailure(At(0));
  ASSERT_TRUE(breaker.AllowAttempt(At(1)));
  ASSERT_FALSE(breaker.AllowAttempt(At(1)));  // probe outstanding
  // The probe's frame died without an outcome (link dropped): without
  // AbortProbe the breaker would wedge half-open forever.
  breaker.AbortProbe();
  EXPECT_TRUE(breaker.AllowAttempt(At(1.1)));
}

TEST(CircuitBreakerTest, ZeroThresholdDisablesBreaker) {
  CircuitBreakerOptions opts;
  opts.failure_threshold = 0;
  CircuitBreaker breaker(opts);
  for (int i = 0; i < 50; ++i) {
    breaker.RecordFailure(At(i));
    EXPECT_TRUE(breaker.AllowAttempt(At(i)));
  }
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(CircuitBreakerTest, ResetForgetsHistory) {
  CircuitBreakerOptions opts;
  opts.failure_threshold = 1;
  CircuitBreaker breaker(opts);
  breaker.RecordFailure(At(0));
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  breaker.Reset();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_TRUE(breaker.AllowAttempt(At(0.1)));
}

// --- Part 2: scheduler admission -------------------------------------------

Message MakeMessage(const std::string& dst, size_t payload_size, Priority priority) {
  Message msg;
  msg.header.type = MessageType::kRequest;
  msg.header.priority = priority;
  msg.header.dst = dst;
  msg.payload = Bytes(payload_size, 0x5a);
  return msg;
}

class SchedulerOverloadTest : public ::testing::Test {
 protected:
  SchedulerOverloadTest() : net_(&loop_) {}

  // Link down until t=60s so everything queues.
  void SetUpDisconnected(SchedulerOptions options) {
    std::vector<IntervalConnectivity::Interval> up = {{At(60), At(1e6)}};
    net_.Connect("mobile", "server", LinkProfile::WaveLan2(),
                 std::make_unique<IntervalConnectivity>(up));
    mobile_ = std::make_unique<TransportManager>(&loop_, net_.FindHost("mobile"),
                                                 &metrics_, options);
  }

  EventLoop loop_;
  Network net_;
  obs::Registry metrics_;
  std::unique_ptr<TransportManager> mobile_;
};

TEST_F(SchedulerOverloadTest, DepthBudgetRejectsBackgroundAndShedsForHigher) {
  SchedulerOptions opts;
  opts.max_queued_messages = 2;
  SetUpDisconnected(opts);
  NetworkScheduler* sched = mobile_->scheduler();

  std::vector<Status> bg_status(3);
  sched->Enqueue(MakeMessage("server", 10, Priority::kBackground),
                 [&](const Status& s) { bg_status[0] = s; });
  sched->Enqueue(MakeMessage("server", 10, Priority::kBackground),
                 [&](const Status& s) { bg_status[1] = s; });
  EXPECT_EQ(sched->TotalQueueDepth(), 2u);

  // A third background message is refused outright at the full queue.
  sched->Enqueue(MakeMessage("server", 10, Priority::kBackground),
                 [&](const Status& s) { bg_status[2] = s; });
  EXPECT_EQ(sched->TotalQueueDepth(), 2u);
  EXPECT_EQ(bg_status[2].code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(Count(&metrics_, "scheduler.enqueue_rejected"), 1u);

  // A default-priority message sheds the newest queued background instead.
  sched->Enqueue(MakeMessage("server", 10, Priority::kDefault));
  EXPECT_EQ(sched->TotalQueueDepth(), 2u);
  EXPECT_EQ(Count(&metrics_, "scheduler.messages_shed"), 1u);
  EXPECT_EQ(bg_status[1].code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(bg_status[0].ok()) << "oldest background shed out of order";

  // Another default sheds the remaining background...
  sched->Enqueue(MakeMessage("server", 10, Priority::kDefault));
  EXPECT_EQ(Count(&metrics_, "scheduler.messages_shed"), 2u);
  EXPECT_EQ(bg_status[0].code(), StatusCode::kResourceExhausted);
  // ...and with nothing left to shed, higher-priority traffic is still
  // admitted over budget: refusing it would strand durable application ops
  // (the QRPC layer bounds those upstream).
  sched->Enqueue(MakeMessage("server", 10, Priority::kDefault));
  EXPECT_EQ(sched->TotalQueueDepth(), 3u);
  EXPECT_EQ(Count(&metrics_, "scheduler.enqueue_rejected"), 1u);
}

TEST_F(SchedulerOverloadTest, ByteBudgetTracksQueuedPayload) {
  SchedulerOptions opts;
  opts.max_queued_bytes = 100;
  opts.compress = false;
  SetUpDisconnected(opts);
  NetworkScheduler* sched = mobile_->scheduler();

  Status bg;
  sched->Enqueue(MakeMessage("server", 60, Priority::kBackground),
                 [&](const Status& s) { bg = s; });
  EXPECT_EQ(sched->QueuedPayloadBytes(), 60u);
  // 60 + 60 > 100: the queued background message is shed to make room.
  sched->Enqueue(MakeMessage("server", 60, Priority::kDefault));
  EXPECT_EQ(sched->QueuedPayloadBytes(), 60u);
  EXPECT_EQ(sched->TotalQueueDepth(), 1u);
  EXPECT_EQ(bg.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(Count(&metrics_, "scheduler.messages_shed"), 1u);
}

// --- Part 3: retry pacing on a lossy link ----------------------------------

class LossySchedulerTest : public ::testing::Test {
 protected:
  LossySchedulerTest() : net_(&loop_) {}

  void SetUpLossy(SchedulerOptions options, double loss_prob) {
    LinkProfile wave = LinkProfile::WaveLan2();
    wave.loss_prob = loss_prob;
    net_.Connect("mobile", "server", wave);
    mobile_ = std::make_unique<TransportManager>(&loop_, net_.FindHost("mobile"),
                                                 &metrics_, options);
  }

  EventLoop loop_;
  Network net_;
  obs::Registry metrics_;
  std::unique_ptr<TransportManager> mobile_;
};

TEST_F(LossySchedulerTest, RetryBudgetPacesRetryStorm) {
  SchedulerOptions opts;
  opts.loss_retry_backoff = Duration::Millis(100);
  opts.loss_retry_backoff_max = Duration::Seconds(1);
  opts.retry_budget_capacity = 2;
  opts.retry_budget_refill_per_sec = 1;
  opts.breaker.failure_threshold = 0;  // isolate the budget
  SetUpLossy(opts, /*loss_prob=*/1.0);

  mobile_->Send(MakeMessage("server", 50, Priority::kDefault));
  loop_.RunUntil(At(10));
  // Unpaced, 100ms-1s jittered backoff would retry ~15-100 times in 10s.
  // The budget holds the long-term rate to refill_per_sec: initial burst of
  // 2 + ~1/s afterwards (+1 for the non-retry first attempt).
  EXPECT_LE(Count(&metrics_, "scheduler.frames_sent"), 2u + 10 + 1);
  EXPECT_GE(Count(&metrics_, "scheduler.frames_sent"), 5u);
  EXPECT_GT(Count(&metrics_, "scheduler.retry_budget_waits"), 0u);
}

TEST_F(LossySchedulerTest, BreakerOpensStopsTrafficAndReopensOnFailedProbe) {
  SchedulerOptions opts;
  opts.loss_retry_backoff = Duration::Millis(100);
  opts.loss_retry_backoff_max = Duration::Millis(200);
  opts.breaker.failure_threshold = 3;
  opts.breaker.open_duration = Duration::Seconds(2);
  SetUpLossy(opts, /*loss_prob=*/1.0);
  NetworkScheduler* sched = mobile_->scheduler();

  mobile_->Send(MakeMessage("server", 50, Priority::kDefault));
  // Three losses arrive within ~0.5s; the breaker opens for 2s.
  loop_.RunUntil(At(1));
  EXPECT_EQ(sched->BreakerStateFor("server"), BreakerState::kOpen);
  EXPECT_EQ(Count(&metrics_, "scheduler.breaker_open_transitions"), 1u);

  // While open, nothing is sent.
  const uint64_t frames_at_open = Count(&metrics_, "scheduler.frames_sent");
  loop_.RunUntil(At(1.9));
  EXPECT_EQ(Count(&metrics_, "scheduler.frames_sent"), frames_at_open);

  // Cooldown passes: a single half-open probe fires, loses, and the breaker
  // reopens with a doubled cooldown.
  loop_.RunUntil(At(3.5));
  EXPECT_EQ(Count(&metrics_, "scheduler.frames_sent"), frames_at_open + 1);
  EXPECT_EQ(Count(&metrics_, "scheduler.breaker_open_transitions"), 2u);
  EXPECT_EQ(sched->BreakerStateFor("server"), BreakerState::kOpen);
}

// --- Part 4: QRPC admission and server pushback ----------------------------

TEST(QrpcOverloadTest, CallBudgetShedsBackgroundFirstNeverDurableOps) {
  Testbed bed;
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("journal", "lww", kJournalCode, "")).ok());
  ClientNodeOptions copts;
  copts.qrpc.max_outstanding_calls = 2;
  std::vector<IntervalConnectivity::Interval> up = {{At(60), At(1e6)}};
  RoverClientNode* client = bed.AddClient(
      "mobile", LinkProfile::WaveLan2(),
      std::make_unique<IntervalConnectivity>(up), copts);

  auto invoke = [&](const std::string& tok, Priority prio) {
    InvokeOptions io;
    io.force_site = ExecutionSite::kServer;
    io.priority = prio;
    return client->access()->Invoke("journal", "add", {tok}, io);
  };

  auto bg1 = invoke("bg1", Priority::kBackground);
  auto bg2 = invoke("bg2", Priority::kBackground);
  bed.RunFor(Duration::Millis(100));  // let both commit to the log
  EXPECT_EQ(client->qrpc()->PendingCount(), 2u);
  ASSERT_EQ(client->qrpc()->LogDepth(), 2u);

  // Over budget: a default call sheds the newest background call (its log
  // record is withdrawn) and is admitted in its place.
  auto d1 = invoke("d1", Priority::kDefault);
  bed.RunFor(Duration::Millis(100));
  ASSERT_TRUE(bg2.ready());
  EXPECT_EQ(bg2.value().status.code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(bg1.ready());
  EXPECT_EQ(Count(client->metrics(), "qrpc_client.background_shed"), 1u);
  EXPECT_EQ(client->qrpc()->PendingCount(), 2u);

  auto d2 = invoke("d2", Priority::kDefault);
  bed.RunFor(Duration::Millis(100));
  ASSERT_TRUE(bg1.ready());
  EXPECT_EQ(bg1.value().status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(Count(client->metrics(), "qrpc_client.background_shed"), 2u);

  // With no background left, a further call is explicitly refused at
  // Call(): kResourceExhausted before anything is logged, never a silent
  // drop of existing durable work.
  auto d3 = invoke("d3", Priority::kDefault);
  bed.RunFor(Duration::Millis(100));
  ASSERT_TRUE(d3.ready());
  EXPECT_EQ(d3.value().status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(Count(client->metrics(), "qrpc_client.admission_rejected"), 1u);
  EXPECT_EQ(client->qrpc()->PendingCount(), 2u);
  EXPECT_EQ(client->qrpc()->LogDepth(), 2u);

  // The admitted durable calls survive the disconnection and execute.
  bed.Run();
  ASSERT_TRUE(d1.ready());
  ASSERT_TRUE(d2.ready());
  EXPECT_TRUE(d1.value().status.ok()) << d1.value().status.message();
  EXPECT_TRUE(d2.value().status.ok()) << d2.value().status.message();
  auto tokens = TclListSplit(bed.server()->store()->Get("journal")->data);
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(*tokens, (std::vector<std::string>{"d1", "d2"}));
  EXPECT_EQ(client->qrpc()->LogDepth(), 0u);
}

TEST(QrpcOverloadTest, LogByteBudgetRejectsLoggedCallsOnly) {
  Testbed bed;
  ClientNodeOptions copts;
  copts.qrpc.max_log_bytes = 1;  // any logged record is over budget
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::Ethernet10(),
                                          nullptr, copts);

  QrpcCall logged = client->qrpc()->Call("server", "rover.list", {});
  ASSERT_TRUE(logged.result.Wait(bed.loop()));
  EXPECT_EQ(logged.result.value().status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(Count(client->metrics(), "qrpc_client.admission_rejected"), 1u);

  // Unlogged calls consume no stable-log budget and pass.
  QrpcCallOptions unlogged;
  unlogged.log_request = false;
  QrpcCall ok = client->qrpc()->Call("server", "rover.list", {}, unlogged);
  ASSERT_TRUE(ok.result.Wait(bed.loop()));
  EXPECT_TRUE(ok.result.value().status.ok()) << ok.result.value().status.message();
}

TEST(QrpcOverloadTest, ServerPushbackIsHonoredAndAllCallsEventuallyExecute) {
  Testbed::Options topts;
  topts.server.qrpc.max_concurrent_requests = 1;
  topts.server.qrpc.dispatch_cost = Duration::Millis(500);
  topts.server.qrpc.pushback_retry_after = Duration::Millis(200);
  Testbed bed(topts);
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("journal", "lww", kJournalCode, "")).ok());
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::Ethernet10());

  std::vector<Promise<InvokeResult>> results;
  for (int i = 0; i < 3; ++i) {
    InvokeOptions io;
    io.force_site = ExecutionSite::kServer;
    results.push_back(client->access()->Invoke("journal", "add",
                                               {"tok" + std::to_string(i)}, io));
  }
  bed.Run();

  // The overflow requests were refused with retry-after hints, the client
  // kept them queued and re-sent after the hint, and each executed exactly
  // once -- rejections must not poison the duplicate cache.
  for (auto& r : results) {
    ASSERT_TRUE(r.ready());
    EXPECT_TRUE(r.value().status.ok()) << r.value().status.message();
  }
  auto tokens = TclListSplit(bed.server()->store()->Get("journal")->data);
  ASSERT_TRUE(tokens.ok());
  std::set<std::string> unique(tokens->begin(), tokens->end());
  EXPECT_EQ(unique.size(), 3u);
  EXPECT_GE(Count(bed.server()->metrics(), "qrpc_server.requests_rejected"), 2u);
  EXPECT_GE(Count(client->metrics(), "qrpc_client.pushback_honored"), 2u);
  EXPECT_EQ(client->qrpc()->LogDepth(), 0u);
  EXPECT_EQ(client->qrpc()->PendingCount(), 0u);
}

// --- Part 5: access manager degraded mode and overflow gauge ---------------

TEST(DegradedModeTest, EngagesUnderBacklogShedsPrefetchesRecoversWithHysteresis) {
  Testbed bed;
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("journal", "lww", kJournalCode, "")).ok());
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("page", "lww", kJournalCode, "")).ok());
  ClientNodeOptions copts;
  copts.access.degraded_queue_depth = 2;
  std::vector<IntervalConnectivity::Interval> up = {{At(60), At(1e6)}};
  RoverClientNode* client = bed.AddClient(
      "mobile", LinkProfile::WaveLan2(),
      std::make_unique<IntervalConnectivity>(up), copts);

  QueueStatus last;
  client->access()->SetStatusCallback([&](const QueueStatus& s) { last = s; });
  EXPECT_FALSE(client->access()->Degraded());

  // Tentative-op queuing stays alive while the backlog builds...
  std::vector<Promise<InvokeResult>> results;
  for (int i = 0; i < 3; ++i) {
    InvokeOptions io;
    io.force_site = ExecutionSite::kServer;
    results.push_back(client->access()->Invoke("journal", "add",
                                               {"tok" + std::to_string(i)}, io));
  }
  bed.RunFor(Duration::Millis(200));
  EXPECT_TRUE(client->access()->Degraded());
  EXPECT_TRUE(last.degraded);
  EXPECT_NE(FormatQueueStatus(last).find("DEGRADED"), std::string::npos);
  EXPECT_EQ(Count(client->metrics(), "access_manager.degraded_entered"), 1u);

  // ...but prefetches are refused at the door.
  client->access()->Prefetch({"page"});
  EXPECT_EQ(Count(client->metrics(), "access_manager.prefetches_shed"), 1u);
  EXPECT_EQ(Count(client->metrics(), "access_manager.prefetch_issued"), 0u);

  // Pressure lifts: the queue drains, degraded mode exits (depth fell to 0,
  // under the half-threshold hysteresis), the queued ops all executed, and
  // prefetching works again.
  bed.Run();
  EXPECT_FALSE(client->access()->Degraded());
  EXPECT_FALSE(last.degraded);
  for (auto& r : results) {
    ASSERT_TRUE(r.ready());
    EXPECT_TRUE(r.value().status.ok()) << r.value().status.message();
  }
  client->access()->Prefetch({"page"});
  bed.Run();
  EXPECT_EQ(Count(client->metrics(), "access_manager.prefetch_issued"), 1u);
  EXPECT_TRUE(client->access()->HasCached("page"));
}

TEST(CacheOverflowTest, UnevictableOverflowIsCountedAndGaugeClearsOnRelief) {
  Testbed bed;
  const std::string big(300, 'x');
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("a", "lww", kJournalCode, big)).ok());
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("b", "lww", kJournalCode, big)).ok());
  ClientNodeOptions copts;
  copts.access.cache_capacity_bytes = 100;
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::Ethernet10(),
                                          nullptr, copts);

  ImportOptions pin;
  pin.pin = true;
  auto ia = client->access()->Import("a", pin);
  ASSERT_TRUE(ia.Wait(bed.loop()));
  ASSERT_TRUE(ia.value().status.ok());
  auto ib = client->access()->Import("b", pin);
  ASSERT_TRUE(ib.Wait(bed.loop()));
  ASSERT_TRUE(ib.value().status.ok());

  // Both entries are pinned: nothing is evictable, the cache overflows, and
  // the overage is surfaced instead of growing silently.
  EXPECT_GT(client->access()->CacheBytes(), copts.access.cache_capacity_bytes);
  EXPECT_EQ(Count(client->metrics(), "access_manager.cache_overflow_events"), 1u);
  const int64_t over = GaugeValue(client->metrics(), "access_manager.cache_overflow_bytes");
  EXPECT_EQ(static_cast<size_t>(over),
            client->access()->CacheBytes() - copts.access.cache_capacity_bytes);

  // Explicit eviction relieves the overflow; the gauge returns to zero.
  client->access()->Evict("a");
  client->access()->Evict("b");
  EXPECT_EQ(GaugeValue(client->metrics(), "access_manager.cache_overflow_bytes"), 0);
  // One overage episode, one event: the counter did not tick per byte.
  EXPECT_EQ(Count(client->metrics(), "access_manager.cache_overflow_events"), 1u);
}

// --- Part 6: seeded overload chaos -----------------------------------------

class OverloadChaosTest : public ::testing::TestWithParam<uint64_t> {};

// Sustained ~2x overload: 2 ops/s of durable foreground work plus periodic
// background prefetch bursts, pushed over a flapping lossy WaveLAN link at a
// concurrency-limited server that is also crash-restarted twice. Invariants:
//   1. the client's stable log and scheduler queue stay within their byte
//      budgets at every sampled instant (memory bounded under overload);
//   2. loss retries stay within the token-bucket retry budget;
//   3. durable (non-background) ops are never silently shed: each is either
//      explicitly refused at Call() (and then never executes) or executes
//      exactly once; every acknowledged op's token is present;
//   4. once the pressure lifts the system drains: empty log, no pending
//      calls, and a fresh import converges to the server's state.
TEST_P(OverloadChaosTest, SustainedOverloadDegradesGracefullyAndDrains) {
  Testbed::Options topts;
  topts.server.qrpc.max_concurrent_requests = 2;
  topts.server.qrpc.dispatch_cost = Duration::Millis(100);
  topts.server.qrpc.pushback_retry_after = Duration::Millis(200);
  Testbed bed(topts);
  bed.loop()->set_event_limit(20'000'000);

  check::SimCheck simcheck;
  simcheck.Attach(&bed);
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("journal", "lww", kJournalCode, "")).ok());
  const std::string page_data(400, 'p');
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(bed.server()->rover()->CreateObject(
        MakeRdo("page" + std::to_string(i), "lww", kJournalCode, page_data)).ok());
  }

  FaultPlan plan(bed.loop(), GetParam());
  LinkProfile wave = LinkProfile::WaveLan2();
  wave.loss_prob = 0.15;

  ClientNodeOptions copts;
  copts.scheduler.max_queued_messages = 16;
  copts.scheduler.max_queued_bytes = 8 << 10;
  copts.scheduler.retry_budget_capacity = 32;
  copts.scheduler.retry_budget_refill_per_sec = 4;
  copts.scheduler.breaker.failure_threshold = 4;
  copts.scheduler.breaker.open_duration = Duration::Millis(500);
  copts.qrpc.max_outstanding_calls = 24;
  copts.qrpc.max_log_bytes = 6 << 10;
  copts.access.degraded_queue_depth = 6;
  RoverClientNode* client = bed.AddClient(
      "mobile", wave,
      plan.FlappyConnectivity(Duration::Seconds(6), Duration::Seconds(3),
                              Duration::Seconds(40)),
      copts);

  // Offered load: one durable op every 500ms for 20s (~2x what the flapping
  // lossy link sustains), plus a background prefetch burst every 2.5s.
  constexpr int kTokens = 40;
  std::vector<Promise<InvokeResult>> results(kTokens);
  for (int i = 0; i < kTokens; ++i) {
    bed.loop()->ScheduleAt(At(1.0 + 0.5 * i), [&results, client, i] {
      InvokeOptions io;
      io.force_site = ExecutionSite::kServer;
      results[i] = client->access()->Invoke("journal", "add",
                                            {"tok" + std::to_string(i)}, io);
    });
  }
  for (int burst = 0; burst < 8; ++burst) {
    bed.loop()->ScheduleAt(At(2.0 + 2.5 * burst), [client, burst] {
      client->access()->Prefetch({"page" + std::to_string((burst * 3) % 6),
                                  "page" + std::to_string((burst * 3 + 1) % 6),
                                  "page" + std::to_string((burst * 3 + 2) % 6)});
    });
  }

  // Server flaps too: two crash-restarts during the loaded window.
  RandomFaultOptions fopts;
  fopts.horizon = Duration::Seconds(30);
  fopts.server_crashes = 2;
  fopts.client_crashes = 0;
  plan.ScheduleRandomFaults(bed.server(), {}, fopts);
  // One final client restart after the pressure lifts resends every durable
  // unanswered request (responses lost to server crashes have no other
  // resend trigger), so the run always quiesces with an empty log.
  plan.CrashClientAt(client, At(70));

  // Sample the client's memory every 250ms through the loaded window.
  size_t max_log_bytes = 0, max_queued_bytes = 0;
  // Re-arms itself by reference: the frame owns it, so no ownership cycle.
  std::function<void()> sampler;
  sampler = [&] {
    max_log_bytes = std::max(max_log_bytes, client->log()->TotalBytes());
    max_queued_bytes = std::max(
        max_queued_bytes, client->transport()->scheduler()->QueuedPayloadBytes());
    if (bed.loop()->now() < At(69)) {
      bed.loop()->ScheduleAfter(Duration::Millis(250), sampler);
    }
  };
  bed.loop()->ScheduleAt(At(1), sampler);

  bed.Run();

  // 1. Memory stayed within budget at every sample.
  EXPECT_LE(max_log_bytes, copts.qrpc.max_log_bytes);
  EXPECT_LE(max_queued_bytes, copts.scheduler.max_queued_bytes);

  // 2. Loss retries stayed within the token budget: burst capacity plus the
  // refill over the whole run, with slack for link-down requeues (counted
  // as retries but exempt from the budget -- reconnection, not loss).
  const double elapsed = (bed.loop()->now() - TimePoint::Epoch()).seconds();
  const obs::Registry* metrics = client->metrics();
  EXPECT_LE(Count(metrics, "scheduler.retries"),
            copts.scheduler.retry_budget_capacity +
                copts.scheduler.retry_budget_refill_per_sec * elapsed + 40);

  // 3. At-most-once and no silent shedding of durable work.
  const std::string server_data = bed.server()->store()->Get("journal")->data;
  auto tokens = TclListSplit(server_data);
  ASSERT_TRUE(tokens.ok());
  std::set<std::string> present(tokens->begin(), tokens->end());
  EXPECT_EQ(present.size(), tokens->size())
      << "an add executed twice: [" << server_data << "]";
  for (int i = 0; i < kTokens; ++i) {
    const std::string tok = "tok" + std::to_string(i);
    if (!results[i].ready()) {
      continue;  // promise died with the client crash; covered by at-most-once
    }
    const Status& st = results[i].value().status;
    if (st.ok()) {
      EXPECT_EQ(present.count(tok), 1u)
          << "acknowledged " << tok << " lost: [" << server_data << "]";
    } else if (st.code() == StatusCode::kResourceExhausted) {
      // Explicit admission refusal: refused before logging, never executed,
      // and never the silent-shed message reserved for background work.
      EXPECT_EQ(st.message().find("shed"), std::string::npos)
          << "durable op shed: " << st.message();
      EXPECT_EQ(present.count(tok), 0u)
          << "refused " << tok << " executed anyway";
    }
  }

  // The scenario actually generated overload pressure.
  EXPECT_GT(Count(metrics, "scheduler.messages_shed") +
                Count(metrics, "scheduler.enqueue_rejected") +
                Count(metrics, "qrpc_client.admission_rejected") +
                Count(metrics, "qrpc_client.background_shed") +
                Count(metrics, "access_manager.prefetches_shed") +
                Count(metrics, "access_manager.degraded_entered") +
                Count(bed.server()->metrics(), "qrpc_server.requests_rejected"),
            0u);

  // 4. Drained and convergent after the pressure lifted.
  EXPECT_EQ(client->qrpc()->LogDepth(), 0u);
  EXPECT_EQ(client->qrpc()->PendingCount(), 0u);
  EXPECT_FALSE(client->access()->Degraded());
  ImportOptions iopts;
  iopts.allow_cached = false;
  auto converge = client->access()->Import("journal", iopts);
  ASSERT_TRUE(converge.Wait(bed.loop()));
  ASSERT_TRUE(converge.value().status.ok());
  EXPECT_EQ(*client->access()->ReadCommittedData("journal"), server_data);

  simcheck.CheckQuiesced();
  EXPECT_TRUE(simcheck.ok()) << simcheck.Report() << simcheck.TraceTail(150);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverloadChaosTest,
                         ::testing::ValuesIn(check::SeedsFromEnv("ROVER_OVERLOAD_SEEDS", 6)));

}  // namespace
}  // namespace rover

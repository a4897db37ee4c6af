// SimCheck tests.
//
// Part 1 runs the seeded interleaving fuzzer over the default corpus: every
// seed's schedule must leave zero invariant violations.
// Part 2 is the checker meta-test: with the known PR-4 coalescing bug
// deliberately re-introduced (eager predecessor-record withdrawal), the
// fuzzer must catch it, the shrinker must reduce the schedule, and the
// one-line repro must round-trip and still discriminate buggy from fixed.
// Part 3 covers the repro-line format itself and the seed grammar shared by
// the seeded harnesses.
// Part 4 holds a named deterministic regression test for each latent bug
// the checker flushed out of the toolkit:
//   * compaction racing a pending response transaction (double-apply),
//   * duplicate replay from a not-yet-journaled response (acked loss),
//   * crash-recovered calls shed under queue pressure (silent durable loss).

#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/check/fuzz.h"
#include "src/check/simcheck.h"
#include "src/core/toolkit.h"
#include "src/store/server_store.h"
#include "src/tclite/value.h"
#include "tests/test_metrics.h"

namespace rover {
namespace check {
namespace {

constexpr char kCounterCode[] = R"(
proc get {} { global state; return $state }
proc add {n} { global state; set state [expr {$state + $n}]; return $state }
)";

constexpr char kJournalCode[] = R"(
proc get {} { global state; return $state }
proc add {t} { global state; lappend state $t; return $state }
)";

TimePoint At(double seconds) {
  return TimePoint::Epoch() + Duration::Seconds(seconds);
}

// Runs the loop in 1ms increments until `pred` holds or `deadline` passes.
template <typename Pred>
bool StepUntil(EventLoop* loop, TimePoint deadline, Pred pred) {
  TimePoint t = loop->now();
  while (!pred() && t < deadline) {
    t = t + Duration::Millis(1);
    loop->RunUntil(t);
  }
  return pred();
}

// --- Part 1: fuzz corpus ---------------------------------------------------

class SimCheckFuzzTest : public testing::TestWithParam<uint64_t> {};

TEST_P(SimCheckFuzzTest, SeededScheduleHoldsAllInvariants) {
  FuzzPlan plan = MakePlan(GetParam());
  FuzzOutcome outcome = RunPlan(plan);
  EXPECT_TRUE(outcome.ok) << FormatRepro(plan) << "\n" << outcome.report;
}

INSTANTIATE_TEST_SUITE_P(Corpus, SimCheckFuzzTest, testing::Range<uint64_t>(1, 25));

// --- Part 2: checker meta-test ---------------------------------------------

// Re-introduce the PR-4 coalescing bug (a superseded predecessor's log
// record withdrawn before the successor is durable) and demonstrate the
// whole loop: the fuzzer catches it as a durability loss, greedy shrinking
// reduces the schedule to the two-action kernel (a coalescing burst shadowed
// by a torn client crash), and the repro line replays both ways.
TEST(SimCheckMetaTest, ReintroducedCoalescingBugIsCaughtAndShrunkToOneLine) {
  FuzzRunOptions buggy;
  buggy.eager_coalesce_bug = true;

  // Seed 17's schedule lands a torn client-2 crash just after an export
  // burst -- inside the predecessor-withdrawn-but-successor-not-durable
  // window the eager withdrawal opens.
  FuzzPlan plan = MakePlan(17);
  FuzzOutcome broken = RunPlan(plan, buggy);
  ASSERT_FALSE(broken.ok) << "re-introduced coalescing bug went undetected";
  bool saw_durability_loss = false;
  for (const Violation& v : broken.violations) {
    saw_durability_loss |= v.invariant == "durability-loss";
  }
  EXPECT_TRUE(saw_durability_loss) << broken.report;

  FuzzPlan shrunk = ShrinkPlan(plan, buggy);
  EXPECT_LT(shrunk.actions.size(), plan.actions.size());
  EXPECT_LE(shrunk.actions.size(), 2u) << FormatRepro(shrunk);
  ASSERT_FALSE(RunPlan(shrunk, buggy).ok) << "shrunk plan no longer fails";

  // The minimized schedule round-trips through its one-line repro, still
  // bites with the bug in place, and passes on the fixed code.
  const std::string line = FormatRepro(shrunk);
  auto parsed = ParseRepro(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->seed, 17u);
  EXPECT_EQ(FormatRepro(*parsed), line);
  EXPECT_FALSE(RunPlan(*parsed, buggy).ok);
  FuzzOutcome fixed = RunPlan(*parsed);
  EXPECT_TRUE(fixed.ok) << fixed.report;
}

// --- Part 3: repro lines ---------------------------------------------------

TEST(SimCheckReproTest, RoundTripsEveryActionKind) {
  const std::string line =
      "SIMCHECK_REPRO seed=7 "
      "plan=client1-crash@100,client2-crash-tear@200,server-crash@300,"
      "server-crash-tear@400,corrupt-image@500,burst@600";
  auto plan = ParseRepro(line);
  ASSERT_TRUE(plan.ok()) << plan.status().message();
  EXPECT_EQ(plan->seed, 7u);
  ASSERT_EQ(plan->actions.size(), 6u);
  EXPECT_EQ(plan->actions[0].kind, FuzzActionKind::kClientCrash);
  EXPECT_EQ(plan->actions[0].target, 0);
  EXPECT_FALSE(plan->actions[0].tear);
  EXPECT_EQ(plan->actions[1].kind, FuzzActionKind::kClientCrash);
  EXPECT_EQ(plan->actions[1].target, 1);
  EXPECT_TRUE(plan->actions[1].tear);
  EXPECT_EQ(plan->actions[2].kind, FuzzActionKind::kServerCrash);
  EXPECT_TRUE(plan->actions[3].tear);
  EXPECT_EQ(plan->actions[4].kind, FuzzActionKind::kCorruptImage);
  EXPECT_EQ(plan->actions[5].kind, FuzzActionKind::kBurst);
  EXPECT_EQ(plan->actions[5].at_ms, 600u);
  EXPECT_EQ(FormatRepro(*plan), line);
}

TEST(SimCheckReproTest, RejectsMalformedLines) {
  EXPECT_FALSE(ParseRepro("").ok());
  EXPECT_FALSE(ParseRepro("no tags at all").ok());
  EXPECT_FALSE(ParseRepro("SIMCHECK_REPRO seed=5").ok());
  EXPECT_FALSE(ParseRepro("SIMCHECK_REPRO seed=x plan=burst@1").ok());
  EXPECT_FALSE(ParseRepro("SIMCHECK_REPRO seed=5 plan=").ok());
  EXPECT_FALSE(ParseRepro("SIMCHECK_REPRO seed=5 plan=burst").ok());
  EXPECT_FALSE(ParseRepro("SIMCHECK_REPRO seed=5 plan=burst@").ok());
  EXPECT_FALSE(ParseRepro("SIMCHECK_REPRO seed=5 plan=warp@100").ok());
}

TEST(SimCheckReproTest, EveryTokenRoundTrips) {
  // Every (kind, target, tear) combination that has a token parses back to
  // the same fields; the crash, image, burst and disk kinds give 23 tokens.
  std::set<std::string> lines;
  for (int kind = 0; kind <= static_cast<int>(FuzzActionKind::kDiskSyncFail); ++kind) {
    for (int target = 0; target < 3; ++target) {
      for (bool tear : {false, true}) {
        FuzzAction action;
        action.kind = static_cast<FuzzActionKind>(kind);
        action.target = target;
        action.tear = tear;
        action.at_ms = 40;
        const std::string line = FormatRepro(FuzzPlan{3, {action}});
        if (line.find("unknown") != std::string::npos) {
          continue;
        }
        auto parsed = ParseRepro(line);
        ASSERT_TRUE(parsed.ok()) << line << ": " << parsed.status().message();
        ASSERT_EQ(parsed->actions.size(), 1u);
        EXPECT_EQ(parsed->actions[0].kind, action.kind) << line;
        EXPECT_EQ(parsed->actions[0].target, target) << line;
        EXPECT_EQ(parsed->actions[0].tear, tear) << line;
        EXPECT_EQ(parsed->actions[0].at_ms, 40u) << line;
        EXPECT_EQ(FormatRepro(*parsed), line);
        lines.insert(line);
      }
    }
  }
  EXPECT_EQ(lines.size(), 23u);
}

TEST(SeedSpecTest, ParsesValuesRangesAndMixedSeparators) {
  EXPECT_EQ(ParseSeedSpec("7"), std::vector<uint64_t>({7}));
  EXPECT_EQ(ParseSeedSpec("1-4"), std::vector<uint64_t>({1, 2, 3, 4}));
  EXPECT_EQ(ParseSeedSpec("3, 7 9-11,2"), std::vector<uint64_t>({3, 7, 9, 10, 11, 2}));
  EXPECT_TRUE(ParseSeedSpec("").empty());
  EXPECT_TRUE(ParseSeedSpec(" , ").empty());
}

TEST(SeedSpecTest, UnsetOrEmptyEnvironmentGivesDefaultCorpus) {
  const char* var = "ROVER_SEED_SPEC_TEST_SEEDS";
  const std::vector<uint64_t> defaults = {1, 2, 3};
  unsetenv(var);
  EXPECT_EQ(SeedsFromEnv(var, 3), defaults);
  setenv(var, "", 1);
  EXPECT_EQ(SeedsFromEnv(var, 3), defaults);
  setenv(var, "5-6 9", 1);
  EXPECT_EQ(SeedsFromEnv(var, 3), std::vector<uint64_t>({5, 6, 9}));
  unsetenv(var);
}

// --- Part 4: regression tests for the latent-bug batch ---------------------

// Bug: RoverServer::MaybeCompact() would snapshot while another RPC's
// mutations sat in pending_ops_ (applied to the store, transaction not yet
// journaled). The snapshot persisted the mutation WITHOUT its duplicate-
// cache response; after a crash the client's resend re-executed it.
// Fixed by deferring compaction until pending_ops_ drains.
TEST(SimCheckRegressionTest, CompactionDefersWhileResponseTransactionPending) {
  Testbed::Options topts;
  topts.server.stable_store.compact_after_records = 1;  // compact eagerly
  // A long interpreted execution holds the invoke's mutations in
  // pending_ops_ for 500ms before its response transaction is journaled.
  topts.server.rover.rdo_costs.load_fixed = Duration::Millis(500);
  Testbed bed(topts);
  check::SimCheck simcheck;
  simcheck.Attach(&bed);
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("counter", "lww", kCounterCode, "0")).ok());
  RoverClientNode* a = bed.AddClient("mobile-a", LinkProfile::WaveLan2());
  RoverClientNode* b = bed.AddClient("mobile-b", LinkProfile::WaveLan2());

  // A's add applies at ~1s; its response transaction journals at ~1.5s.
  bed.loop()->ScheduleAt(At(1.0), [&] {
    InvokeOptions io;
    io.force_site = ExecutionSite::kServer;
    a->access()->Invoke("counter", "add", {"5"}, io);
  });
  // B's import lands inside that window. Its response journal flushes and
  // -- with the WAL over threshold -- asks for compaction while A's
  // mutation is pending.
  bed.loop()->ScheduleAt(At(1.1), [&] {
    ImportOptions io;
    io.allow_cached = false;
    b->access()->Import("counter", io);
  });

  bed.loop()->RunUntil(At(1.3));
  ASSERT_EQ(*bed.server()->store()->VersionOf("counter"), 2u);
  // The compaction request fired (threshold 1) but must have been deferred.
  EXPECT_EQ(bed.server()->stable_store()->stats().snapshots_written, 0u);

  // Crash before A's transaction journals: the mutation must vanish with
  // it. A pre-fix snapshot would have persisted it response-less.
  bed.server()->SimulateCrashAndRestart(false);
  EXPECT_EQ(*bed.server()->store()->VersionOf("counter"), 1u);

  // A's call is durable and unanswered; the resend executes exactly once.
  bed.loop()->RunUntil(At(2.0));
  EXPECT_EQ(a->SimulateCrashAndRestart(false), 1u);
  bed.Run();
  EXPECT_EQ(*bed.server()->store()->VersionOf("counter"), 2u);
  EXPECT_EQ(bed.server()->store()->Get("counter")->data, "5");  // not 10
  EXPECT_EQ(a->qrpc()->LogDepth(), 0u);

  simcheck.CheckQuiesced();
  EXPECT_TRUE(simcheck.ok()) << simcheck.Report() << simcheck.TraceTail(150);
}

// Bug: a duplicate arriving while the original's response journal was still
// in flight was answered from the in-memory duplicate cache. A crash could
// then forget the transaction the replayed response acknowledged -- the
// client held an answer for an operation the server lost. Fixed by dropping
// duplicates whose response is not yet durable (undurable_responses_ gate).
TEST(SimCheckRegressionTest, DuplicateBeforeResponseDurableIsDroppedNotReplayed) {
  Testbed::Options topts;
  // A disk-like journal keeps the response write in flight for 300ms.
  topts.server.stable_store.wal_costs = {Duration::Millis(300), 2e6,
                                         /*group_commit=*/true};
  Testbed bed(topts);
  check::SimCheck simcheck;
  simcheck.Attach(&bed);
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("counter", "lww", kCounterCode, "0")).ok());
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::WaveLan2());

  bed.loop()->ScheduleAt(At(1.0), [&] {
    InvokeOptions io;
    io.force_site = ExecutionSite::kServer;
    client->access()->Invoke("counter", "add", {"5"}, io);
  });

  // Catch the handler executed with its response journal write on the
  // device, then resend the request into that window via a client restart.
  bed.loop()->RunUntil(At(1.05));
  ASSERT_TRUE(StepUntil(bed.loop(), At(3.0), [&] {
    return *bed.server()->store()->VersionOf("counter") == 2 &&
           bed.server()->stable_store()->wal()->WriteInFlight();
  }));
  ASSERT_EQ(client->SimulateCrashAndRestart(false), 1u);
  ASSERT_TRUE(StepUntil(bed.loop(), At(3.0), [&] {
    return Count(bed.server()->metrics(), "qrpc_server.duplicates") >= 1;
  }));
  // The duplicate was dropped, not replayed: the client still waits.
  ASSERT_TRUE(bed.server()->stable_store()->wal()->WriteInFlight());
  EXPECT_EQ(client->qrpc()->PendingCount(), 1u);

  // Crash with the journal write still in flight: the transaction -- and
  // the response a pre-fix replay would already have handed out -- is lost.
  bed.server()->SimulateCrashAndRestart(false);
  EXPECT_EQ(*bed.server()->store()->VersionOf("counter"), 1u);

  // No response ever left, so the client's record is still logged; its
  // resend re-executes on the recovered server and the add lands once.
  EXPECT_EQ(client->SimulateCrashAndRestart(false), 1u);
  bed.Run();
  EXPECT_EQ(*bed.server()->store()->VersionOf("counter"), 2u);
  EXPECT_EQ(bed.server()->store()->Get("counter")->data, "5");
  EXPECT_EQ(client->qrpc()->LogDepth(), 0u);
  EXPECT_EQ(client->qrpc()->PendingCount(), 0u);

  simcheck.CheckQuiesced();
  EXPECT_TRUE(simcheck.ok()) << simcheck.Report() << simcheck.TraceTail(150);
}

// Bug: RecoverFromLog re-dispatches every durable record, and a background
// record refused by the network scheduler under queue pressure went through
// the shed path: log record withdrawn, result resolved into a synthetic
// promise nobody observes. An acknowledged-durable operation silently
// vanished. Fixed: recovered calls are exempt from shedding; a refused
// dispatch is retried after a backoff with the record kept.
TEST(SimCheckRegressionTest, RecoveredCallsRefusedByTheSchedulerRetryNotShed) {
  Testbed::Options topts;
  // Park every executed request for a long time so no response resolves or
  // truncates the log before the client restart.
  topts.server.qrpc.dispatch_cost = Duration::Seconds(30);
  Testbed bed(topts);
  check::SimCheck simcheck;
  simcheck.Attach(&bed);
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("journal", "lww", kJournalCode, "")).ok());
  ClientNodeOptions copts;
  copts.scheduler.max_queued_messages = 2;  // recovery re-enqueues 4 at once
  RoverClientNode* client =
      bed.AddClient("mobile", LinkProfile::WaveLan2(), nullptr, copts);

  // Four durable background adds, spaced out so the live queue never sees
  // more than one at a time.
  const std::vector<std::string> tokens = {"t1", "t2", "t3", "t4"};
  for (size_t i = 0; i < tokens.size(); ++i) {
    bed.loop()->ScheduleAt(At(1.0 + 0.2 * static_cast<double>(i)), [&, i] {
      InvokeOptions io;
      io.force_site = ExecutionSite::kServer;
      io.priority = Priority::kBackground;
      client->access()->Invoke("journal", "add", {tokens[i]}, io);
    });
  }
  bed.loop()->RunUntil(At(3.0));
  ASSERT_EQ(client->qrpc()->LogDepth(), 4u);

  // The restart resends all four in one burst; the two past the queue bound
  // are refused by the scheduler and must be retried, not withdrawn.
  EXPECT_EQ(client->SimulateCrashAndRestart(false), 4u);
  EXPECT_GE(Count(client->metrics(), "qrpc_client.recovered_retries"), 1u);
  EXPECT_EQ(Count(client->metrics(), "qrpc_client.background_shed"), 0u);
  EXPECT_EQ(client->qrpc()->PendingCount(), 4u);

  bed.Run();
  // Every acknowledged-durable add executed, exactly once each.
  auto entries = TclListSplit(bed.server()->store()->Get("journal")->data);
  ASSERT_TRUE(entries.ok());
  for (const std::string& token : tokens) {
    size_t copies = 0;
    for (const std::string& entry : *entries) {
      copies += entry == token ? 1 : 0;
    }
    EXPECT_EQ(copies, 1u) << token << " in [" << bed.server()->store()->Get("journal")->data
                          << "]";
  }
  EXPECT_EQ(client->qrpc()->LogDepth(), 0u);
  EXPECT_EQ(client->qrpc()->PendingCount(), 0u);

  simcheck.CheckQuiesced();
  EXPECT_TRUE(simcheck.ok()) << simcheck.Report() << simcheck.TraceTail(150);
}

}  // namespace
}  // namespace check
}  // namespace rover

// Primary/backup replication and client-transparent failover tests.
//
// Part 1 exercises deterministic failover scenarios on a full Testbed:
// a replicated (executed + backup-acked) operation re-sent to the backup
// replays from the shipped duplicate cache without re-executing; an
// operation the primary died holding re-executes at the backup exactly
// once; a dead primary trips the circuit breaker and engages the
// configured failover route with no external trigger; a WAL fail-stop
// hands the service to the backup through the fail-stop failover handler;
// a silent backup degrades the sender to asynchronous shipping instead of
// wedging response release; and the backup's bootstrap resync is counted
// on both ends of the channel.
// Part 2 is the failover chaos harness: a seeded FaultPlan kills the
// primary for good at a random point in the run (mid-WAL-flush,
// mid-coalesce, mid-anything), promotes the backup one detection delay
// later, and the at-most-once / no-acked-loss / convergence invariants
// must hold for every seed. Seeds 1-24 run by default; ROVER_FAILOVER_SEEDS
// names others in the shared seed grammar, e.g. "1-48" or "3 7 9-12".

#include <cstdint>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/check/fuzz.h"
#include "src/check/simcheck.h"
#include "src/core/fault_plan.h"
#include "src/core/toolkit.h"
#include "src/tclite/value.h"
#include "tests/test_metrics.h"

namespace rover {
namespace {

// Appends its argument to a list-valued state: every successful execution
// leaves exactly one copy of the token behind, which is what the
// at-most-once invariants count.
constexpr char kJournalCode[] = R"(
proc get {} { global state; return $state }
proc add {t} { global state; lappend state $t; return $state }
)";

ClientNodeOptions FailoverClientOptions() {
  ClientNodeOptions copts;
  copts.qrpc.failover_primary = "server";
  copts.qrpc.failover_backup = "backup";
  return copts;
}

// --- Part 1: deterministic failover scenarios ------------------------------

// An operation executes at the primary and its transaction is shipped and
// acked by the backup, but the response is stuck behind a dead client link
// when the primary is killed. After failover the client's re-dispatch must
// be answered from the backup's replicated duplicate cache -- the handler
// never runs again, and the journal holds the token exactly once.
TEST(FailoverTest, ReplicatedResponseReplaysAtBackupWithoutReexecution) {
  Testbed::Options topts;
  // Push handler execution past the link-down edge so the response queues
  // behind a dead link instead of being delivered.
  topts.server.qrpc.dispatch_cost = Duration::Seconds(2);
  Testbed bed(topts);
  check::SimCheck simcheck;
  simcheck.Attach(&bed);
  RoverServerNode* backup = bed.AddBackup("backup", LinkProfile::Ethernet10());
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("journal", "lww", kJournalCode, "")).ok());

  // Up long enough for the request to land (~0.15s), then down; the far
  // future interval keeps the scheduler waiting for the link rather than
  // declaring the primary unreachable on its own (that path has its own
  // test below).
  std::vector<IntervalConnectivity::Interval> up = {
      {TimePoint::Epoch(), TimePoint::Epoch() + Duration::Seconds(1)},
      {TimePoint::Epoch() + Duration::Seconds(200),
       TimePoint::FromMicros(INT64_MAX)}};
  RoverClientNode* client = bed.AddClient(
      "mobile", LinkProfile::WaveLan2(),
      std::make_unique<IntervalConnectivity>(up), FailoverClientOptions());
  bed.AddLink("mobile", "backup", LinkProfile::WaveLan2());

  Promise<InvokeResult> result;
  bed.loop()->ScheduleAt(TimePoint::Epoch() + Duration::Millis(100), [&] {
    InvokeOptions io;
    io.force_site = ExecutionSite::kServer;
    result = client->access()->Invoke("journal", "add", {"tok0"}, io);
  });

  // By 4s the handler ran (2.15s), the transaction journaled, shipped, and
  // the backup acked it -- but the response never reached the client.
  bed.loop()->RunUntil(TimePoint::Epoch() + Duration::Seconds(4));
  ASSERT_GE(bed.server()->replication_sender()->acked_watermark(), 2u);
  EXPECT_FALSE(result.ready());
  // The sender's stats() snapshot is built from its registry counters.
  const ReplicationSenderStats shipped = bed.server()->replication_sender()->stats();
  EXPECT_GE(shipped.transactions_shipped, 2u);
  EXPECT_GT(shipped.bytes_shipped, 0u);
  EXPECT_EQ(Count(bed.server()->metrics(), "replication_sender.txns_shipped"),
            shipped.transactions_shipped);
  EXPECT_EQ(Count(bed.server()->metrics(), "replication_sender.bytes_shipped"),
            shipped.bytes_shipped);

  const uint64_t primary_epoch = bed.server()->qrpc()->epoch();
  bed.server()->Kill();
  EXPECT_TRUE(bed.server()->dead());
  bed.loop()->ScheduleAt(TimePoint::Epoch() + Duration::Millis(4200), [&] {
    // Promotion fences every epoch the primary used, once: a second call
    // neither bumps the epoch nor counts again.
    const uint64_t epoch = backup->Promote();
    EXPECT_GT(epoch, primary_epoch);
    EXPECT_EQ(backup->qrpc()->epoch(), epoch);
    EXPECT_EQ(backup->Promote(), epoch);
    EXPECT_EQ(Count(backup->metrics(), "replication_receiver.promotions"), 1u);
    client->qrpc()->TriggerFailover();
  });
  bed.Run();

  ASSERT_TRUE(result.ready());
  EXPECT_TRUE(result.value().status.ok());
  EXPECT_TRUE(client->qrpc()->failover_engaged());
  EXPECT_EQ(Count(client->metrics(), "qrpc_client.failovers"), 1u);
  EXPECT_GE(Count(client->metrics(), "qrpc_client.failover_redispatches"), 1u);
  // Answered from the replicated duplicate cache: no execution at the
  // backup, token present exactly once.
  EXPECT_GE(Count(backup->metrics(), "qrpc_server.duplicates"), 1u);
  EXPECT_EQ(backup->rover()->stats().invokes, 0u);
  ASSERT_TRUE(backup->store()->Get("journal").ok());
  EXPECT_EQ(backup->store()->Get("journal")->data, "tok0");
  simcheck.CheckQuiesced();
  EXPECT_TRUE(simcheck.ok()) << simcheck.Report() << simcheck.TraceTail(150);
}

// The primary dies holding the request -- executed nothing, shipped
// nothing. The backup has no duplicate-cache entry, so the re-dispatched
// operation executes there: exactly once, as a fresh execution.
TEST(FailoverTest, NonReplicatedOpReexecutesExactlyOnceAtBackup) {
  Testbed::Options topts;
  topts.server.qrpc.dispatch_cost = Duration::Seconds(2);
  Testbed bed(topts);
  check::SimCheck simcheck;
  simcheck.Attach(&bed);
  RoverServerNode* backup = bed.AddBackup("backup", LinkProfile::Ethernet10());
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("journal", "lww", kJournalCode, "")).ok());
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::WaveLan2(),
                                          nullptr, FailoverClientOptions());
  bed.AddLink("mobile", "backup", LinkProfile::WaveLan2());

  Promise<InvokeResult> result;
  bed.loop()->ScheduleAt(TimePoint::Epoch() + Duration::Millis(100), [&] {
    InvokeOptions io;
    io.force_site = ExecutionSite::kServer;
    result = client->access()->Invoke("journal", "add", {"tok0"}, io);
  });
  // The request arrives ~0.15s; the handler would run at ~2.15s. Kill the
  // primary mid-dispatch, before anything is journaled or shipped.
  bed.loop()->ScheduleAt(TimePoint::Epoch() + Duration::Seconds(1), [&] {
    bed.server()->Kill();
  });
  bed.loop()->ScheduleAt(TimePoint::Epoch() + Duration::Millis(1200), [&] {
    backup->Promote();
    client->qrpc()->TriggerFailover();
  });
  bed.Run();

  ASSERT_TRUE(result.ready());
  EXPECT_TRUE(result.value().status.ok());
  // Fresh execution at the backup, not a replay.
  EXPECT_EQ(Count(backup->metrics(), "qrpc_server.duplicates"), 0u);
  EXPECT_EQ(backup->rover()->stats().invokes, 1u);
  ASSERT_TRUE(backup->store()->Get("journal").ok());
  EXPECT_EQ(backup->store()->Get("journal")->data, "tok0");
  simcheck.CheckQuiesced();
  EXPECT_TRUE(simcheck.ok()) << simcheck.Report() << simcheck.TraceTail(150);
}

// No external trigger: the dead primary's links will never come up again,
// so the enqueue path force-opens the destination's circuit breaker, and
// the breaker observer engages the configured failover route by itself.
TEST(FailoverTest, DeadPrimaryOpensBreakerAndEngagesFailoverAutomatically) {
  Testbed bed;
  check::SimCheck simcheck;
  simcheck.Attach(&bed);
  RoverServerNode* backup = bed.AddBackup("backup", LinkProfile::Ethernet10());
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("journal", "lww", kJournalCode, "")).ok());
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::WaveLan2(),
                                          nullptr, FailoverClientOptions());
  bed.AddLink("mobile", "backup", LinkProfile::WaveLan2());

  bed.loop()->ScheduleAt(TimePoint::Epoch() + Duration::Millis(500), [&] {
    bed.server()->Kill();
    backup->Promote();
  });
  Promise<InvokeResult> result;
  bed.loop()->ScheduleAt(TimePoint::Epoch() + Duration::Seconds(1), [&] {
    InvokeOptions io;
    io.force_site = ExecutionSite::kServer;
    result = client->access()->Invoke("journal", "add", {"tok0"}, io);
  });
  bed.Run();

  ASSERT_TRUE(result.ready());
  EXPECT_TRUE(result.value().status.ok());
  EXPECT_TRUE(client->qrpc()->failover_engaged());
  EXPECT_EQ(Count(client->metrics(), "qrpc_client.failovers"), 1u);
  EXPECT_EQ(backup->rover()->stats().invokes, 1u);
  ASSERT_TRUE(backup->store()->Get("journal").ok());
  EXPECT_EQ(backup->store()->Get("journal")->data, "tok0");
  simcheck.CheckQuiesced();
  EXPECT_TRUE(simcheck.ok()) << simcheck.Report() << simcheck.TraceTail(150);
}

// Storage death as a failover trigger: the primary's WAL device fails its
// syncs permanently, the fail-stop handler Kill()s the node and hands the
// service to the backup, and the client's operation still completes there.
TEST(FailoverTest, WalFailStopKillsPrimaryAndHandsOffToBackup) {
  Testbed bed;
  check::SimCheck simcheck;
  simcheck.Attach(&bed);
  RoverServerNode* backup = bed.AddBackup("backup", LinkProfile::Ethernet10());
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("journal", "lww", kJournalCode, "")).ok());
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::WaveLan2(),
                                          nullptr, FailoverClientOptions());
  bed.AddLink("mobile", "backup", LinkProfile::WaveLan2());
  bed.server()->SetFailStopFailoverHandler([&] {
    backup->Promote();
    client->qrpc()->TriggerFailover();
  });

  // The device dies before the operation's journal flush can complete.
  bed.loop()->ScheduleAt(TimePoint::Epoch() + Duration::Millis(200), [&] {
    bed.server()->stable_store()->wal()->device()->FailSyncPermanently();
  });
  Promise<InvokeResult> result;
  bed.loop()->ScheduleAt(TimePoint::Epoch() + Duration::Millis(500), [&] {
    InvokeOptions io;
    io.force_site = ExecutionSite::kServer;
    result = client->access()->Invoke("journal", "add", {"tok0"}, io);
  });
  bed.Run();

  EXPECT_TRUE(bed.server()->dead());
  EXPECT_TRUE(client->qrpc()->failover_engaged());
  ASSERT_TRUE(result.ready());
  EXPECT_TRUE(result.value().status.ok());
  // Whether the backup replays the shipped transaction or re-executes a
  // never-shipped one depends on how far the flush got; either way the
  // token lands exactly once.
  ASSERT_TRUE(backup->store()->Get("journal").ok());
  EXPECT_EQ(backup->store()->Get("journal")->data, "tok0");
  simcheck.CheckQuiesced();
  EXPECT_TRUE(simcheck.ok()) << simcheck.Report() << simcheck.TraceTail(150);
}

// A backup that stops acking must not wedge the primary: past the sync
// timeout the sender degrades to asynchronous shipping, releases gated
// responses, and heals once the backup catches up.
TEST(FailoverTest, SenderDegradesToAsyncWhenBackupStopsAcking) {
  Testbed bed;
  check::SimCheck simcheck;
  simcheck.Attach(&bed);
  RoverServerNode* backup = bed.AddServer("backup");
  // The replication link is up just long enough for the initial resync,
  // then dead until 300s.
  std::vector<IntervalConnectivity::Interval> repl_up = {
      {TimePoint::Epoch(), TimePoint::Epoch() + Duration::Millis(500)},
      {TimePoint::Epoch() + Duration::Seconds(300),
       TimePoint::FromMicros(INT64_MAX)}};
  bed.AddLink("server", "backup", LinkProfile::Ethernet10(),
              std::make_unique<IntervalConnectivity>(repl_up));
  bed.server()->EnableReplicationPrimary("backup", Duration::Seconds(1));
  backup->EnableReplicationBackup("server");
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("journal", "lww", kJournalCode, "")).ok());
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::WaveLan2());

  Promise<InvokeResult> result;
  bed.loop()->ScheduleAt(TimePoint::Epoch() + Duration::Seconds(1), [&] {
    InvokeOptions io;
    io.force_site = ExecutionSite::kServer;
    result = client->access()->Invoke("journal", "add", {"tok0"}, io);
  });

  // The transaction ships into the dead link; the release gate times out
  // after 1s and the response goes out anyway.
  bed.loop()->RunUntil(TimePoint::Epoch() + Duration::Seconds(5));
  ASSERT_TRUE(result.ready());
  EXPECT_TRUE(result.value().status.ok());
  EXPECT_TRUE(bed.server()->replication_sender()->degraded());
  EXPECT_GE(Count(bed.server()->metrics(), "replication_sender.sync_degrades"), 1u);

  // The link returns at 300s: the backlog drains, the backup acks, and the
  // sender heals back to synchronous shipping.
  bed.Run();
  EXPECT_FALSE(bed.server()->replication_sender()->degraded());
  EXPECT_EQ(bed.server()->replication_sender()->acked_watermark(),
            bed.server()->replication_sender()->last_shipped());
  EXPECT_EQ(backup->replication_receiver()->last_applied(),
            bed.server()->replication_sender()->last_shipped());
  simcheck.CheckQuiesced();
  EXPECT_TRUE(simcheck.ok()) << simcheck.Report() << simcheck.TraceTail(150);
}

// The backup's receiver sends its bootstrap resync request from its
// constructor. That request counts in the backup's registry like any later
// one, and both ends of the channel agree on it.
TEST(FailoverTest, BootstrapResyncCountedOnBothEnds) {
  Testbed bed;
  RoverServerNode* backup = bed.AddBackup("backup", LinkProfile::Ethernet10());
  bed.RunFor(Duration::Seconds(1));
  EXPECT_EQ(Count(backup->metrics(), "replication_receiver.resyncs_requested"), 1u);
  EXPECT_EQ(Count(backup->metrics(), "replication_receiver.snapshots_applied"), 1u);
  EXPECT_EQ(Count(bed.server()->metrics(), "replication_sender.resyncs_served"), 1u);
}

// --- Part 2: seeded failover chaos -----------------------------------------

// Prints the failing seed in a grep-friendly form even when an ASSERT
// returns out of the test body early.
struct ReproPrinter {
  uint64_t seed;
  ~ReproPrinter() {
    if (::testing::Test::HasFailure()) {
      std::fprintf(stderr, "FAILOVER_REPRO seed=%llu\n",
                   static_cast<unsigned long long>(seed));
    }
  }
};

class FailoverChaosTest : public ::testing::TestWithParam<uint64_t> {};

// One flapping, duplicating, reordering client link; a disk-like WAL with
// real crash windows; and a primary that is killed for good at a seeded-
// random instant -- mid-WAL-flush, mid-coalesce, mid-anything -- with the
// backup promoted one detection delay later. Whatever the seed:
//   1. every journal token appears at most once on the surviving server
//      (at-most-once across replication, failover re-dispatch, and resends);
//   2. only issued tokens appear;
//   3. a call whose result resolved OK has its token present on the backup
//      (semi-sync replication: no acknowledged work lost to the failover);
//   4. the client's stable log and pending set drain to empty;
//   5. a fresh uncached import converges the client to the backup's state;
//   6. SimCheck's cross-layer audit (fencing, replicated-set coverage,
//      promise hygiene, conservation) holds throughout.
TEST_P(FailoverChaosTest, AckedWorkSurvivesPrimaryDeath) {
  ReproPrinter repro{GetParam()};
  Testbed::Options topts;
  topts.server.stable_store.wal_costs = {Duration::Millis(5), 2e6,
                                         /*group_commit=*/true};
  topts.server.stable_store.compact_after_records = 8;
  topts.server.rover.invalidation_ttl = Duration::Seconds(30);
  Testbed bed(topts);
  bed.loop()->set_event_limit(20'000'000);
  check::SimCheck simcheck;
  simcheck.Attach(&bed);
  RoverServerNode* backup = bed.AddBackup("backup", LinkProfile::Ethernet10());
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("journal", "lww", kJournalCode, "")).ok());

  FaultPlan plan(bed.loop(), GetParam());
  LinkProfile wave = LinkProfile::WaveLan2();
  wave.duplicate_prob = 0.05;
  wave.reorder_prob = 0.05;
  RoverClientNode* client = bed.AddClient(
      "mobile", wave,
      plan.FlappyConnectivity(Duration::Seconds(8), Duration::Seconds(4),
                              Duration::Seconds(60)),
      FailoverClientOptions());
  bed.AddLink("mobile", "backup", wave);

  constexpr int kTokens = 12;
  std::vector<Promise<InvokeResult>> results(kTokens);
  for (int i = 0; i < kTokens; ++i) {
    bed.loop()->ScheduleAt(
        TimePoint::Epoch() + Duration::Seconds(1 + 3 * i), [&results, client, i] {
          InvokeOptions io;
          io.force_site = ExecutionSite::kServer;
          results[i] = client->access()->Invoke("journal", "add",
                                                {"tok" + std::to_string(i)}, io);
        });
  }

  // Kill anywhere in [2s, 42s): past 2s the initial resync and the journal
  // object's replicated create are safely on the backup, and the window
  // still spans the whole workload.
  FailoverOptions fopts;
  fopts.at = TimePoint::Epoch() + Duration::Seconds(2) +
             Duration::Micros(static_cast<int64_t>(plan.rng()->NextBelow(40'000'000)));
  plan.ScheduleFailover(bed.server(), backup, {client}, fopts);
  // After the link is permanently up (60s), one last restart re-sends every
  // durable unanswered request -- now to the backup -- so the run drains.
  plan.CrashClientAt(client, TimePoint::Epoch() + Duration::Seconds(61));

  bed.Run();

  EXPECT_EQ(plan.failovers_executed(), 1u);
  EXPECT_TRUE(bed.server()->dead());
  EXPECT_TRUE(client->qrpc()->failover_engaged());

  ASSERT_TRUE(backup->store()->Get("journal").ok());
  const std::string data = backup->store()->Get("journal")->data;
  auto tokens = TclListSplit(data);
  ASSERT_TRUE(tokens.ok());
  std::set<std::string> unique(tokens->begin(), tokens->end());
  EXPECT_EQ(unique.size(), tokens->size())
      << "an add executed twice: [" << data << "]";
  std::set<std::string> issued;
  for (int i = 0; i < kTokens; ++i) {
    issued.insert("tok" + std::to_string(i));
  }
  for (const std::string& tok : *tokens) {
    EXPECT_EQ(issued.count(tok), 1u) << "unknown token " << tok;
  }
  for (int i = 0; i < kTokens; ++i) {
    if (results[i].ready() && results[i].value().status.ok()) {
      EXPECT_EQ(unique.count("tok" + std::to_string(i)), 1u)
          << "acknowledged tok" << i << " lost across failover: [" << data << "]";
    }
  }
  EXPECT_EQ(client->qrpc()->LogDepth(), 0u);
  EXPECT_EQ(client->qrpc()->PendingCount(), 0u);

  ImportOptions iopts;
  iopts.allow_cached = false;
  auto converge = client->access()->Import("journal", iopts);
  ASSERT_TRUE(converge.Wait(bed.loop()));
  ASSERT_TRUE(converge.value().status.ok());
  EXPECT_EQ(*client->access()->ReadCommittedData("journal"), data);

  // Wait() stops the loop the instant the promise resolves; a duplicated or
  // retransmitted response frame can still be mid-flight. Drain before the
  // quiescence check.
  bed.Run();

  simcheck.CheckQuiesced();
  EXPECT_TRUE(simcheck.ok()) << simcheck.Report() << simcheck.TraceTail(150);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FailoverChaosTest,
                         ::testing::ValuesIn(check::SeedsFromEnv("ROVER_FAILOVER_SEEDS", 24)));

}  // namespace
}  // namespace rover

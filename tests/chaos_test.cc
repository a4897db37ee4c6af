// Crash-recovery and fault-injection tests.
//
// Part 1 exercises ServerStableStore directly: atomic transaction framing,
// torn-write semantics, snapshot compaction, epoch bumps.
// Part 2 runs deterministic crash scenarios on a full Testbed: duplicate-
// cache replay after a server crash, torn WAL writes rolling back atomically,
// torn client log records losing only uncommitted calls.
// Part 3 covers the subscription lifecycle across restarts: re-subscribe on
// epoch bump, unsubscribe on eviction, GC of unreachable subscribers.
// Part 4 is the chaos harness: a seeded FaultPlan crashes both ends at
// random times (sometimes tearing the record under the in-flight device
// write) over a flapping, duplicating, reordering link, and the same
// invariants must hold for every seed.

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/check/simcheck.h"
#include "src/core/fault_plan.h"
#include "src/core/toolkit.h"
#include "src/store/server_store.h"
#include "src/tclite/value.h"
#include "tests/test_metrics.h"

namespace rover {
namespace {

constexpr char kCounterCode[] = R"(
proc get {} { global state; return $state }
proc add {n} { global state; set state [expr {$state + $n}]; return $state }
)";

// Appends its argument to a list-valued state: every successful execution
// leaves exactly one copy of the token behind, which is what the at-most-once
// invariants count.
constexpr char kJournalCode[] = R"(
proc get {} { global state; return $state }
proc add {t} { global state; lappend state $t; return $state }
)";

// Runs the loop in small increments until `pred` holds (or the deadline
// passes), leaving now() just past the moment the predicate turned true --
// the way a test "catches" a crash window like an in-flight device write.
template <typename Pred>
bool StepUntil(EventLoop* loop, TimePoint deadline, Pred pred) {
  TimePoint t = loop->now();
  while (!pred() && t < deadline) {
    t = t + Duration::Millis(1);
    loop->RunUntil(t);
  }
  return pred();
}

ServerTransaction MakeTxn(const std::string& name, const std::string& data,
                          uint64_t version) {
  ServerTransaction txn;
  ReplayOp op;
  op.committed = MakeRdo(name, "lww", kCounterCode, data);
  op.committed.version = version;
  txn.ops.push_back(std::move(op));
  return txn;
}

// Rebuilds an object store the way server recovery does: adopt the snapshot
// image, then replay the surviving WAL transactions in order.
ObjectStore Replay(const ObjectImage& image, const std::vector<ServerTransaction>& wal,
                   size_t history_limit) {
  ObjectStore store(history_limit);
  store.Adopt(image);
  for (const ServerTransaction& txn : wal) {
    for (const ReplayOp& op : txn.ops) {
      if (op.is_remove) {
        (void)store.Remove(op.name);
      } else {
        store.RestoreCommit(op.committed);
      }
    }
  }
  return store;
}

// --- Part 1: ServerStableStore -------------------------------------------

TEST(ServerStoreTest, TransactionRoundTrip) {
  ServerTransaction txn = MakeTxn("mail/inbox", "7", 3);
  ReplayOp remove;
  remove.is_remove = true;
  remove.name = "mail/outbox";
  txn.ops.push_back(remove);
  txn.has_response = true;
  txn.client = "mobile";
  txn.rpc_id = 42;
  txn.response = BytesFromString("cached-response");

  auto decoded = ServerTransaction::Decode(txn.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  ASSERT_EQ(decoded->ops.size(), 2u);
  EXPECT_FALSE(decoded->ops[0].is_remove);
  EXPECT_EQ(decoded->ops[0].committed.name, "mail/inbox");
  EXPECT_EQ(decoded->ops[0].committed.data, "7");
  EXPECT_EQ(decoded->ops[0].committed.version, 3u);
  EXPECT_TRUE(decoded->ops[1].is_remove);
  EXPECT_EQ(decoded->ops[1].name, "mail/outbox");
  ASSERT_TRUE(decoded->has_response);
  EXPECT_EQ(decoded->client, "mobile");
  EXPECT_EQ(decoded->rpc_id, 42u);
  EXPECT_EQ(decoded->response, BytesFromString("cached-response"));

  EXPECT_FALSE(ServerTransaction::Decode(BytesFromString("garbage")).ok());
}

TEST(ServerStoreTest, CrashDropsUnflushedTransactions) {
  EventLoop loop;
  ServerStableStore store(&loop);
  store.LogTransaction(MakeTxn("a", "1", 1));  // appended, never flushed

  store.SimulateCrash(false);
  RecoveredServerState rec = store.Recover();
  EXPECT_EQ(rec.wal.size(), 0u);
  EXPECT_EQ(rec.records_dropped, 0u);  // volatile loss, not a torn write
  EXPECT_EQ(rec.epoch, 2u);
}

TEST(ServerStoreTest, TornRecordUnderInFlightWriteDroppedOnRecovery) {
  EventLoop loop;
  ServerStoreOptions opts;
  opts.wal_costs = {Duration::Millis(10), 2e6, /*group_commit=*/false};
  ServerStableStore store(&loop, opts);

  store.LogTransaction(MakeTxn("a", "1", 1));
  store.Flush(nullptr);
  loop.Run();  // first record durable
  store.LogTransaction(MakeTxn("b", "2", 1));
  store.Flush(nullptr);  // device write now in flight
  ASSERT_TRUE(store.wal()->WriteInFlight());

  store.SimulateCrash(/*tear_last_record=*/true);
  RecoveredServerState rec = store.Recover();
  EXPECT_EQ(rec.records_dropped, 1u);
  ASSERT_EQ(rec.wal.size(), 1u);
  EXPECT_EQ(rec.wal[0].ops[0].committed.name, "a");
  EXPECT_EQ(rec.epoch, 2u);
}

TEST(ServerStoreTest, TearWithoutInFlightWriteCannotCorruptDurableRecords) {
  EventLoop loop;
  ServerStoreOptions opts;
  opts.wal_costs = {Duration::Millis(10), 2e6, /*group_commit=*/false};
  ServerStableStore store(&loop, opts);

  store.LogTransaction(MakeTxn("a", "1", 1));
  store.Flush(nullptr);
  loop.Run();
  ASSERT_FALSE(store.wal()->WriteInFlight());

  // A power cut can only tear the record under an in-flight device write; a
  // record whose write completed (and was possibly acknowledged) survives.
  store.SimulateCrash(/*tear_last_record=*/true);
  RecoveredServerState rec = store.Recover();
  EXPECT_EQ(rec.records_dropped, 0u);
  ASSERT_EQ(rec.wal.size(), 1u);
  EXPECT_EQ(rec.wal[0].ops[0].committed.name, "a");
}

TEST(ServerStoreTest, SnapshotCompactionTruncatesWalAndSurvivesRecovery) {
  EventLoop loop;
  ServerStableStore store(&loop);
  ObjectStore objects;
  for (int i = 0; i < 3; ++i) {
    const std::string name = "obj" + std::to_string(i);
    ASSERT_TRUE(objects.Create(MakeRdo(name, "lww", kCounterCode, "x")).ok());
    store.LogTransaction(MakeTxn(name, "x", 1));
  }
  ASSERT_TRUE(objects.Put(MakeRdo("obj0", "lww", kCounterCode, "y")).ok());
  store.Flush(nullptr);
  loop.Run();

  const Bytes image = objects.Serialize();
  CachedResponseEntry entry;
  entry.client = "mobile";
  entry.rpc_id = 7;
  entry.response = BytesFromString("r");
  store.WriteSnapshot(objects.Snapshot(), {entry});
  loop.Run();
  EXPECT_EQ(store.WalRecordCount(), 0u);
  EXPECT_EQ(store.stats().snapshots_written, 1u);

  store.LogTransaction(MakeTxn("post-snapshot", "y", 1));
  store.Flush(nullptr);
  loop.Run();

  store.SimulateCrash(false);
  RecoveredServerState rec = store.Recover();
  EXPECT_EQ(ObjectStore::EncodeImage(rec.object_image), image);
  ASSERT_EQ(rec.snapshot_responses.size(), 1u);
  EXPECT_EQ(rec.snapshot_responses[0].rpc_id, 7u);
  ASSERT_EQ(rec.wal.size(), 1u);
  EXPECT_EQ(rec.wal[0].ops[0].committed.name, "post-snapshot");
}

TEST(ServerStoreTest, CrashMidSnapshotKeepsPreviousImageAndWal) {
  EventLoop loop;
  ServerStoreOptions opts;
  opts.wal_costs = {Duration::Millis(20), 2e6, /*group_commit=*/true};
  ServerStableStore store(&loop, opts);
  store.LogTransaction(MakeTxn("a", "1", 1));
  store.LogTransaction(MakeTxn("b", "2", 1));
  store.Flush(nullptr);
  loop.Run();

  ObjectStore objects;
  ASSERT_TRUE(objects.Create(MakeRdo("a", "lww", kCounterCode, "1")).ok());
  store.WriteSnapshot(objects.Snapshot(), {});
  loop.RunUntil(loop.now() + Duration::Millis(5));  // write still in flight
  store.SimulateCrash(false);
  loop.Run();  // the stale completion event must abandon its swap
  EXPECT_EQ(store.stats().snapshots_written, 0u);

  RecoveredServerState rec = store.Recover();
  EXPECT_TRUE(rec.object_image.objects.empty());
  EXPECT_EQ(rec.wal.size(), 2u);
}

// A snapshot shares its versions and response buffers with the live server,
// so nothing the server does after WriteSnapshot may reach into it. A crash
// before the snapshot write completes recovers the previous (empty) image
// plus the whole WAL; a crash after it recovers exactly what Serialize()
// returned at snapshot time, plus the WAL written since. Either way, replay
// lands on the live state.
TEST(ServerStoreTest, SnapshotIsIsolatedFromLaterMutations) {
  constexpr size_t kHistory = 2;
  for (const bool snapshot_completes : {false, true}) {
    SCOPED_TRACE(snapshot_completes ? "crash after snapshot" : "crash mid-snapshot");
    Testbed bed;  // for a real duplicate-response cache
    QrpcServer* dup_cache = bed.server()->qrpc();
    EventLoop* loop = bed.loop();
    ServerStoreOptions opts;
    opts.wal_costs = {Duration::Millis(20), 2e6, /*group_commit=*/true};
    ServerStableStore stable(loop, opts);
    ObjectStore live(kHistory);
    live.SetJournalHooks(
        [&](const RdoDescriptor& committed) {
          ServerTransaction txn;
          txn.ops.push_back(ReplayOp{false, committed, ""});
          stable.LogTransaction(txn);
        },
        [&](const std::string& name) {
          ServerTransaction txn;
          txn.ops.push_back(ReplayOp{true, RdoDescriptor{}, name});
          stable.LogTransaction(txn);
        });
    auto edit = [&](const std::string& name, const std::string& data) {
      ASSERT_TRUE(live.Put(MakeRdo(name, "lww", kCounterCode, data)).ok());
    };
    // "big" makes the snapshot write (~70 ms) outlast a WAL flush (~20 ms).
    edit("big", std::string(100 * 1024, 'b'));
    for (const char* name : {"a", "b", "c"}) {
      edit(name, "1");
    }
    edit("a", "2");
    edit("a", "3");  // "a" now holds a full history
    dup_cache->RestoreCachedResponse("mobile", 1, BytesFromString("r1"));
    dup_cache->RestoreCachedResponse("mobile", 2, BytesFromString("r2"));
    stable.Flush(nullptr);
    loop->RunUntil(loop->now() + Duration::Seconds(1));

    const Bytes image_at_snapshot = live.Serialize();
    stable.WriteSnapshot(live.Snapshot(), dup_cache->CachedResponses());
    // After the snapshot began: a new version, a history overflow, a
    // removal, a creation, a damaged and a new duplicate-cache entry.
    edit("b", "2");
    edit("a", "4");
    ASSERT_TRUE(live.Remove("c").ok());
    edit("d", "1");
    ASSERT_TRUE(dup_cache->CorruptCachedResponseForTest("mobile", 1));
    dup_cache->RestoreCachedResponse("mobile", 3, BytesFromString("r3"));
    stable.Flush(nullptr);
    loop->RunUntil(loop->now() + (snapshot_completes ? Duration::Seconds(1)
                                                     : Duration::Millis(40)));
    ASSERT_EQ(stable.stats().snapshots_written, snapshot_completes ? 1u : 0u);
    stable.SimulateCrash(false);
    loop->RunUntil(loop->now() + Duration::Seconds(1));  // stale completion must not land

    RecoveredServerState rec = stable.Recover();
    if (snapshot_completes) {
      EXPECT_EQ(ObjectStore::EncodeImage(rec.object_image), image_at_snapshot);
      ASSERT_EQ(rec.snapshot_responses.size(), 2u);
      EXPECT_EQ(rec.snapshot_responses[0].response, BytesFromString("r1"));
      EXPECT_EQ(rec.snapshot_responses[1].response, BytesFromString("r2"));
      EXPECT_EQ(rec.wal.size(), 4u);  // only what was logged after the snapshot
      ObjectStore expected(kHistory);
      ASSERT_TRUE(expected.Load(image_at_snapshot).ok());
      EXPECT_EQ(Replay(expected.Snapshot(), rec.wal, kHistory).Serialize(), live.Serialize());
    } else {
      EXPECT_TRUE(rec.object_image.objects.empty());
      EXPECT_TRUE(rec.snapshot_responses.empty());
      EXPECT_EQ(rec.wal.size(), 10u);
    }
    EXPECT_EQ(Replay(rec.object_image, rec.wal, kHistory).Serialize(), live.Serialize());
  }
}

TEST(ServerStoreTest, EpochBumpsOnEveryRecovery) {
  EventLoop loop;
  ServerStableStore store(&loop);
  EXPECT_EQ(store.epoch(), 1u);
  store.SimulateCrash(false);
  EXPECT_EQ(store.Recover().epoch, 2u);
  store.SimulateCrash(false);
  EXPECT_EQ(store.Recover().epoch, 3u);
  EXPECT_EQ(store.stats().recoveries, 2u);
}

TEST(ServerStoreTest, NeedsCompactionTracksThresholdAndProgress) {
  EventLoop loop;
  ServerStoreOptions opts;
  opts.compact_after_records = 2;
  ServerStableStore store(&loop, opts);
  store.LogTransaction(MakeTxn("a", "1", 1));
  EXPECT_FALSE(store.NeedsCompaction());
  store.LogTransaction(MakeTxn("b", "2", 1));
  store.Flush(nullptr);
  loop.Run();
  EXPECT_TRUE(store.NeedsCompaction());
  store.WriteSnapshot(ObjectImage{}, {});
  EXPECT_FALSE(store.NeedsCompaction());  // one compaction at a time
  loop.Run();
  EXPECT_FALSE(store.NeedsCompaction());  // WAL truncated
}

// --- Part 2: deterministic crash scenarios --------------------------------

// Server executes a mutation and journals mutation + response atomically,
// but crashes before the (disconnection-queued) response can leave. The
// client's crash-recovery resend must be answered from the recovered
// duplicate cache without re-executing the mutation.
TEST(CrashRecoveryTest, ServerCrashAfterDurableResponseRepliesFromDupCache) {
  Testbed::Options topts;
  // Push handler execution past the link-down edge so the response is
  // queued behind a dead link (instead of delivered) when the server dies.
  topts.server.qrpc.dispatch_cost = Duration::Seconds(5);
  Testbed bed(topts);

  check::SimCheck simcheck;
  simcheck.Attach(&bed);
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("counter", "lww", kCounterCode, "0")).ok());

  std::vector<IntervalConnectivity::Interval> up = {
      {TimePoint::Epoch(), TimePoint::Epoch() + Duration::Seconds(30)},
      {TimePoint::Epoch() + Duration::Seconds(60),
       TimePoint::Epoch() + Duration::Seconds(100000)}};
  RoverClientNode* client = bed.AddClient(
      "mobile", LinkProfile::Cslip144(),
      std::make_unique<IntervalConnectivity>(up));

  // Request arrives ~26.2s (link up); the handler runs at ~31.2s (link
  // down): the mutation commits and the transaction is journaled, but the
  // response parks in the server's scheduler queue.
  bed.loop()->ScheduleAt(TimePoint::Epoch() + Duration::Seconds(26), [&] {
    InvokeOptions io;
    io.force_site = ExecutionSite::kServer;
    client->access()->Invoke("counter", "add", {"5"}, io);
  });

  bed.loop()->RunUntil(TimePoint::Epoch() + Duration::Seconds(40));
  ASSERT_EQ(*bed.server()->store()->VersionOf("counter"), 2u);
  RecoveredServerState rec = bed.server()->SimulateCrashAndRestart(false);
  EXPECT_EQ(rec.records_dropped, 0u);
  EXPECT_EQ(rec.epoch, 2u);
  // Recovery replayed the journaled transaction: mutation and cached
  // response both survive even though the response never left.
  EXPECT_EQ(*bed.server()->store()->VersionOf("counter"), 2u);
  EXPECT_EQ(bed.server()->store()->Get("counter")->data, "5");

  // The client's request is durable and unanswered; a crash-restart is the
  // (only) resend trigger.
  bed.loop()->RunUntil(TimePoint::Epoch() + Duration::Seconds(45));
  EXPECT_EQ(client->SimulateCrashAndRestart(false), 1u);

  bed.Run();
  EXPECT_EQ(Count(bed.server()->metrics(), "qrpc_server.duplicates"), 1u);
  EXPECT_EQ(*bed.server()->store()->VersionOf("counter"), 2u);  // not 3
  EXPECT_EQ(bed.server()->store()->Get("counter")->data, "5");
  EXPECT_EQ(client->qrpc()->LogDepth(), 0u);
  EXPECT_EQ(client->qrpc()->PendingCount(), 0u);
  EXPECT_EQ(client->qrpc()->LastSeenEpoch("server"), 2u);

  simcheck.CheckQuiesced();
  EXPECT_TRUE(simcheck.ok()) << simcheck.Report() << simcheck.TraceTail(150);
}

// A power cut mid-journal-write tears the transaction: mutation AND cached
// response drop together, so the client's resend re-executes exactly once.
TEST(CrashRecoveryTest, TornWalWriteRollsBackAtomicallyAndResendReexecutes) {
  Testbed::Options topts;
  topts.server.stable_store.wal_costs = {Duration::Millis(20), 2e6,
                                         /*group_commit=*/true};
  Testbed bed(topts);
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("counter", "lww", kCounterCode, "0")).ok());
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::Cslip144());

  check::SimCheck simcheck;
  simcheck.Attach(&bed);

  bed.loop()->ScheduleAt(TimePoint::Epoch() + Duration::Seconds(1), [&] {
    InvokeOptions io;
    io.force_site = ExecutionSite::kServer;
    client->access()->Invoke("counter", "add", {"5"}, io);
  });

  // Catch the moment the handler has applied the mutation and its journal
  // write is on the device but incomplete -- the response is still gated.
  ASSERT_TRUE(StepUntil(bed.loop(), TimePoint::Epoch() + Duration::Seconds(5), [&] {
    return *bed.server()->store()->VersionOf("counter") == 2 &&
           bed.server()->stable_store()->wal()->WriteInFlight();
  }));

  RecoveredServerState rec = bed.server()->SimulateCrashAndRestart(
      /*tear_last_wal_record=*/true);
  EXPECT_EQ(rec.records_dropped, 1u);
  EXPECT_EQ(rec.epoch, 2u);
  // The torn transaction dropped atomically: the mutation rolled back.
  EXPECT_EQ(*bed.server()->store()->VersionOf("counter"), 1u);
  EXPECT_EQ(bed.server()->store()->Get("counter")->data, "0");

  EXPECT_EQ(client->SimulateCrashAndRestart(false), 1u);
  bed.Run();
  // No duplicate-cache entry survived, so the resend executed the handler.
  EXPECT_EQ(Count(bed.server()->metrics(), "qrpc_server.duplicates"), 0u);
  EXPECT_EQ(*bed.server()->store()->VersionOf("counter"), 2u);
  EXPECT_EQ(bed.server()->store()->Get("counter")->data, "5");
  EXPECT_EQ(client->qrpc()->LogDepth(), 0u);

  simcheck.CheckQuiesced();
  EXPECT_TRUE(simcheck.ok()) << simcheck.Report() << simcheck.TraceTail(150);
}

// A torn client log record loses only the not-yet-committed call: the
// request never reaches the server and is not resent after recovery.
TEST(CrashRecoveryTest, TornClientLogRecordLosesUncommittedCall) {
  Testbed bed;
  check::SimCheck simcheck;
  simcheck.Attach(&bed);
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("counter", "lww", kCounterCode, "0")).ok());
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::Cslip144());

  InvokeOptions io;
  io.force_site = ExecutionSite::kServer;
  client->access()->Invoke("counter", "add", {"5"}, io);
  // Marshalling (~30us) appends the log record and starts the 8ms flush;
  // at 2ms the device write is still in flight.
  bed.loop()->RunUntil(TimePoint::Epoch() + Duration::Millis(2));
  ASSERT_TRUE(client->log()->WriteInFlight());

  EXPECT_EQ(client->SimulateCrashAndRestart(/*tear_last_log_record=*/true), 0u);
  bed.Run();
  EXPECT_EQ(Count(bed.server()->metrics(), "qrpc_server.requests"), 0u);
  EXPECT_EQ(*bed.server()->store()->VersionOf("counter"), 1u);
  EXPECT_EQ(client->qrpc()->LogDepth(), 0u);

  simcheck.CheckQuiesced();
  EXPECT_TRUE(simcheck.ok()) << simcheck.Report() << simcheck.TraceTail(150);
}

// --- Part 3: subscriptions across restarts --------------------------------

TEST(SubscriptionTest, ServerRestartTriggersResubscribeAndStaleMark) {
  Testbed bed;
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("counter", "lww", kCounterCode, "0")).ok());
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("other", "lww", kCounterCode, "0")).ok());

  ClientNodeOptions copts;
  copts.access.subscribe_on_import = true;
  RoverClientNode* a = bed.AddClient("alice", LinkProfile::WaveLan2(), nullptr, copts);
  auto imp = a->access()->Import("counter");
  ASSERT_TRUE(imp.Wait(bed.loop()));
  bed.Run();
  ASSERT_EQ(bed.server()->rover()->SubscriberCount("counter"), 1u);

  // Subscriptions are volatile server state: the restart forgets them.
  bed.server()->SimulateCrashAndRestart(false);
  EXPECT_EQ(bed.server()->rover()->SubscriberCount("counter"), 0u);

  // Any response reveals the new epoch; the client re-subscribes its cached
  // imports and marks them stale.
  auto imp2 = a->access()->Import("other");
  ASSERT_TRUE(imp2.Wait(bed.loop()));
  bed.Run();
  EXPECT_EQ(Count(a->metrics(), "access_manager.server_restarts_observed"), 1u);
  EXPECT_EQ(bed.server()->rover()->SubscriberCount("counter"), 1u);
  auto imp3 = a->access()->Import("counter");
  ASSERT_TRUE(imp3.Wait(bed.loop()));
  EXPECT_FALSE(imp3.value().from_cache);  // stale entry forced a round trip

  // The renewed subscription is live: another client's commit reaches alice.
  RoverClientNode* b = bed.AddClient("bob", LinkProfile::Ethernet10());
  InvokeOptions io;
  io.force_site = ExecutionSite::kServer;
  auto inv = b->access()->Invoke("counter", "add", {"1"}, io);
  ASSERT_TRUE(inv.Wait(bed.loop()));
  bed.Run();
  EXPECT_GE(Count(a->metrics(), "access_manager.invalidations_received"), 1u);
}

TEST(SubscriptionTest, EvictionWithdrawsSubscription) {
  Testbed bed;
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("counter", "lww", kCounterCode, "0")).ok());
  ClientNodeOptions copts;
  copts.access.subscribe_on_import = true;
  RoverClientNode* a = bed.AddClient("alice", LinkProfile::WaveLan2(), nullptr, copts);
  auto imp = a->access()->Import("counter");
  ASSERT_TRUE(imp.Wait(bed.loop()));
  bed.Run();
  ASSERT_EQ(bed.server()->rover()->SubscriberCount("counter"), 1u);

  a->access()->Evict("counter");
  bed.Run();  // rover.unsubscribe round trip
  EXPECT_EQ(bed.server()->rover()->SubscriberCount("counter"), 0u);
  EXPECT_EQ(bed.server()->rover()->stats().unsubscribes, 1u);
}

TEST(SubscriptionTest, UnreachableSubscriberGarbageCollected) {
  Testbed::Options topts;
  topts.server.rover.invalidation_ttl = Duration::Seconds(5);
  topts.server.rover.subscriber_drop_after_failures = 2;
  Testbed bed(topts);
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("counter", "lww", kCounterCode, "0")).ok());

  ClientNodeOptions copts;
  copts.access.subscribe_on_import = true;
  std::vector<IntervalConnectivity::Interval> up = {
      {TimePoint::Epoch(), TimePoint::Epoch() + Duration::Seconds(10)}};
  RoverClientNode* a = bed.AddClient("alice", LinkProfile::WaveLan2(),
                                     std::make_unique<IntervalConnectivity>(up), copts);
  RoverClientNode* b = bed.AddClient("bob", LinkProfile::Ethernet10());

  auto imp = a->access()->Import("counter");
  ASSERT_TRUE(imp.Wait(bed.loop()));
  bed.loop()->RunUntil(TimePoint::Epoch() + Duration::Seconds(10));
  ASSERT_EQ(bed.server()->rover()->SubscriberCount("counter"), 1u);

  // Two commits while alice is unreachable; each invalidation expires after
  // its 5s TTL, and the second consecutive expiry drops her subscription.
  InvokeOptions io;
  io.force_site = ExecutionSite::kServer;
  auto i1 = b->access()->Invoke("counter", "add", {"1"}, io);
  ASSERT_TRUE(i1.Wait(bed.loop()));
  bed.loop()->RunUntil(TimePoint::Epoch() + Duration::Seconds(20));
  EXPECT_EQ(bed.server()->rover()->stats().invalidations_expired, 1u);
  ASSERT_EQ(bed.server()->rover()->SubscriberCount("counter"), 1u);

  auto i2 = b->access()->Invoke("counter", "add", {"1"}, io);
  ASSERT_TRUE(i2.Wait(bed.loop()));
  bed.loop()->RunUntil(TimePoint::Epoch() + Duration::Seconds(30));
  EXPECT_EQ(bed.server()->rover()->stats().invalidations_expired, 2u);
  EXPECT_EQ(bed.server()->rover()->stats().subscribers_dropped, 1u);
  EXPECT_EQ(bed.server()->rover()->SubscriberCount("counter"), 0u);
}

// --- Part 4: seeded chaos --------------------------------------------------

// One flapping, duplicating, reordering link; a disk-like WAL with real
// crash windows; aggressive compaction; random server/client crash-restarts
// (half of them tearing the in-flight record). Whatever the seed:
//   1. every journal token appears at most once (at-most-once execution
//      across dup frames, crash-resend races, and dup-cache replays);
//   2. only issued tokens appear;
//   3. a call whose result resolved OK has its token durably present
//      (acknowledged work survives every later crash);
//   4. the client's stable log and pending set drain to empty;
//   5. the server epoch advanced once per recovery;
//   6. a fresh uncached import converges the client to the server's state.
class ChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosTest, InvariantsHoldUnderRandomFaults) {
  Testbed::Options topts;
  topts.server.stable_store.wal_costs = {Duration::Millis(5), 2e6,
                                         /*group_commit=*/true};
  topts.server.stable_store.compact_after_records = 8;
  topts.server.rover.invalidation_ttl = Duration::Seconds(30);
  Testbed bed(topts);
  bed.loop()->set_event_limit(20'000'000);

  check::SimCheck simcheck;
  simcheck.Attach(&bed);
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("journal", "lww", kJournalCode, "")).ok());

  FaultPlan plan(bed.loop(), GetParam());
  LinkProfile wave = LinkProfile::WaveLan2();
  wave.duplicate_prob = 0.05;
  wave.reorder_prob = 0.05;
  ClientNodeOptions copts;
  copts.access.subscribe_on_import = true;
  RoverClientNode* client = bed.AddClient(
      "mobile", wave,
      plan.FlappyConnectivity(Duration::Seconds(8), Duration::Seconds(4),
                              Duration::Seconds(60)),
      copts);

  bed.loop()->ScheduleAt(TimePoint::Epoch() + Duration::Seconds(1), [&] {
    client->access()->Import("journal");
  });
  constexpr int kTokens = 12;
  std::vector<Promise<InvokeResult>> results(kTokens);
  for (int i = 0; i < kTokens; ++i) {
    bed.loop()->ScheduleAt(
        TimePoint::Epoch() + Duration::Seconds(2 + 3 * i), [&results, client, i] {
          InvokeOptions io;
          io.force_site = ExecutionSite::kServer;
          results[i] = client->access()->Invoke("journal", "add",
                                                {"tok" + std::to_string(i)}, io);
        });
  }

  RandomFaultOptions fopts;
  fopts.horizon = Duration::Seconds(45);
  fopts.server_crashes = 2;
  fopts.client_crashes = 1;
  fopts.tear_probability = 0.5;
  plan.ScheduleRandomFaults(bed.server(), {client}, fopts);
  // After every random fault and link flap (the link is permanently up from
  // 60s), one last restart resends every durable unanswered request, so the
  // run always quiesces with an empty log.
  plan.CrashClientAt(client, TimePoint::Epoch() + Duration::Seconds(61));

  bed.Run();

  const std::string server_data = bed.server()->store()->Get("journal")->data;
  auto tokens = TclListSplit(server_data);
  ASSERT_TRUE(tokens.ok());
  std::set<std::string> unique(tokens->begin(), tokens->end());
  EXPECT_EQ(unique.size(), tokens->size())
      << "an add executed twice: [" << server_data << "]";
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
          << "acknowledged tok" << i << " lost: [" << server_data << "]";
    }
  }
  EXPECT_EQ(client->qrpc()->LogDepth(), 0u);
  EXPECT_EQ(client->qrpc()->PendingCount(), 0u);
  EXPECT_EQ(plan.server_crashes_executed(), 2u);
  EXPECT_EQ(plan.client_crashes_executed(), 2u);  // 1 random + final sweep
  EXPECT_EQ(bed.server()->stable_store()->epoch(),
            1 + plan.server_crashes_executed());

  ImportOptions iopts;
  iopts.allow_cached = false;
  auto converge = client->access()->Import("journal", iopts);
  ASSERT_TRUE(converge.Wait(bed.loop()));
  ASSERT_TRUE(converge.value().status.ok());
  EXPECT_EQ(*client->access()->ReadCommittedData("journal"), server_data);
  EXPECT_EQ(client->qrpc()->LastSeenEpoch("server"),
            bed.server()->stable_store()->epoch());

  simcheck.CheckQuiesced();
  EXPECT_TRUE(simcheck.ok()) << simcheck.Report() << simcheck.TraceTail(150);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosTest,
                         ::testing::Range(uint64_t{1}, uint64_t{29}));

}  // namespace
}  // namespace rover

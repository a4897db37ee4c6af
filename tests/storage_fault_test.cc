// Storage fault-tolerance tests for the fault-injectable stable device.
//
// Part 1 exercises StableLog + StableDevice directly: bounded retry of
// transient write errors, terminal flush failure once the budget is
// exhausted, ENOSPC refusal and recovery, fail-stop on permanent sync
// failure, and the torn-tail / interior-corruption split (quarantine vs
// silent truncation) at recovery and scrub time.
// Part 2 runs the client-node policies on a Testbed: a terminally failed
// flush fails the call (never acks), a full device refuses admission until
// truncation frees space, a dead sync fail-stops the node, and a recovery
// quarantine marks cached imports stale.
// Part 3 covers the server WAL: ENOSPC degradation + forced-compaction
// reclaim, fail-stop on a terminally failed response-journal flush, and
// interior rot quarantined at recovery and scrub.
// Part 4 is seeded chaos: random disk faults layered over crash-restarts
// and link flaps, with SimCheck attached.
// Part 5 is the checker meta-test: the re-introduced ack-after-failed-flush
// bug must be caught by the fuzzer and shrunk to its disk-fault kernel.

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/check/fuzz.h"
#include "src/check/simcheck.h"
#include "src/core/fault_plan.h"
#include "src/core/toolkit.h"
#include "src/qrpc/stable_log.h"
#include "src/sim/connectivity.h"
#include "src/store/server_store.h"
#include "src/tclite/value.h"
#include "src/util/status.h"
#include "tests/test_metrics.h"

namespace rover {
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

// --- Part 1: StableLog + StableDevice --------------------------------------

TEST(StableDeviceTest, TransientFlushErrorsRetriedWithinBudget) {
  EventLoop loop;
  obs::Registry metrics;
  StableLog log(&loop, &metrics);
  log.device()->InjectTransientWriteErrors(2);
  const uint64_t id = log.Append(BytesFromString("record"));

  Status outcome = UnavailableError("callback never ran");
  log.Flush([&outcome](const Status& s) { outcome = s; });
  loop.Run();

  EXPECT_TRUE(outcome.ok()) << outcome.message();
  ASSERT_NE(log.FindRecord(id), nullptr);
  EXPECT_TRUE(log.FindRecord(id)->durable);
  EXPECT_EQ(Count(&metrics, "stable_log.flush_transient_errors"), 2u);
  EXPECT_EQ(Count(&metrics, "stable_log.flush_retries"), 2u);
  EXPECT_EQ(Count(&metrics, "stable_log.flush_failures"), 0u);
  EXPECT_EQ(log.device()->stats().transient_errors, 2u);
}

TEST(StableDeviceTest, FlushFailsTerminallyOnceRetryBudgetExhausted) {
  EventLoop loop;
  StableLogCostModel costs;
  ASSERT_EQ(costs.flush_max_retries, 4u);  // budget: 1 initial + 4 retries
  obs::Registry metrics;
  StableLog log(&loop, &metrics, costs);
  log.device()->InjectTransientWriteErrors(5);
  const uint64_t id = log.Append(BytesFromString("doomed"));

  Status outcome = Status::Ok();
  log.Flush([&outcome](const Status& s) { outcome = s; });
  loop.Run();

  EXPECT_EQ(outcome.code(), StatusCode::kUnavailable);
  ASSERT_NE(log.FindRecord(id), nullptr);
  EXPECT_FALSE(log.FindRecord(id)->durable);  // never acked durable
  EXPECT_EQ(Count(&metrics, "stable_log.flush_retries"), 4u);
  EXPECT_EQ(Count(&metrics, "stable_log.flush_failures"), 1u);

  // The device is healthy again (forced errors consumed): the next flush
  // makes the same record durable.
  Status retried = UnavailableError("callback never ran");
  log.Flush([&retried](const Status& s) { retried = s; });
  loop.Run();
  EXPECT_TRUE(retried.ok());
  EXPECT_TRUE(log.FindRecord(id)->durable);
}

TEST(StableDeviceTest, FullDeviceRefusesFlushUntilSpaceFrees) {
  EventLoop loop;
  obs::Registry metrics;
  StableLog log(&loop, &metrics);
  log.device()->SetCapacityBytes(16);
  log.Append(Bytes(64));
  EXPECT_FALSE(log.HasSpaceFor(1));

  Status outcome = Status::Ok();
  log.Flush([&outcome](const Status& s) { outcome = s; });
  loop.Run();
  EXPECT_EQ(outcome.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(Count(&metrics, "stable_log.flush_enospc"), 1u);

  log.device()->SetCapacityBytes(0);  // operator frees space
  Status retried = UnavailableError("callback never ran");
  log.Flush([&retried](const Status& s) { retried = s; });
  loop.Run();
  EXPECT_TRUE(retried.ok());
  EXPECT_TRUE(log.FullyDurable());
}

TEST(StableDeviceTest, PermanentSyncFailureIsFailStop) {
  EventLoop loop;
  obs::Registry metrics;
  StableLog log(&loop, &metrics);
  int fail_stops = 0;
  log.SetFailStopHandler([&fail_stops] { ++fail_stops; });
  log.device()->FailSyncPermanently();
  log.Append(BytesFromString("never-durable"));

  Status outcome = Status::Ok();
  log.Flush([&outcome](const Status& s) { outcome = s; });
  loop.Run();
  EXPECT_EQ(outcome.code(), StatusCode::kDataLoss);
  EXPECT_EQ(fail_stops, 1);
  EXPECT_TRUE(log.device()->sync_failed());
  EXPECT_EQ(Count(&metrics, "stable_log.flush_sync_failures"), 1u);

  // Operator swaps the device: flushes work again.
  log.device()->Repair();
  Status retried = UnavailableError("callback never ran");
  log.Flush([&retried](const Status& s) { retried = s; });
  loop.Run();
  EXPECT_TRUE(retried.ok());
}

TEST(StableDeviceTest, TornTailStillTruncatesSilently) {
  EventLoop loop;
  obs::Registry metrics;
  StableLog log(&loop, &metrics);
  log.Append(BytesFromString("first"));
  log.Append(BytesFromString("second"));
  log.Flush(nullptr);
  loop.Run();

  log.SimulateCrash(/*tear_last_record=*/true);
  const StableLog::RecoveryReport report = log.RecoverWithReport();
  EXPECT_EQ(report.valid, 1u);
  EXPECT_EQ(report.torn_tail_dropped, 1u);
  EXPECT_TRUE(report.quarantined.empty());
  EXPECT_EQ(Count(&metrics, "stable_log.torn_tail_records_dropped"), 1u);
  EXPECT_EQ(Count(&metrics, "stable_log.records_quarantined"), 0u);
}

// Regression for the copy bug the zero-copy refactor exposed: the WAL
// retains appended payloads by refcount, so simulated device corruption
// (bit rot, torn writes) mutating a record in place would silently damage
// the application's own in-RAM copy of the same bytes -- an in-flight
// message or a cached response. MutableData() is copy-on-write: the damage
// must land in a private detached copy.
TEST(StableDeviceTest, BitRotNeverDamagesSharedInRamPayload) {
  EventLoop loop;
  obs::Registry metrics;
  StableLog log(&loop, &metrics);
  const std::string text = "the application still holds this payload";
  Buffer payload(BytesFromString(text));
  Buffer app_copy = payload;  // the app's handle, e.g. an in-flight message
  const uint64_t id = log.Append(payload);
  log.Flush(nullptr);
  loop.Run();
  const StableLog::Record* rec = log.FindRecord(id);
  ASSERT_NE(rec, nullptr);
  ASSERT_TRUE(rec->data.SharesStorageWith(app_copy));  // zero-copy retention

  ASSERT_EQ(log.InjectBitRot(/*selector=*/0), id);
  // The record is damaged (CRC catches it at read time)...
  EXPECT_EQ(log.RecordPayload(*log.FindRecord(id)).status().code(),
            StatusCode::kDataLoss);
  // ...but both application handles still read the original bytes.
  EXPECT_EQ(app_copy.view(), text);
  EXPECT_EQ(payload.view(), text);
}

TEST(StableDeviceTest, InteriorCorruptionQuarantinedOnRecovery) {
  EventLoop loop;
  obs::Registry metrics;
  StableLog log(&loop, &metrics);
  log.Append(BytesFromString("aaaa"));
  log.Append(BytesFromString("bbbb"));
  log.Append(BytesFromString("cccc"));
  log.Flush(nullptr);
  loop.Run();

  const uint64_t rotted = log.InjectBitRot(/*selector=*/1);
  ASSERT_NE(rotted, 0u);
  log.SimulateCrash(/*tear_last_record=*/false);
  const StableLog::RecoveryReport report = log.RecoverWithReport();
  EXPECT_EQ(report.valid, 2u);
  EXPECT_EQ(report.torn_tail_dropped, 0u);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0], rotted);
  EXPECT_EQ(log.FindRecord(rotted), nullptr);
  EXPECT_EQ(Count(&metrics, "stable_log.records_quarantined"), 1u);
}

TEST(StableDeviceTest, ScrubQuarantinesRotBeforeItSurfacesAtRecovery) {
  EventLoop loop;
  obs::Registry metrics;
  StableLog log(&loop, &metrics);
  log.Append(BytesFromString("aaaa"));
  log.Append(BytesFromString("bbbb"));
  log.Append(BytesFromString("cccc"));
  log.Flush(nullptr);
  loop.Run();

  const size_t used_before = log.device()->used_bytes();
  const uint64_t rotted = log.InjectBitRot(/*selector=*/0);
  ASSERT_NE(rotted, 0u);
  const StableLog::ScrubReport report = log.Scrub();
  EXPECT_EQ(report.scanned, 3u);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0], rotted);
  EXPECT_EQ(log.RecordCount(), 2u);
  // Quarantine returns the record's bytes to the device's free pool.
  EXPECT_LT(log.device()->used_bytes(), used_before);
  // A second scrub finds nothing new.
  EXPECT_TRUE(log.Scrub().quarantined.empty());
}

// --- Part 2: client-node policies ------------------------------------------

TEST(StorageFaultClientTest, TerminalFlushFailureFailsCallWithoutAck) {
  Testbed bed;
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("journal", "lww", kJournalCode, "")).ok());
  RoverClientNode* m = bed.AddClient("mobile", LinkProfile::WaveLan2());

  Promise<InvokeResult> doomed;
  bed.loop()->ScheduleAt(At(1), [&] {
    m->log()->device()->InjectTransientWriteErrors(5);
    InvokeOptions io;
    io.force_site = ExecutionSite::kServer;
    doomed = m->access()->Invoke("journal", "add", {"tok-doomed"}, io);
  });
  bed.Run();

  ASSERT_TRUE(doomed.ready());
  EXPECT_EQ(doomed.value().status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(m->qrpc()->LogDepth(), 0u);      // failed record withdrawn
  EXPECT_EQ(m->qrpc()->PendingCount(), 0u);
  EXPECT_EQ(Count(m->metrics(), "qrpc_client.storage_flush_failures"), 1u);
  EXPECT_EQ(m->storage_fail_stops(), 0u);    // transient exhaustion != fail-stop
  // The call never executed: its token must not be on the server.
  EXPECT_EQ(bed.server()->store()->Get("journal")->data, "");

  // The device is healthy again; the next call goes through.
  InvokeOptions io;
  io.force_site = ExecutionSite::kServer;
  auto ok = m->access()->Invoke("journal", "add", {"tok-ok"}, io);
  ASSERT_TRUE(ok.Wait(bed.loop()));
  EXPECT_TRUE(ok.value().status.ok());
  EXPECT_EQ(bed.server()->store()->Get("journal")->data, "tok-ok");
}

TEST(StorageFaultClientTest, FullDeviceRefusesAdmissionUntilTruncationFrees) {
  Testbed bed;
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("journal", "lww", kJournalCode, "")).ok());
  ClientNodeOptions copts;
  copts.disk_faults.capacity_bytes = 300;
  RoverClientNode* m = bed.AddClient("mobile", LinkProfile::WaveLan2(),
                                     /*schedule=*/nullptr, copts);

  constexpr int kCalls = 6;
  std::vector<Promise<InvokeResult>> results(kCalls);
  bool degraded_while_full = false;
  bed.loop()->ScheduleAt(At(1), [&] {
    InvokeOptions io;
    io.force_site = ExecutionSite::kServer;
    for (int i = 0; i < kCalls; ++i) {
      // Oversized tokens: each logged record exceeds a third of the device,
      // so the burst must trip the admission check.
      results[i] = m->access()->Invoke(
          "journal", "add", {std::string(120, 'a' + i)}, io);
    }
    degraded_while_full = m->qrpc()->StorageDegraded();
  });
  bed.Run();

  int refused = 0;
  int succeeded = 0;
  for (auto& r : results) {
    ASSERT_TRUE(r.ready());
    if (r.value().status.ok()) {
      ++succeeded;
    } else if (r.value().status.code() == StatusCode::kResourceExhausted) {
      ++refused;
    }
  }
  EXPECT_GE(refused, 1);
  EXPECT_GE(succeeded, 1);
  EXPECT_TRUE(degraded_while_full);
  EXPECT_GE(Count(m->metrics(), "qrpc_client.storage_refused"), 1u);

  // Responses drained the log, truncation freed device space, and the
  // degraded mode cleared on its own: new durable calls are admitted again.
  EXPECT_FALSE(m->qrpc()->StorageDegraded());
  InvokeOptions io;
  io.force_site = ExecutionSite::kServer;
  auto after = m->access()->Invoke("journal", "add", {"post-recovery"}, io);
  ASSERT_TRUE(after.Wait(bed.loop()));
  EXPECT_TRUE(after.value().status.ok());
}

TEST(StorageFaultClientTest, SyncFailureFailStopsNodeAndRepairsOnRestart) {
  Testbed bed;
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("journal", "lww", kJournalCode, "")).ok());
  RoverClientNode* m = bed.AddClient("mobile", LinkProfile::WaveLan2());

  bed.loop()->ScheduleAt(At(1), [&] {
    m->log()->device()->FailSyncPermanently();
    InvokeOptions io;
    io.force_site = ExecutionSite::kServer;
    m->access()->Invoke("journal", "add", {"lost-to-dead-disk"}, io);
  });
  bed.Run();

  EXPECT_EQ(m->storage_fail_stops(), 1u);
  EXPECT_FALSE(m->log()->device()->sync_failed());  // replaced during reboot
  EXPECT_EQ(m->qrpc()->LogDepth(), 0u);

  // The replacement device backs durable calls again.
  InvokeOptions io;
  io.force_site = ExecutionSite::kServer;
  auto after = m->access()->Invoke("journal", "add", {"tok-after"}, io);
  ASSERT_TRUE(after.Wait(bed.loop()));
  EXPECT_TRUE(after.value().status.ok());
  EXPECT_EQ(bed.server()->store()->Get("journal")->data, "tok-after");
}

TEST(StorageFaultClientTest, RecoveryQuarantineMarksCachedImportsStale) {
  Testbed bed;
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("journal", "lww", kJournalCode, "")).ok());
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("doc", "lww", kCounterCode, "5")).ok());
  // Link up for the first 10s, down for 10s, then up for good: calls issued
  // in the gap stay durable-but-unanswered across the crash.
  auto schedule = std::make_unique<IntervalConnectivity>(
      std::vector<IntervalConnectivity::Interval>{{At(0), At(10)},
                                                  {At(20), At(10'000)}});
  RoverClientNode* m =
      bed.AddClient("mobile", LinkProfile::WaveLan2(), std::move(schedule));

  bed.loop()->ScheduleAt(At(1), [&] { m->access()->Import("doc"); });
  bed.loop()->ScheduleAt(At(12), [&] {
    InvokeOptions io;
    io.force_site = ExecutionSite::kServer;
    m->access()->Invoke("journal", "add", {"late-a"}, io);
    m->access()->Invoke("journal", "add", {"late-b"}, io);
  });
  uint64_t rotted = 0;
  bed.loop()->ScheduleAt(At(14), [&] { rotted = m->log()->InjectBitRot(3); });
  bed.loop()->ScheduleAt(At(15), [&] { m->SimulateCrashAndRestart(false); });
  bed.Run();

  ASSERT_NE(rotted, 0u);  // the interior record (late-a) was damaged
  EXPECT_EQ(Count(m->metrics(), "stable_log.records_quarantined"), 1u);
  // The quarantine conservatively invalidated every cached import.
  EXPECT_GE(Count(m->metrics(), "access_manager.storage_stale_marks"), 1u);
  // The surviving record was resent once the link returned; the quarantined
  // one is honestly lost (its call never acked OK to the application).
  const std::string journal = bed.server()->store()->Get("journal")->data;
  EXPECT_EQ(journal, "late-b");
  EXPECT_EQ(m->qrpc()->LogDepth(), 0u);

  ImportOptions iopts;
  iopts.allow_cached = false;
  auto converge = m->access()->Import("doc", iopts);
  ASSERT_TRUE(converge.Wait(bed.loop()));
  ASSERT_TRUE(converge.value().status.ok());
  EXPECT_EQ(*m->access()->ReadCommittedData("doc"), "5");
}

// --- Part 3: server WAL policies -------------------------------------------

TEST(StorageFaultServerTest, WalEnospcDegradesThenCompactionRecovers) {
  Testbed::Options topts;
  topts.server.stable_store.wal_costs = {Duration::Millis(2), 2e6,
                                         /*group_commit=*/true};
  // Small journal device, compaction only via the ENOSPC reclaim path.
  topts.server.stable_store.wal_disk_faults.capacity_bytes = 700;
  topts.server.stable_store.compact_after_records = 1000;
  Testbed bed(topts);
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("journal", "lww", kJournalCode, "")).ok());
  RoverClientNode* m = bed.AddClient("mobile", LinkProfile::WaveLan2());

  constexpr int kTokens = 8;
  std::vector<Promise<InvokeResult>> results(kTokens);
  for (int i = 0; i < kTokens; ++i) {
    bed.loop()->ScheduleAt(At(1 + 0.8 * i), [&results, m, i] {
      InvokeOptions io;
      io.force_site = ExecutionSite::kServer;
      results[i] = m->access()->Invoke("journal", "add",
                                       {"tok" + std::to_string(i)}, io);
    });
  }
  bed.Run();

  const RoverServerStats& stats = bed.server()->rover()->stats();
  EXPECT_GE(stats.wal_space_exhausted, 1u);
  EXPECT_GE(stats.wal_compactions_forced, 1u);
  EXPECT_GE(stats.wal_space_recoveries, 1u);
  EXPECT_FALSE(bed.server()->rover()->WalSpaceDegraded());
  EXPECT_EQ(bed.server()->storage_fail_stops(), 0u);

  // Every call eventually resolved OK (degradation pushed back, never lost),
  // and each token executed exactly once.
  for (int i = 0; i < kTokens; ++i) {
    ASSERT_TRUE(results[i].ready()) << "tok" << i;
    EXPECT_TRUE(results[i].value().status.ok())
        << "tok" << i << ": " << results[i].value().status.message();
  }
  auto tokens = TclListSplit(bed.server()->store()->Get("journal")->data);
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens->size(), static_cast<size_t>(kTokens));
  EXPECT_EQ(std::set<std::string>(tokens->begin(), tokens->end()).size(),
            tokens->size());
  EXPECT_EQ(m->qrpc()->LogDepth(), 0u);
}

TEST(StorageFaultServerTest, WalTerminalFlushFailureFailStopsServer) {
  Testbed bed;
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("journal", "lww", kJournalCode, "")).ok());
  RoverClientNode* m = bed.AddClient("mobile", LinkProfile::WaveLan2());
  const uint64_t epoch_before = bed.server()->stable_store()->epoch();

  bed.loop()->ScheduleAt(At(5), [&] {
    bed.server()->stable_store()->wal()->device()->InjectTransientWriteErrors(5);
    InvokeOptions io;
    io.force_site = ExecutionSite::kServer;
    m->access()->Invoke("journal", "add", {"tok-x"}, io);
  });
  // The journal flush fails terminally, the server fail-stops, and the
  // client's restart sweep resends the still-logged request against the
  // recovered incarnation.
  bed.loop()->ScheduleAt(At(10), [&] { m->SimulateCrashAndRestart(false); });
  bed.Run();

  EXPECT_EQ(bed.server()->storage_fail_stops(), 1u);
  EXPECT_EQ(bed.server()->stable_store()->epoch(), epoch_before + 1);
  // The re-execution is the only one that stuck: exactly one token copy.
  EXPECT_EQ(bed.server()->store()->Get("journal")->data, "tok-x");
  EXPECT_EQ(m->qrpc()->LogDepth(), 0u);
  EXPECT_EQ(m->qrpc()->PendingCount(), 0u);
}

TEST(StorageFaultServerTest, WalInteriorRotQuarantinedOnRecovery) {
  EventLoop loop;
  ServerStableStore store(&loop);
  for (int i = 0; i < 3; ++i) {
    ServerTransaction txn;
    ReplayOp op;
    op.committed = MakeRdo("obj" + std::to_string(i), "lww", kCounterCode,
                           std::to_string(i));
    op.committed.version = 1;
    txn.ops.push_back(std::move(op));
    store.LogTransaction(txn);
  }
  store.Flush(nullptr);
  loop.Run();

  ASSERT_NE(store.wal()->InjectBitRot(/*selector=*/2), 0u);
  store.SimulateCrash(false);
  RecoveredServerState rec = store.Recover();
  EXPECT_EQ(rec.interior_quarantined, 1u);
  EXPECT_EQ(rec.records_dropped, 0u);  // not a torn tail
  EXPECT_EQ(rec.wal.size(), 2u);       // the intact transactions replay
}

TEST(StorageFaultServerTest, ScrubResnapshotsAroundQuarantinedWalRecords) {
  Testbed bed;
  for (const char* name : {"a", "b", "c"}) {
    ASSERT_TRUE(bed.server()->rover()->CreateObject(
        MakeRdo(name, "lww", kCounterCode, name)).ok());
  }
  bed.Run();  // journal flushes settle

  ASSERT_NE(bed.server()->stable_store()->wal()->InjectBitRot(1), 0u);
  EXPECT_EQ(bed.server()->ScrubStorage(), 1u);
  bed.Run();  // forced snapshot covers the hole

  // After a crash, recovery comes from the scrub snapshot: nothing lost.
  bed.server()->SimulateCrashAndRestart(false);
  for (const char* name : {"a", "b", "c"}) {
    auto obj = bed.server()->store()->Get(name);
    ASSERT_TRUE(obj.ok()) << name;
    EXPECT_EQ(obj->data, name);
  }
}

// scrub_interval turns the recovery-time rot check into a background
// patrol: the timer finds the damaged WAL record between crashes, counts
// the run and the quarantine, and the forced snapshot covers the hole long
// before the next recovery would have tripped over it.
TEST(StorageFaultServerTest, PeriodicScrubTimerQuarantinesRotBetweenCrashes) {
  Testbed::Options topts;
  topts.server.scrub_interval = Duration::Seconds(5);
  Testbed bed(topts);
  for (const char* name : {"a", "b", "c"}) {
    ASSERT_TRUE(bed.server()->rover()->CreateObject(
        MakeRdo(name, "lww", kCounterCode, name)).ok());
  }
  bed.loop()->RunUntil(At(1));  // journal flushes settle
  ASSERT_NE(bed.server()->stable_store()->wal()->InjectBitRot(1), 0u);

  // The timer re-arms itself, so drive the loop by horizon rather than to
  // quiescence: three periods pass, the first one after the rot finds it.
  bed.loop()->RunUntil(At(16));
  EXPECT_GE(Count(bed.server()->metrics(), "storage_scrub.runs"), 3u);
  EXPECT_EQ(Count(bed.server()->metrics(), "storage_scrub.quarantined"),
            1u);

  bed.server()->SimulateCrashAndRestart(false);
  for (const char* name : {"a", "b", "c"}) {
    auto obj = bed.server()->store()->Get(name);
    ASSERT_TRUE(obj.ok()) << name;
    EXPECT_EQ(obj->data, name);
  }
}

// The client-side periodic scrub fails a rotted durable call loudly (the
// record can no longer be replayed faithfully) and conservatively marks
// cached imports stale -- all without waiting for a crash-recovery cycle.
TEST(StorageFaultClientTest, PeriodicScrubFailsRottedCallWithoutCrash) {
  Testbed bed;
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("journal", "lww", kJournalCode, "")).ok());
  // Link up for the first 10s, down for 10s, then up for good: calls issued
  // in the gap sit durably in the log where the rot can reach them.
  auto schedule = std::make_unique<IntervalConnectivity>(
      std::vector<IntervalConnectivity::Interval>{{At(0), At(10)},
                                                  {At(20), At(10'000)}});
  ClientNodeOptions copts;
  copts.scrub_interval = Duration::Seconds(3);
  RoverClientNode* m = bed.AddClient("mobile", LinkProfile::WaveLan2(),
                                     std::move(schedule), copts);

  // A cached import gives the conservative stale-mark something to mark.
  bed.loop()->ScheduleAt(At(1), [&] { m->access()->Import("journal"); });
  bed.loop()->ScheduleAt(At(12), [&] {
    InvokeOptions io;
    io.force_site = ExecutionSite::kServer;
    m->access()->Invoke("journal", "add", {"late-a"}, io);
    m->access()->Invoke("journal", "add", {"late-b"}, io);
  });
  uint64_t rotted = 0;
  bed.loop()->ScheduleAt(At(14), [&] { rotted = m->log()->InjectBitRot(3); });
  bed.loop()->RunUntil(At(40));

  ASSERT_NE(rotted, 0u);  // the interior record (late-a) was damaged
  EXPECT_GE(Count(m->metrics(), "storage_scrub.runs"), 4u);
  EXPECT_EQ(Count(m->metrics(), "storage_scrub.quarantined"), 1u);
  EXPECT_GE(Count(m->metrics(), "access_manager.storage_stale_marks"), 1u);
  // The intact record was resent once the link returned; the quarantined
  // call failed loudly instead of acking data it cannot replay.
  EXPECT_EQ(bed.server()->store()->Get("journal")->data, "late-b");
  EXPECT_EQ(m->qrpc()->LogDepth(), 0u);
}

// --- Part 4: seeded chaos with disk faults ----------------------------------

// Random storage faults (write-error bursts, bounded disk-full episodes,
// client bit rot) layered over crash-restarts and link flaps. Whatever the
// seed: at-most-once execution, no phantom tokens, acknowledged work
// durable, logs drained, convergence -- with SimCheck attached throughout.
// (Server bit rot is exercised deterministically in Part 3: a quarantined
// WAL record is *detected* loss, which this harness's acked-loss check
// cannot tell apart from silent loss.)
class StorageChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StorageChaosTest, InvariantsHoldUnderDiskFaultsCrashesAndFlaps) {
  Testbed::Options topts;
  topts.server.stable_store.wal_costs = {Duration::Millis(5), 2e6,
                                         /*group_commit=*/true};
  topts.server.stable_store.compact_after_records = 8;
  Testbed bed(topts);
  bed.loop()->set_event_limit(20'000'000);

  check::SimCheck simcheck;
  simcheck.Attach(&bed);
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("journal", "lww", kJournalCode, "")).ok());

  FaultPlan plan(bed.loop(), GetParam());
  LinkProfile wave = LinkProfile::WaveLan2();
  wave.duplicate_prob = 0.05;
  RoverClientNode* client = bed.AddClient(
      "mobile", wave,
      plan.FlappyConnectivity(Duration::Seconds(8), Duration::Seconds(4),
                              Duration::Seconds(60)));

  constexpr int kTokens = 10;
  std::vector<Promise<InvokeResult>> results(kTokens);
  for (int i = 0; i < kTokens; ++i) {
    bed.loop()->ScheduleAt(At(2 + 4 * i), [&results, client, i] {
      InvokeOptions io;
      io.force_site = ExecutionSite::kServer;
      results[i] = client->access()->Invoke("journal", "add",
                                            {"tok" + std::to_string(i)}, io);
    });
  }

  RandomFaultOptions fopts;
  fopts.horizon = Duration::Seconds(45);
  fopts.server_crashes = 1;
  fopts.client_crashes = 1;
  fopts.tear_probability = 0.5;
  plan.ScheduleRandomFaults(bed.server(), {client}, fopts);

  DiskFaultScheduleOptions dopts;
  dopts.horizon = Duration::Seconds(45);
  dopts.transient_bursts = 2;
  dopts.disk_full_episodes = 1;
  dopts.bitrot_injections = 1;
  plan.ScheduleRandomDiskFaults(/*server=*/nullptr, {client}, dopts);
  DiskFaultScheduleOptions server_dopts = dopts;
  server_dopts.bitrot_injections = 0;  // see class comment
  plan.ScheduleRandomDiskFaults(bed.server(), {}, server_dopts);

  // The fault window closes at 60s: heal every device (mirrors the fuzzer's
  // safety net -- an unconsumed error burst would otherwise fail the final
  // convergence import as a scheduling artifact), then one last client
  // restart resends every durable unanswered request.
  bed.loop()->ScheduleAt(At(60), [&] {
    client->log()->device()->Repair();
    client->log()->device()->SetCapacityBytes(0);
    bed.server()->stable_store()->wal()->device()->Repair();
    bed.server()->stable_store()->wal()->device()->SetCapacityBytes(0);
  });
  plan.CrashClientAt(client, At(61));
  bed.Run();

  EXPECT_GT(plan.disk_faults_injected(), 0u);
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
  // Every epoch bump is one recovery: planned crashes plus storage
  // fail-stops (terminal journal-flush failures force a crash-restart).
  EXPECT_EQ(bed.server()->stable_store()->epoch(),
            1 + plan.server_crashes_executed() +
                bed.server()->storage_fail_stops());

  ImportOptions iopts;
  iopts.allow_cached = false;
  auto converge = client->access()->Import("journal", iopts);
  ASSERT_TRUE(converge.Wait(bed.loop()));
  ASSERT_TRUE(converge.value().status.ok());
  EXPECT_EQ(*client->access()->ReadCommittedData("journal"), server_data);

  simcheck.CheckQuiesced();
  EXPECT_TRUE(simcheck.ok()) << simcheck.Report() << simcheck.TraceTail(150);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StorageChaosTest,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

// --- Part 5: checker meta-test ----------------------------------------------

// Re-introduce the ack-after-failed-flush bug (durability acknowledged for a
// record whose flush terminally failed) and demonstrate the full loop: the
// no-ack-without-durability invariant catches it under a disk-fault
// schedule, greedy shrinking reduces the plan to its write-error kernel,
// and the repro line replays both ways.
TEST(StorageFaultMetaTest, AckAfterFailedFlushBugCaughtAndShrunk) {
  check::FuzzRunOptions buggy;
  buggy.ack_after_failed_flush_bug = true;

  auto plan = check::ParseRepro(
      "SIMCHECK_REPRO seed=11 plan=burst@12000,client1-crash@18000,"
      "client2-disk-err@25000,server-crash@35000");
  ASSERT_TRUE(plan.ok()) << plan.status().message();
  check::FuzzOutcome broken = check::RunPlan(*plan, buggy);
  ASSERT_FALSE(broken.ok) << "ack-after-failed-flush bug went undetected";
  bool saw_bad_ack = false;
  for (const check::Violation& v : broken.violations) {
    saw_bad_ack |= v.invariant == "ack-after-failed-flush";
  }
  EXPECT_TRUE(saw_bad_ack) << broken.report;

  check::FuzzPlan shrunk = check::ShrinkPlan(*plan, buggy);
  EXPECT_LT(shrunk.actions.size(), plan->actions.size());
  EXPECT_LE(shrunk.actions.size(), 2u) << check::FormatRepro(shrunk);
  bool kept_disk_fault = false;
  for (const check::FuzzAction& a : shrunk.actions) {
    kept_disk_fault |= a.kind == check::FuzzActionKind::kDiskTransient;
  }
  EXPECT_TRUE(kept_disk_fault) << check::FormatRepro(shrunk);
  ASSERT_FALSE(check::RunPlan(shrunk, buggy).ok) << "shrunk plan no longer fails";

  // The minimized schedule round-trips through its one-line repro, still
  // bites with the bug in place, and passes on the fixed code.
  const std::string line = check::FormatRepro(shrunk);
  auto parsed = check::ParseRepro(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(check::FormatRepro(*parsed), line);
  EXPECT_FALSE(check::RunPlan(*parsed, buggy).ok);
  check::FuzzOutcome fixed = check::RunPlan(*parsed);
  EXPECT_TRUE(fixed.ok) << fixed.report;
}

// Disk-fault action tokens round-trip through the repro grammar.
TEST(StorageFaultReproTest, DiskFaultTokensRoundTrip) {
  const std::string line =
      "SIMCHECK_REPRO seed=3 "
      "plan=client1-disk-err@100,client2-disk-full@200,client2-disk-free@300,"
      "client1-disk-rot@400,server-disk-err@500,server-disk-full@600,"
      "server-disk-free@700,server-disk-syncfail@800";
  auto plan = check::ParseRepro(line);
  ASSERT_TRUE(plan.ok()) << plan.status().message();
  ASSERT_EQ(plan->actions.size(), 8u);
  EXPECT_EQ(plan->actions[0].kind, check::FuzzActionKind::kDiskTransient);
  EXPECT_EQ(plan->actions[0].target, 0);
  EXPECT_EQ(plan->actions[1].kind, check::FuzzActionKind::kDiskFull);
  EXPECT_EQ(plan->actions[1].target, 1);
  EXPECT_EQ(plan->actions[2].kind, check::FuzzActionKind::kDiskFree);
  EXPECT_EQ(plan->actions[3].kind, check::FuzzActionKind::kDiskRot);
  EXPECT_EQ(plan->actions[4].kind, check::FuzzActionKind::kDiskTransient);
  EXPECT_EQ(plan->actions[4].target, 2);
  EXPECT_EQ(plan->actions[7].kind, check::FuzzActionKind::kDiskSyncFail);
  EXPECT_EQ(plan->actions[7].target, 2);
  EXPECT_EQ(check::FormatRepro(*plan), line);
}

}  // namespace
}  // namespace rover

// End-to-end tests of the access manager over the full stack
// (cache -> QRPC -> scheduler -> simulated links -> server store).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/toolkit.h"
#include "src/tclite/value.h"
#include "tests/test_metrics.h"

namespace rover {
namespace {

constexpr char kCounterCode[] = R"(
proc get {} { global state; return $state }
proc add {n} { global state; set state [expr {$state + $n}]; return $state }
)";

constexpr char kRosterCode[] = R"(
proc members {} { global state; return $state }
proc join {who} { global state; lappend state $who; return $state }
proc leave {who} {
  global state
  set i [lsearch $state $who]
  if {$i >= 0} { set state [concat [lrange $state 0 [expr {$i-1}]] [lrange $state [expr {$i+1}] end]] }
  return $state
}
)";

constexpr char kCalendarCode[] = R"(
proc book {slot what} { global state; set state [dict set $state $slot $what]; return booked }
proc lookup {slot} {
  global state
  if {[dict exists $state $slot]} { return [dict get $state $slot] }
  return ""
}
proc slots {} { global state; return [dict keys $state] }
)";

class AccessManagerTest : public ::testing::Test {
 protected:
  void Seed(Testbed* bed) {
    ASSERT_TRUE(bed->server()->rover()->CreateObject(
        MakeRdo("counter", "lww", kCounterCode, "0")).ok());
    ASSERT_TRUE(bed->server()->rover()->CreateObject(
        MakeRdo("roster", "set", kRosterCode, "alice bob")).ok());
    ASSERT_TRUE(bed->server()->rover()->CreateObject(
        MakeRdo("cal", "calendar", kCalendarCode, "")).ok());
  }
};

TEST_F(AccessManagerTest, ImportMissThenHit) {
  Testbed bed;
  Seed(&bed);
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::WaveLan2());

  auto p1 = client->access()->Import("counter");
  ASSERT_TRUE(p1.Wait(bed.loop()));
  EXPECT_TRUE(p1.value().status.ok());
  EXPECT_FALSE(p1.value().from_cache);
  EXPECT_EQ(p1.value().version, 1u);

  auto p2 = client->access()->Import("counter");
  ASSERT_TRUE(p2.Wait(bed.loop()));
  EXPECT_TRUE(p2.value().from_cache);
  EXPECT_EQ(Count(client->metrics(), "access_manager.cache_hits"), 1u);
  EXPECT_EQ(Count(client->metrics(), "access_manager.cache_misses"), 1u);
}

TEST_F(AccessManagerTest, ImportMissingObjectFails) {
  Testbed bed;
  Seed(&bed);
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::WaveLan2());
  auto p = client->access()->Import("nothing");
  ASSERT_TRUE(p.Wait(bed.loop()));
  EXPECT_EQ(p.value().status.code(), StatusCode::kNotFound);
}

TEST_F(AccessManagerTest, ConcurrentImportsCoalesce) {
  Testbed bed;
  Seed(&bed);
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::Cslip144());
  auto p1 = client->access()->Import("counter");
  auto p2 = client->access()->Import("counter");
  bed.Run();
  ASSERT_TRUE(p1.ready());
  ASSERT_TRUE(p2.ready());
  EXPECT_TRUE(p1.value().status.ok());
  EXPECT_TRUE(p2.value().status.ok());
  // Only one RPC went to the server.
  EXPECT_EQ(bed.server()->rover()->stats().imports, 1u);
}

TEST_F(AccessManagerTest, LocalInvokeMutatesAndMarksTentative) {
  Testbed bed;
  Seed(&bed);
  // WaveLAN (2 Mb/s) is under the adaptive threshold -> local execution.
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::WaveLan2());
  client->access()->Import("counter").Wait(bed.loop());

  auto p = client->access()->Invoke("counter", "add", {"5"});
  ASSERT_TRUE(p.Wait(bed.loop()));
  EXPECT_TRUE(p.value().status.ok());
  EXPECT_EQ(p.value().value, "5");
  EXPECT_EQ(p.value().site, ExecutionSite::kClient);
  EXPECT_TRUE(client->access()->IsTentative("counter"));
  EXPECT_EQ(*client->access()->ReadData("counter"), "5");
  // Server still has the committed 0.
  EXPECT_EQ(bed.server()->store()->Get("counter")->data, "0");
}

TEST_F(AccessManagerTest, AdaptivePolicyUsesServerOnFastLink) {
  Testbed bed;
  Seed(&bed);
  RoverClientNode* client = bed.AddClient("office", LinkProfile::Ethernet10());
  client->access()->Import("counter").Wait(bed.loop());
  auto p = client->access()->Invoke("counter", "add", {"3"});
  ASSERT_TRUE(p.Wait(bed.loop()));
  EXPECT_EQ(p.value().site, ExecutionSite::kServer);
  EXPECT_EQ(p.value().value, "3");
  // Server-side execution commits immediately.
  EXPECT_EQ(bed.server()->store()->Get("counter")->data, "3");
  EXPECT_EQ(Count(client->metrics(), "access_manager.remote_invokes"), 1u);
}

TEST_F(AccessManagerTest, ForceSiteOverridesPolicy) {
  Testbed bed;
  Seed(&bed);
  RoverClientNode* client = bed.AddClient("office", LinkProfile::Ethernet10());
  client->access()->Import("counter").Wait(bed.loop());
  InvokeOptions opts;
  opts.force_site = ExecutionSite::kClient;
  auto p = client->access()->Invoke("counter", "add", {"1"}, opts);
  ASSERT_TRUE(p.Wait(bed.loop()));
  EXPECT_EQ(p.value().site, ExecutionSite::kClient);
}

TEST_F(AccessManagerTest, ExportCommitsTentativeState) {
  Testbed bed;
  Seed(&bed);
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::WaveLan2());
  client->access()->Import("counter").Wait(bed.loop());
  client->access()->Invoke("counter", "add", {"7"}).Wait(bed.loop());

  auto p = client->access()->Export("counter");
  ASSERT_TRUE(p.Wait(bed.loop()));
  EXPECT_TRUE(p.value().status.ok());
  EXPECT_EQ(p.value().new_version, 2u);
  EXPECT_FALSE(p.value().server_resolved);
  EXPECT_FALSE(client->access()->IsTentative("counter"));
  EXPECT_EQ(bed.server()->store()->Get("counter")->data, "7");
  EXPECT_EQ(*client->access()->CachedVersion("counter"), 2u);
}

TEST_F(AccessManagerTest, ExportOfCleanObjectIsNoop) {
  Testbed bed;
  Seed(&bed);
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::WaveLan2());
  client->access()->Import("counter").Wait(bed.loop());
  auto p = client->access()->Export("counter");
  ASSERT_TRUE(p.Wait(bed.loop()));
  EXPECT_TRUE(p.value().status.ok());
  EXPECT_EQ(p.value().new_version, 1u);
  EXPECT_EQ(bed.server()->rover()->stats().exports, 0u);  // no RPC issued
}

TEST_F(AccessManagerTest, DisconnectedOperationEndToEnd) {
  Testbed bed;
  Seed(&bed);
  // Connected for the first 10s, down for 90s, then up again.
  auto schedule = std::make_unique<IntervalConnectivity>(
      std::vector<IntervalConnectivity::Interval>{
          {TimePoint::Epoch(), TimePoint::Epoch() + Duration::Seconds(10)},
          {TimePoint::Epoch() + Duration::Seconds(100),
           TimePoint::Epoch() + Duration::Seconds(10000)}});
  RoverClientNode* client =
      bed.AddClient("laptop", LinkProfile::WaveLan2(), std::move(schedule));

  // Warm the cache while connected.
  client->access()->Import("counter").Wait(bed.loop());
  bed.loop()->RunUntil(TimePoint::Epoch() + Duration::Seconds(20));
  ASSERT_FALSE(client->access()->Connected());

  // Work while disconnected: local invocations + queued export.
  auto inv = client->access()->Invoke("counter", "add", {"4"});
  ASSERT_TRUE(inv.Wait(bed.loop()));
  EXPECT_TRUE(inv.value().status.ok());
  auto exp = client->access()->Export("counter");
  bed.loop()->RunUntil(TimePoint::Epoch() + Duration::Seconds(50));
  EXPECT_FALSE(exp.ready());  // still queued
  EXPECT_EQ(bed.server()->store()->Get("counter")->data, "0");

  // Reconnect: the queue drains and the update commits.
  bed.Run();
  ASSERT_TRUE(exp.ready());
  EXPECT_TRUE(exp.value().status.ok());
  EXPECT_GT(exp.value().completed_at.seconds(), 100.0);
  EXPECT_EQ(bed.server()->store()->Get("counter")->data, "4");
}

TEST_F(AccessManagerTest, InvokeWhileDisconnectedWithoutCacheFails) {
  Testbed bed;
  Seed(&bed);
  RoverClientNode* client =
      bed.AddClient("laptop", LinkProfile::WaveLan2(),
                    std::make_unique<ConstantConnectivity>(false));
  auto p = client->access()->Invoke("counter", "add", {"1"});
  ASSERT_TRUE(p.Wait(bed.loop()));
  EXPECT_EQ(p.value().status.code(), StatusCode::kUnavailable);
}

TEST_F(AccessManagerTest, ConcurrentUpdatesResolvedByTypeResolver) {
  Testbed bed;
  Seed(&bed);
  RoverClientNode* a = bed.AddClient("a", LinkProfile::WaveLan2());
  RoverClientNode* b = bed.AddClient("b", LinkProfile::WaveLan2());
  a->access()->Import("roster").Wait(bed.loop());
  b->access()->Import("roster").Wait(bed.loop());

  // Both diverge from version 1.
  a->access()->Invoke("roster", "join", {"carol"}).Wait(bed.loop());
  b->access()->Invoke("roster", "join", {"dave"}).Wait(bed.loop());

  auto pa = a->access()->Export("roster");
  ASSERT_TRUE(pa.Wait(bed.loop()));
  EXPECT_TRUE(pa.value().status.ok());
  EXPECT_FALSE(pa.value().server_resolved);

  auto pb = b->access()->Export("roster");
  ASSERT_TRUE(pb.Wait(bed.loop()));
  EXPECT_TRUE(pb.value().status.ok());
  EXPECT_TRUE(pb.value().server_resolved);  // set resolver merged

  auto members = TclListSplit(bed.server()->store()->Get("roster")->data);
  std::set<std::string> set(members->begin(), members->end());
  EXPECT_EQ(set, (std::set<std::string>{"alice", "bob", "carol", "dave"}));
  // b adopted the merged state locally.
  auto local = TclListSplit(*b->access()->ReadData("roster"));
  EXPECT_EQ(std::set<std::string>(local->begin(), local->end()), set);
}

TEST_F(AccessManagerTest, UnresolvableConflictKeepsTentativeAndNotifies) {
  Testbed bed;
  Seed(&bed);
  RoverClientNode* a = bed.AddClient("a", LinkProfile::WaveLan2());
  RoverClientNode* b = bed.AddClient("b", LinkProfile::WaveLan2());
  a->access()->Import("cal").Wait(bed.loop());
  b->access()->Import("cal").Wait(bed.loop());

  a->access()->Invoke("cal", "book", {"10am", "staff"}).Wait(bed.loop());
  b->access()->Invoke("cal", "book", {"10am", "dentist"}).Wait(bed.loop());

  ASSERT_TRUE(a->access()->Export("cal").Wait(bed.loop()));

  std::string conflict_name;
  std::string conflict_tentative;
  RdoDescriptor conflict_committed;
  b->access()->SetConflictCallback(
      [&](const std::string& name, const std::string& tentative,
          const RdoDescriptor& committed) {
        conflict_name = name;
        conflict_tentative = tentative;
        conflict_committed = committed;
      });
  auto pb = b->access()->Export("cal");
  ASSERT_TRUE(pb.Wait(bed.loop()));
  EXPECT_EQ(pb.value().status.code(), StatusCode::kConflict);
  EXPECT_TRUE(b->access()->IsTentative("cal"));
  EXPECT_EQ(conflict_name, "cal");
  EXPECT_NE(conflict_tentative.find("dentist"), std::string::npos);
  EXPECT_NE(conflict_committed.data.find("staff"), std::string::npos);
  // Server keeps a's booking.
  EXPECT_EQ(bed.server()->store()->Get("cal")->data, "10am staff");
  EXPECT_EQ(Count(b->metrics(), "access_manager.conflicts_unresolved"), 1u);
}

TEST_F(AccessManagerTest, CoalescedExportProcessesResponseOnce) {
  // Two exports of the same object queue on a down link and coalesce into
  // one rpc; both promises are chained to the same response, so both
  // handlers run -- but only the newest rpc's handler may install state and
  // bump counters, or one wire export would be counted twice.
  Testbed bed;
  Seed(&bed);
  auto schedule = std::make_unique<PeriodicConnectivity>(Duration::Seconds(60),
                                                         Duration::Seconds(60));
  RoverClientNode* client =
      bed.AddClient("mobile", LinkProfile::WaveLan2(), std::move(schedule));
  client->access()->Import("counter").Wait(bed.loop());
  client->access()->Invoke("counter", "add", {"5"}).Wait(bed.loop());

  bed.loop()->RunUntil(TimePoint::Epoch() + Duration::Seconds(65));  // link down
  auto p1 = client->access()->Export("counter");
  auto p2 = client->access()->Export("counter");
  EXPECT_FALSE(p1.ready());
  bed.Run();  // link returns at t=120
  ASSERT_TRUE(p1.ready());
  ASSERT_TRUE(p2.ready());
  EXPECT_TRUE(p1.value().status.ok());
  EXPECT_TRUE(p2.value().status.ok());
  EXPECT_EQ(Count(client->metrics(), "qrpc_client.coalesced"), 1u);
  EXPECT_EQ(Count(client->metrics(), "access_manager.exports_completed"), 1u);
  EXPECT_FALSE(client->access()->IsTentative("counter"));
  EXPECT_EQ(bed.server()->store()->Get("counter")->data, "5");
}

TEST_F(AccessManagerTest, CoalescedExportReportsConflictOnce) {
  Testbed bed;
  Seed(&bed);
  RoverClientNode* a = bed.AddClient("a", LinkProfile::WaveLan2());
  auto schedule = std::make_unique<PeriodicConnectivity>(Duration::Seconds(60),
                                                         Duration::Seconds(60));
  RoverClientNode* b =
      bed.AddClient("b", LinkProfile::WaveLan2(), std::move(schedule));
  a->access()->Import("cal").Wait(bed.loop());
  b->access()->Import("cal").Wait(bed.loop());
  a->access()->Invoke("cal", "book", {"10am", "staff"}).Wait(bed.loop());
  b->access()->Invoke("cal", "book", {"10am", "dentist"}).Wait(bed.loop());
  ASSERT_TRUE(a->access()->Export("cal").Wait(bed.loop()));

  int conflicts_reported = 0;
  b->access()->SetConflictCallback(
      [&](const std::string&, const std::string&, const RdoDescriptor&) {
        ++conflicts_reported;
      });
  bed.loop()->RunUntil(TimePoint::Epoch() + Duration::Seconds(65));  // b down
  auto p1 = b->access()->Export("cal");
  auto p2 = b->access()->Export("cal");
  bed.Run();
  ASSERT_TRUE(p1.ready());
  ASSERT_TRUE(p2.ready());
  EXPECT_EQ(p1.value().status.code(), StatusCode::kConflict);
  EXPECT_EQ(p2.value().status.code(), StatusCode::kConflict);
  EXPECT_EQ(Count(b->metrics(), "qrpc_client.coalesced"), 1u);
  // One conflict on the wire -> one callback, one counter bump.
  EXPECT_EQ(conflicts_reported, 1);
  EXPECT_EQ(Count(b->metrics(), "access_manager.conflicts_unresolved"), 1u);
}

TEST_F(AccessManagerTest, EvictionIsLruAndSparesTentativePinned) {
  Testbed bed;
  // Many small objects.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(bed.server()->rover()->CreateObject(
        MakeRdo("obj/" + std::to_string(i), "lww", kCounterCode,
                std::string(200, 'x'))).ok());
  }
  ClientNodeOptions opts;
  opts.access.cache_capacity_bytes = 2500;  // fits ~4-5 entries
  RoverClientNode* client =
      bed.AddClient("mobile", LinkProfile::Ethernet10(), nullptr, opts);

  ImportOptions pin_opts;
  pin_opts.pin = true;
  client->access()->Import("obj/0", pin_opts).Wait(bed.loop());
  for (int i = 1; i < 10; ++i) {
    client->access()->Import("obj/" + std::to_string(i)).Wait(bed.loop());
  }
  EXPECT_GT(Count(client->metrics(), "access_manager.evictions"), 0u);
  EXPECT_LE(client->access()->CacheBytes(), 2500u);
  EXPECT_TRUE(client->access()->HasCached("obj/0"));   // pinned survived
  EXPECT_FALSE(client->access()->HasCached("obj/1"));  // LRU victim
  EXPECT_TRUE(client->access()->HasCached("obj/9"));   // most recent
}

TEST_F(AccessManagerTest, PrefetchFillsCacheInBackground) {
  Testbed bed;
  Seed(&bed);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(bed.server()->rover()->CreateObject(
        MakeRdo("doc/" + std::to_string(i), "lww", kCounterCode, "0")).ok());
  }
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::Cslip144());
  client->access()->Prefetch({"doc/0", "doc/1", "doc/2", "doc/3", "doc/4", "doc/5"});
  bed.Run();
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(client->access()->HasCached("doc/" + std::to_string(i)));
  }
  EXPECT_EQ(Count(client->metrics(), "access_manager.prefetch_issued"), 6u);
}

TEST_F(AccessManagerTest, SubscriptionInvalidatesStaleCache) {
  Testbed bed;
  Seed(&bed);
  ClientNodeOptions sub_opts;
  sub_opts.access.subscribe_on_import = true;
  RoverClientNode* a =
      bed.AddClient("a", LinkProfile::WaveLan2(), nullptr, sub_opts);
  RoverClientNode* b = bed.AddClient("b", LinkProfile::WaveLan2());

  a->access()->Import("counter").Wait(bed.loop());
  bed.Run();  // let the subscription land

  // b commits a new version; the server notifies a.
  b->access()->Import("counter").Wait(bed.loop());
  b->access()->Invoke("counter", "add", {"9"}).Wait(bed.loop());
  b->access()->Export("counter").Wait(bed.loop());
  bed.Run();
  EXPECT_EQ(Count(a->metrics(), "access_manager.invalidations_received"), 1u);

  // a's next import refetches the new version rather than using the cache.
  auto p = a->access()->Import("counter");
  ASSERT_TRUE(p.Wait(bed.loop()));
  EXPECT_FALSE(p.value().from_cache);
  EXPECT_EQ(p.value().version, 2u);
  EXPECT_EQ(*a->access()->ReadData("counter"), "9");
}

TEST_F(AccessManagerTest, InvalidationFansOutOncePerSubscriberPerCommit) {
  // The server's deferred fan-out flush must deliver exactly one
  // invalidation (with the committed version) to every subscriber except
  // the exporter, per commit -- batching must not drop or duplicate.
  Testbed bed;
  Seed(&bed);
  ClientNodeOptions sub_opts;
  sub_opts.access.subscribe_on_import = true;
  RoverClientNode* a = bed.AddClient("a", LinkProfile::WaveLan2(), nullptr, sub_opts);
  RoverClientNode* b = bed.AddClient("b", LinkProfile::WaveLan2(), nullptr, sub_opts);
  RoverClientNode* c = bed.AddClient("c", LinkProfile::WaveLan2());

  a->access()->Import("counter").Wait(bed.loop());
  b->access()->Import("counter").Wait(bed.loop());
  bed.Run();  // both subscriptions land
  EXPECT_EQ(bed.server()->rover()->SubscriberCount("counter"), 2u);

  c->access()->Import("counter").Wait(bed.loop());
  c->access()->Invoke("counter", "add", {"5"}).Wait(bed.loop());
  c->access()->Export("counter").Wait(bed.loop());
  bed.Run();

  EXPECT_EQ(bed.server()->rover()->stats().invalidations_sent, 2u);
  EXPECT_EQ(Count(a->metrics(), "access_manager.invalidations_received"), 1u);
  EXPECT_EQ(Count(b->metrics(), "access_manager.invalidations_received"), 1u);
  EXPECT_EQ(Count(c->metrics(), "access_manager.invalidations_received"), 0u);  // exporter
}

TEST_F(AccessManagerTest, SessionReadYourWritesAcrossEviction) {
  Testbed bed;
  Seed(&bed);
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::WaveLan2());
  Session session(1);

  ImportOptions iopts;
  iopts.session = &session;
  client->access()->Import("counter", iopts).Wait(bed.loop());
  client->access()->Invoke("counter", "add", {"2"}).Wait(bed.loop());
  auto exp = client->access()->Export("counter");
  ASSERT_TRUE(exp.Wait(bed.loop()));
  session.RecordWrite("counter", exp.value().new_version);

  // Simulate the entry being evicted, then re-imported within the session.
  client->access()->Evict("counter");
  auto p = client->access()->Import("counter", iopts);
  ASSERT_TRUE(p.Wait(bed.loop()));
  EXPECT_GE(p.value().version, 2u);  // read-your-writes
  EXPECT_EQ(*client->access()->ReadData("counter"), "2");
}

TEST_F(AccessManagerTest, StatusCallbackTracksQueueAndTentative) {
  Testbed bed;
  Seed(&bed);
  RoverClientNode* client =
      bed.AddClient("laptop", LinkProfile::WaveLan2(),
                    std::make_unique<PeriodicConnectivity>(
                        Duration::Seconds(1e6), Duration::Zero(),
                        TimePoint::Epoch() + Duration::Seconds(60)));
  std::vector<QueueStatus> updates;
  client->access()->SetStatusCallback([&](const QueueStatus& s) { updates.push_back(s); });

  auto import = client->access()->Import("counter");
  bed.loop()->RunUntil(TimePoint::Epoch() + Duration::Seconds(30));
  ASSERT_FALSE(updates.empty());
  EXPECT_FALSE(updates.back().connected);
  EXPECT_GE(updates.back().queued_qrpcs, 1u);

  bed.Run();
  ASSERT_TRUE(import.ready());
  EXPECT_TRUE(updates.back().connected);
  EXPECT_EQ(updates.back().queued_qrpcs, 0u);
}

TEST_F(AccessManagerTest, CrashRecoveryCommitsQueuedExport) {
  Testbed bed;
  Seed(&bed);
  // Never connected during the first life of the client.
  auto schedule = std::make_unique<IntervalConnectivity>(
      std::vector<IntervalConnectivity::Interval>{
          {TimePoint::Epoch(), TimePoint::Epoch() + Duration::Seconds(10)},
          {TimePoint::Epoch() + Duration::Seconds(100),
           TimePoint::Epoch() + Duration::Seconds(100000)}});
  RoverClientNode* client =
      bed.AddClient("laptop", LinkProfile::WaveLan2(), std::move(schedule));

  client->access()->Import("counter").Wait(bed.loop());
  bed.loop()->RunUntil(TimePoint::Epoch() + Duration::Seconds(20));  // now offline
  client->access()->Invoke("counter", "add", {"8"}).Wait(bed.loop());
  auto exp = client->access()->Export("counter");
  bed.loop()->RunUntil(TimePoint::Epoch() + Duration::Seconds(30));
  ASSERT_FALSE(exp.ready());

  // Crash: the export RPC survives in the stable log and is re-issued.
  client->log()->SimulateCrash();
  ASSERT_GE(client->log()->Recover(), 1u);
  EXPECT_GE(client->qrpc()->RecoverFromLog(), 1u);
  bed.Run();
  EXPECT_EQ(bed.server()->store()->Get("counter")->data, "8");
  EXPECT_EQ(*bed.server()->store()->VersionOf("counter"), 2u);
}

TEST_F(AccessManagerTest, ForcedRefetchBypassesCache) {
  Testbed bed;
  Seed(&bed);
  RoverClientNode* a = bed.AddClient("a", LinkProfile::WaveLan2());
  RoverClientNode* b = bed.AddClient("b", LinkProfile::WaveLan2());
  a->access()->Import("counter").Wait(bed.loop());
  // b commits version 2 behind a's back (no subscription).
  b->access()->Import("counter").Wait(bed.loop());
  b->access()->Invoke("counter", "add", {"1"}).Wait(bed.loop());
  b->access()->Export("counter").Wait(bed.loop());

  // Cached import still sees version 1.
  auto hit = a->access()->Import("counter");
  ASSERT_TRUE(hit.Wait(bed.loop()));
  EXPECT_EQ(hit.value().version, 1u);

  ImportOptions force;
  force.allow_cached = false;
  auto fresh = a->access()->Import("counter", force);
  ASSERT_TRUE(fresh.Wait(bed.loop()));
  EXPECT_EQ(fresh.value().version, 2u);
}

TEST_F(AccessManagerTest, TentativeSurvivesRefetch) {
  Testbed bed;
  Seed(&bed);
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::WaveLan2());
  client->access()->Import("counter").Wait(bed.loop());
  client->access()->Invoke("counter", "add", {"5"}).Wait(bed.loop());
  // A forced refetch must not clobber tentative local state.
  ImportOptions force;
  force.allow_cached = false;
  client->access()->Import("counter", force).Wait(bed.loop());
  EXPECT_TRUE(client->access()->IsTentative("counter"));
  EXPECT_EQ(*client->access()->ReadData("counter"), "5");
}

}  // namespace
}  // namespace rover

namespace rover {
namespace {

TEST(QueueStatusTest, FormatCoversAllStates) {
  QueueStatus idle;
  idle.connected = true;
  EXPECT_EQ(FormatQueueStatus(idle), "connected | 0 queued | all committed");
  QueueStatus busy;
  busy.connected = false;
  busy.queued_qrpcs = 3;
  busy.tentative_objects = 2;
  EXPECT_EQ(FormatQueueStatus(busy),
            "DISCONNECTED | 3 ops queued | 2 tentative objects");
}

}  // namespace
}  // namespace rover

// --- Delta imports: re-fetches of a cached object ship a delta against the
// --- version the client already holds, or nothing at all when unchanged.

namespace rover {
namespace {

constexpr char kPadCode[] = R"(
proc get {} { global state; return $state }
proc put {s} { global state; set state $s; return ok }
)";

class DeltaImportTest : public ::testing::Test {
 protected:
  // An object big enough that a delta is clearly cheaper than the body.
  std::string SeedBig(Testbed* bed) {
    std::string data(6000, 'x');
    for (size_t i = 0; i < data.size(); i += 97) {
      data[i] = static_cast<char>('a' + (i % 13));
    }
    EXPECT_TRUE(bed->server()->rover()->CreateObject(
        MakeRdo("big", "lww", kPadCode, data)).ok());
    return data;
  }

  // Commit a new version server-side with a small edit.
  std::string EditBig(Testbed* bed, std::string data) {
    data.replace(40, 8, "CHANGED!");
    RdoDescriptor next = *bed->server()->store()->Get("big");
    next.data = data;
    EXPECT_TRUE(bed->server()->store()->Put(next).ok());
    return data;
  }
};

TEST_F(DeltaImportTest, StaleRefetchUsesDelta) {
  Testbed bed;
  std::string data = SeedBig(&bed);
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::Cslip144());

  ASSERT_TRUE(client->access()->Import("big").Wait(bed.loop()));
  data = EditBig(&bed, data);

  ImportOptions force;
  force.allow_cached = false;
  auto p = client->access()->Import("big", force);
  ASSERT_TRUE(p.Wait(bed.loop()));
  ASSERT_TRUE(p.value().status.ok());
  EXPECT_EQ(p.value().version, 2u);
  EXPECT_EQ(*client->access()->ReadCommittedData("big"), data);

  EXPECT_EQ(Count(client->metrics(), "access_manager.delta_hits"), 1u);
  EXPECT_GT(Count(client->metrics(), "access_manager.delta_bytes_saved"), 0u);
  EXPECT_EQ(bed.server()->rover()->stats().deltas_sent, 1u);
  EXPECT_GT(bed.server()->rover()->stats().delta_bytes_saved, 0u);
}

TEST_F(DeltaImportTest, UnchangedRefetchIsNotModified) {
  Testbed bed;
  SeedBig(&bed);
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::Cslip144());
  ASSERT_TRUE(client->access()->Import("big").Wait(bed.loop()));

  ImportOptions force;
  force.allow_cached = false;
  auto p = client->access()->Import("big", force);
  ASSERT_TRUE(p.Wait(bed.loop()));
  ASSERT_TRUE(p.value().status.ok());
  EXPECT_EQ(p.value().version, 1u);
  EXPECT_EQ(Count(client->metrics(), "access_manager.delta_not_modified"), 1u);
  EXPECT_EQ(bed.server()->rover()->stats().imports_not_modified, 1u);
}

TEST_F(DeltaImportTest, CorruptCachedImageFallsBackToFullFetch) {
  Testbed bed;
  std::string data = SeedBig(&bed);
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::Cslip144());
  ASSERT_TRUE(client->access()->Import("big").Wait(bed.loop()));
  data = EditBig(&bed, data);

  // Stable-storage rot on the cached image: the delta's base CRC must catch
  // it and the import must transparently re-fetch the full body.
  ASSERT_TRUE(client->access()->CorruptImportImageForTest("big"));
  ImportOptions force;
  force.allow_cached = false;
  auto p = client->access()->Import("big", force);
  ASSERT_TRUE(p.Wait(bed.loop()));
  ASSERT_TRUE(p.value().status.ok());
  EXPECT_EQ(p.value().version, 2u);
  EXPECT_EQ(*client->access()->ReadCommittedData("big"), data);
  EXPECT_EQ(Count(client->metrics(), "access_manager.delta_fallbacks"), 1u);
  EXPECT_EQ(Count(client->metrics(), "access_manager.delta_hits"), 0u);

  // The fallback repaired the cached image; the next refetch deltas again.
  data = EditBig(&bed, data);
  auto p2 = client->access()->Import("big", force);
  ASSERT_TRUE(p2.Wait(bed.loop()));
  ASSERT_TRUE(p2.value().status.ok());
  EXPECT_EQ(Count(client->metrics(), "access_manager.delta_hits"), 1u);
  EXPECT_EQ(*client->access()->ReadCommittedData("big"), data);
}

TEST_F(DeltaImportTest, DeltaDisabledSendsLegacyImports) {
  Testbed bed;
  std::string data = SeedBig(&bed);
  ClientNodeOptions opts;
  opts.access.delta_imports = false;
  RoverClientNode* client =
      bed.AddClient("mobile", LinkProfile::Cslip144(), nullptr, opts);
  ASSERT_TRUE(client->access()->Import("big").Wait(bed.loop()));
  data = EditBig(&bed, data);
  ImportOptions force;
  force.allow_cached = false;
  auto p = client->access()->Import("big", force);
  ASSERT_TRUE(p.Wait(bed.loop()));
  ASSERT_TRUE(p.value().status.ok());
  EXPECT_EQ(*client->access()->ReadCommittedData("big"), data);
  EXPECT_EQ(Count(client->metrics(), "access_manager.delta_hits"), 0u);
  EXPECT_EQ(Count(client->metrics(), "access_manager.delta_full"), 0u);
  EXPECT_EQ(bed.server()->rover()->stats().deltas_sent, 0u);
}

TEST_F(DeltaImportTest, ImportEscalationCoalescesDuplicateRpc) {
  // A background import escalated to foreground withdraws the queued
  // background rpc instead of paying for the object twice.
  Testbed bed;
  SeedBig(&bed);
  // Link up only from t=60s so both requests queue.
  auto schedule = std::make_unique<PeriodicConnectivity>(
      Duration::Seconds(1e6), Duration::Zero(),
      TimePoint::Epoch() + Duration::Seconds(60));
  RoverClientNode* client =
      bed.AddClient("mobile", LinkProfile::Cslip144(), std::move(schedule));

  ImportOptions background;
  background.priority = Priority::kBackground;
  auto slow = client->access()->Import("big", background);
  ImportOptions foreground;
  foreground.priority = Priority::kForeground;
  auto fast = client->access()->Import("big", foreground);

  bed.Run();
  ASSERT_TRUE(slow.ready());
  ASSERT_TRUE(fast.ready());
  EXPECT_TRUE(slow.value().status.ok());
  EXPECT_TRUE(fast.value().status.ok());
  EXPECT_EQ(Count(client->metrics(), "qrpc_client.coalesced"), 1u);
  // Only one import reached the server.
  EXPECT_EQ(bed.server()->rover()->stats().imports, 1u);
}

}  // namespace
}  // namespace rover

// --- Session guarantees end to end: version floors survive delta-import
// --- short-cuts and server state loss, ObjectsTouched counts each object
// --- once, and a mid-session client restart round-trips the cache
// --- snapshot, the rpc-id counter, and the queued-export log.

namespace rover {
namespace {

TEST(SessionTest, ObjectsTouchedCountsReadWriteOverlapOnce) {
  Session s(7);
  s.RecordRead("a", 1);
  s.RecordWrite("a", 2);  // read and written: one object, not two
  EXPECT_EQ(s.ObjectsTouched(), 1u);
  s.RecordRead("a", 3);  // repeat accesses never add touches
  s.RecordWrite("a", 4);
  EXPECT_EQ(s.ObjectsTouched(), 1u);
  EXPECT_EQ(s.RequiredVersion("a"), 4u);  // floor is the max over both maps
  s.RecordWrite("b", 1);  // write-only object
  s.RecordRead("c", 1);   // read-only object
  EXPECT_EQ(s.ObjectsTouched(), 3u);
  EXPECT_EQ(s.RequiredVersion("nothing"), 0u);
}

TEST(SessionTest, ObjectsTouchedMergesInterleavedNames) {
  // Names that alternate between the read and write sets exercise the
  // sorted-merge walk: the old per-write linear rescan double-counted any
  // written name that also appeared among later reads.
  Session s;
  s.RecordRead("b", 1);
  s.RecordRead("d", 1);
  s.RecordWrite("a", 1);
  s.RecordWrite("c", 1);
  s.RecordWrite("e", 1);
  EXPECT_EQ(s.ObjectsTouched(), 5u);
  s.RecordWrite("b", 2);
  s.RecordWrite("d", 2);
  EXPECT_EQ(s.ObjectsTouched(), 5u);
}

constexpr char kSessionPadCode[] = R"(
proc get {} { global state; return $state }
proc put {s} { global state; set state $s; return ok }
)";

constexpr char kSessionCounterCode[] = R"(
proc get {} { global state; return $state }
proc add {n} { global state; set state [expr {$state + $n}]; return $state }
)";

class SessionGuaranteeTest : public ::testing::Test {
 protected:
  // An object big enough that re-fetches go down the delta path.
  std::string SeedPad(Testbed* bed) {
    std::string data(6000, 'x');
    for (size_t i = 0; i < data.size(); i += 89) {
      data[i] = static_cast<char>('a' + (i % 17));
    }
    EXPECT_TRUE(bed->server()->rover()->CreateObject(
        MakeRdo("pad", "lww", kSessionPadCode, data)).ok());
    return data;
  }

  void SeedCounter(Testbed* bed) {
    ASSERT_TRUE(bed->server()->rover()->CreateObject(
        MakeRdo("counter", "lww", kSessionCounterCode, "0")).ok());
  }

  // Commit a new version server-side behind the client's back.
  std::string EditPad(Testbed* bed, std::string data) {
    data.replace(100, 7, "EDITED!");
    RdoDescriptor next = *bed->server()->store()->Get("pad");
    next.data = data;
    EXPECT_TRUE(bed->server()->store()->Put(next).ok());
    return data;
  }
};

TEST_F(SessionGuaranteeTest, ImportBelowSessionFloorFailsAfterServerLosesState) {
  Testbed bed;
  SeedCounter(&bed);
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::WaveLan2());
  Session session(1);
  ImportOptions iopts;
  iopts.session = &session;

  ASSERT_TRUE(client->access()->Import("counter", iopts).Wait(bed.loop()));
  ASSERT_TRUE(client->access()->Invoke("counter", "add", {"2"}).Wait(bed.loop()));
  auto exp = client->access()->Export("counter");
  ASSERT_TRUE(exp.Wait(bed.loop()));
  ASSERT_TRUE(exp.value().status.ok());
  session.RecordWrite("counter", exp.value().new_version);
  EXPECT_EQ(session.RequiredVersion("counter"), 2u);

  // The server loses the export: the object is removed and recreated, so it
  // comes back at version 1.
  client->access()->Evict("counter");
  ASSERT_TRUE(bed.server()->store()->Remove("counter").ok());
  SeedCounter(&bed);

  // Read-your-writes: handing this session the regressed version would
  // silently rewind its own committed export, so the import must fail.
  auto p = client->access()->Import("counter", iopts);
  ASSERT_TRUE(p.Wait(bed.loop()));
  EXPECT_EQ(p.value().status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(p.value().status.message().find("session requires"), std::string::npos);

  // A session-free import of the same object still works: the failure is
  // the session's guarantee, not the object's availability.
  auto bare = client->access()->Import("counter");
  ASSERT_TRUE(bare.Wait(bed.loop()));
  EXPECT_TRUE(bare.value().status.ok());
  EXPECT_EQ(bare.value().version, 1u);
}

TEST_F(SessionGuaranteeTest, NotModifiedBelowSessionFloorIsNotServed) {
  // The client caches pad@1 (with its delta base image). The session then
  // learns of version 2 -- an export it saw committed from another device.
  // A re-fetch goes out as a delta request with base 1; the server (still
  // at version 1 here) answers kNotModified. Serving the cached copy on
  // that short-cut would hand the session the past: the manager must fall
  // back to a full fetch, whose version-1 result then fails the floor.
  Testbed bed;
  SeedPad(&bed);
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::WaveLan2());
  ASSERT_TRUE(client->access()->Import("pad").Wait(bed.loop()));

  Session session(1);
  session.RecordWrite("pad", 2);
  ImportOptions force;
  force.allow_cached = false;
  force.session = &session;
  auto p = client->access()->Import("pad", force);
  ASSERT_TRUE(p.Wait(bed.loop()));
  EXPECT_EQ(p.value().status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(p.value().status.message().find("session requires"), std::string::npos);
  EXPECT_EQ(Count(client->metrics(), "access_manager.delta_not_modified"), 0u);
  EXPECT_EQ(Count(client->metrics(), "access_manager.delta_fallbacks"), 1u);
}

TEST_F(SessionGuaranteeTest, DeltaReplySatisfiesSessionFloor) {
  // Happy path of the same machinery: when the server really has the
  // version the session needs, the delta reply both saves bytes and
  // satisfies the floor.
  Testbed bed;
  std::string data = SeedPad(&bed);
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::WaveLan2());
  ASSERT_TRUE(client->access()->Import("pad").Wait(bed.loop()));
  data = EditPad(&bed, data);

  Session session(1);
  session.RecordWrite("pad", 2);
  ImportOptions force;
  force.allow_cached = false;
  force.session = &session;
  auto p = client->access()->Import("pad", force);
  ASSERT_TRUE(p.Wait(bed.loop()));
  ASSERT_TRUE(p.value().status.ok());
  EXPECT_EQ(p.value().version, 2u);
  EXPECT_EQ(*client->access()->ReadCommittedData("pad"), data);
  EXPECT_EQ(Count(client->metrics(), "access_manager.delta_hits"), 1u);
  EXPECT_EQ(session.RequiredVersion("pad"), 2u);
  EXPECT_EQ(session.ObjectsTouched(), 1u);
}

TEST_F(SessionGuaranteeTest, MidSessionRestartRoundTripsCacheAndRpcIds) {
  // A session spanning a client crash: the cache snapshot (committed data,
  // tentative state, delta base images) and the rpc-id counter persist on
  // the client's stable storage next to the QRPC log, so the restarted
  // node resumes the session -- replaying the queued export, serving
  // cached imports offline, and delta-importing against the restored
  // image -- without ever reusing an rpc id.
  Testbed bed;
  SeedCounter(&bed);
  std::string data = SeedPad(&bed);
  auto schedule = std::make_unique<IntervalConnectivity>(
      std::vector<IntervalConnectivity::Interval>{
          {TimePoint::Epoch(), TimePoint::Epoch() + Duration::Seconds(10)},
          {TimePoint::Epoch() + Duration::Seconds(100),
           TimePoint::Epoch() + Duration::Seconds(100000)}});
  RoverClientNode* client =
      bed.AddClient("laptop", LinkProfile::WaveLan2(), std::move(schedule));
  Session session(1);
  ImportOptions iopts;
  iopts.session = &session;

  ASSERT_TRUE(client->access()->Import("counter", iopts).Wait(bed.loop()));
  ASSERT_TRUE(client->access()->Import("pad", iopts).Wait(bed.loop()));
  bed.loop()->RunUntil(TimePoint::Epoch() + Duration::Seconds(20));  // offline now

  ASSERT_TRUE(client->access()->Invoke("counter", "add", {"5"}).Wait(bed.loop()));
  auto exp = client->access()->Export("counter");
  bed.loop()->RunUntil(TimePoint::Epoch() + Duration::Seconds(30));
  ASSERT_FALSE(exp.ready());  // queued for the link, durable in the log
  const uint64_t next_id_before = client->qrpc()->next_rpc_id();

  ASSERT_GE(client->SimulateCrashAndRestart(), 1u);

  // Still offline: the restored snapshot serves the session from cache.
  EXPECT_GE(client->qrpc()->next_rpc_id(), next_id_before);
  EXPECT_TRUE(client->access()->IsTentative("counter"));
  EXPECT_EQ(*client->access()->ReadData("counter"), "5");
  auto hit = client->access()->Import("pad", iopts);
  ASSERT_TRUE(hit.Wait(bed.loop()));
  EXPECT_TRUE(hit.value().from_cache);

  // Reconnect: the replayed export commits exactly once.
  bed.Run();
  EXPECT_EQ(bed.server()->store()->Get("counter")->data, "5");
  EXPECT_EQ(*bed.server()->store()->VersionOf("counter"), 2u);
  session.RecordWrite("counter", 2);

  // The pad's delta base image survived the snapshot round-trip: the next
  // re-fetch within the session ships a delta, not the full body.
  data = EditPad(&bed, data);
  ImportOptions force = iopts;
  force.allow_cached = false;
  auto p = client->access()->Import("pad", force);
  ASSERT_TRUE(p.Wait(bed.loop()));
  ASSERT_TRUE(p.value().status.ok());
  EXPECT_EQ(p.value().version, 2u);
  EXPECT_EQ(*client->access()->ReadCommittedData("pad"), data);
  EXPECT_EQ(Count(client->metrics(), "access_manager.delta_hits"), 1u);

  // The persisted rpc-id counter kept post-restart calls out of the dup
  // cache's shadow: nothing the new incarnation sent collided with an id
  // the dead one already used.
  EXPECT_EQ(Count(bed.server()->metrics(), "qrpc_server.duplicates"), 0u);
  EXPECT_EQ(session.ObjectsTouched(), 2u);
  EXPECT_EQ(session.RequiredVersion("counter"), 2u);
}

}  // namespace
}  // namespace rover

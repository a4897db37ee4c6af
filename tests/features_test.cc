// Tests for the toolkit features beyond the core loop: URN naming with
// multiple home servers, request authentication, poll-based consistency,
// client cache persistence across restart, QRPC cancellation, and the
// lifecycle of the server's cached RDO instances.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/cache/urn.h"
#include "src/core/toolkit.h"
#include "tests/test_metrics.h"

namespace rover {
namespace {

constexpr char kCounterCode[] = R"(
proc get {} { global state; return $state }
proc add {n} { global state; set state [expr {$state + $n}]; return $state }
)";

// --- URNs ---

TEST(UrnTest, ParseValid) {
  auto urn = ParseRoverUrn("rover://mail-server/inbox/7");
  ASSERT_TRUE(urn.ok());
  EXPECT_EQ(urn->server, "mail-server");
  EXPECT_EQ(urn->path, "inbox/7");
}

TEST(UrnTest, RejectsMalformed) {
  EXPECT_FALSE(ParseRoverUrn("http://x/y").ok());
  EXPECT_FALSE(ParseRoverUrn("rover://serveronly").ok());
  EXPECT_FALSE(ParseRoverUrn("rover:///path").ok());
  EXPECT_FALSE(ParseRoverUrn("rover://server/").ok());
}

TEST(UrnTest, ResolveAgainstDefault) {
  RoverUrn bare = ResolveObjectName("mail/inbox", "home");
  EXPECT_EQ(bare.server, "home");
  EXPECT_EQ(bare.path, "mail/inbox");
  RoverUrn full = ResolveObjectName("rover://other/cal", "home");
  EXPECT_EQ(full.server, "other");
  EXPECT_EQ(full.path, "cal");
}

TEST(UrnTest, MakeRoundTrips) {
  const std::string urn = MakeRoverUrn("s1", "a/b");
  EXPECT_EQ(urn, "rover://s1/a/b");
  EXPECT_TRUE(IsRoverUrn(urn));
  auto parsed = ParseRoverUrn(urn);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->path, "a/b");
}

TEST(MultiServerTest, ObjectsLiveOnTheirHomeServers) {
  Testbed bed;  // default server: "server"
  RoverServerNode* second = bed.AddServer("archive");
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("counter", "lww", kCounterCode, "1")).ok());
  ASSERT_TRUE(second->rover()->CreateObject(
      MakeRdo("counter", "lww", kCounterCode, "100")).ok());

  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::WaveLan2());
  bed.AddLink("mobile", "archive", LinkProfile::Cslip144());

  // Bare name -> default server; URN -> the archive server. Same path,
  // independent objects.
  auto a = client->access()->Import("counter");
  auto b = client->access()->Import("rover://archive/counter");
  bed.Run();
  ASSERT_TRUE(a.ready() && b.ready());
  ASSERT_TRUE(a.value().status.ok());
  ASSERT_TRUE(b.value().status.ok());
  EXPECT_EQ(*client->access()->ReadData("counter"), "1");
  EXPECT_EQ(*client->access()->ReadData("rover://archive/counter"), "100");

  // Updates commit to the right server.
  client->access()->Invoke("rover://archive/counter", "add", {"5"}).Wait(bed.loop());
  client->access()->Export("rover://archive/counter").Wait(bed.loop());
  EXPECT_EQ(second->store()->Get("counter")->data, "105");
  EXPECT_EQ(bed.server()->store()->Get("counter")->data, "1");
}

TEST(MultiServerTest, InvalidationsReachOnlyTheKeyNamingTheirServer) {
  // Both servers hold `counter`; one client caches both, under the bare
  // name and under the archive's URN. An invalidation names its object by
  // path, so the sending server decides which key goes stale.
  Testbed bed;  // default server: "server"
  RoverServerNode* archive = bed.AddServer("archive");
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("counter", "lww", kCounterCode, "1")).ok());
  ASSERT_TRUE(archive->rover()->CreateObject(
      MakeRdo("counter", "lww", kCounterCode, "100")).ok());
  ClientNodeOptions sub_opts;
  sub_opts.access.subscribe_on_import = true;
  RoverClientNode* reader =
      bed.AddClient("reader", LinkProfile::WaveLan2(), nullptr, sub_opts);
  RoverClientNode* writer = bed.AddClient("writer", LinkProfile::WaveLan2());
  bed.AddLink("reader", "archive", LinkProfile::WaveLan2());
  bed.AddLink("writer", "archive", LinkProfile::WaveLan2());
  const std::string bare = "counter";
  const std::string urn = MakeRoverUrn("archive", "counter");

  reader->access()->Import(bare).Wait(bed.loop());
  reader->access()->Import(urn).Wait(bed.loop());
  bed.Run();  // let both subscriptions land
  ASSERT_EQ(bed.server()->rover()->SubscriberCount("counter"), 1u);
  ASSERT_EQ(archive->rover()->SubscriberCount("counter"), 1u);

  auto commit = [&](const std::string& name) {
    writer->access()->Import(name).Wait(bed.loop());
    writer->access()->Invoke(name, "add", {"5"}).Wait(bed.loop());
    auto exported = writer->access()->Export(name);
    ASSERT_TRUE(exported.Wait(bed.loop()));
    ASSERT_TRUE(exported.value().status.ok()) << exported.value().status;
    bed.Run();  // deliver the invalidation
  };
  auto cache_hit = [&](const std::string& name) {
    auto imported = reader->access()->Import(name);
    EXPECT_TRUE(imported.Wait(bed.loop()));
    EXPECT_TRUE(imported.value().status.ok()) << imported.value().status;
    return imported.value().from_cache;
  };

  // A commit on the archive stales only the URN entry.
  commit(urn);
  EXPECT_EQ(Count(reader->metrics(), "access_manager.invalidations_received"), 1u);
  EXPECT_FALSE(cache_hit(urn));
  EXPECT_TRUE(cache_hit(bare));
  EXPECT_EQ(*reader->access()->ReadData(urn), "105");
  EXPECT_EQ(*reader->access()->ReadData(bare), "1");

  // A commit on the default server stales only the bare entry.
  commit(bare);
  EXPECT_EQ(Count(reader->metrics(), "access_manager.invalidations_received"), 2u);
  EXPECT_FALSE(cache_hit(bare));
  EXPECT_TRUE(cache_hit(urn));
  EXPECT_EQ(*reader->access()->ReadData(bare), "6");
  EXPECT_EQ(*reader->access()->ReadData(urn), "105");
}

TEST(MultiServerTest, MigrationPolicyUsesPerServerLink) {
  Testbed bed;  // default server on Ethernet (fast)
  RoverServerNode* far = bed.AddServer("far");
  ASSERT_TRUE(far->rover()->CreateObject(
      MakeRdo("doc", "lww", kCounterCode, "7")).ok());
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("doc", "lww", kCounterCode, "7")).ok());
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::Ethernet10());
  bed.AddLink("mobile", "far", LinkProfile::Cslip144());

  client->access()->Import("doc").Wait(bed.loop());
  client->access()->Import("rover://far/doc").Wait(bed.loop());

  // Adaptive policy: fast link -> server execution; slow link -> local.
  auto near_invoke = client->access()->Invoke("doc", "get", {});
  near_invoke.Wait(bed.loop());
  EXPECT_EQ(near_invoke.value().site, ExecutionSite::kServer);
  auto far_invoke = client->access()->Invoke("rover://far/doc", "get", {});
  far_invoke.Wait(bed.loop());
  EXPECT_EQ(far_invoke.value().site, ExecutionSite::kClient);
}

// --- authentication ---

TEST(AuthTest, UnauthenticatedRequestRefused) {
  Testbed::Options options;
  options.server.qrpc.accepted_tokens = {"secret-token"};
  Testbed bed(options);
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("counter", "lww", kCounterCode, "0")).ok());
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::WaveLan2());

  auto import = client->access()->Import("counter");
  ASSERT_TRUE(import.Wait(bed.loop()));
  EXPECT_EQ(import.value().status.code(), StatusCode::kPermissionDenied);
}

TEST(AuthTest, AuthenticatedRequestAccepted) {
  Testbed::Options options;
  options.server.qrpc.accepted_tokens = {"secret-token"};
  Testbed bed(options);
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("counter", "lww", kCounterCode, "0")).ok());
  ClientNodeOptions copts;
  copts.auth_token = "secret-token";
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::WaveLan2(), nullptr, copts);

  auto import = client->access()->Import("counter");
  ASSERT_TRUE(import.Wait(bed.loop()));
  EXPECT_TRUE(import.value().status.ok());
}

TEST(AuthTest, WrongTokenRefusedAndCounted) {
  Testbed::Options options;
  options.server.qrpc.accepted_tokens = {"right"};
  Testbed bed(options);
  ClientNodeOptions copts;
  copts.auth_token = "wrong";
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::WaveLan2(), nullptr, copts);
  auto call = client->qrpc()->Call("server", "rover.list", {std::string("")});
  ASSERT_TRUE(call.result.Wait(bed.loop()));
  EXPECT_EQ(call.result.value().status.code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(Count(bed.server()->metrics(), "qrpc_server.auth_failures"), 1u);
}

// --- polling ---

TEST(PollTest, StaleEntryDetectedAndRefetched) {
  Testbed bed;
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("counter", "lww", kCounterCode, "0")).ok());
  ClientNodeOptions popts;
  popts.access.poll_interval = Duration::Seconds(30);
  RoverClientNode* a = bed.AddClient("a", LinkProfile::WaveLan2(), nullptr, popts);
  RoverClientNode* b = bed.AddClient("b", LinkProfile::WaveLan2());

  a->access()->Import("counter").Wait(bed.loop());
  // b commits version 2 behind a's back.
  b->access()->Import("counter").Wait(bed.loop());
  b->access()->Invoke("counter", "add", {"3"}).Wait(bed.loop());
  b->access()->Export("counter").Wait(bed.loop());

  // After the next poll tick, a's entry is stale and a fresh import fetches v2.
  bed.loop()->RunFor(Duration::Seconds(40));
  EXPECT_GE(Count(a->metrics(), "access_manager.polls_sent"), 1u);
  EXPECT_GE(Count(a->metrics(), "access_manager.poll_staleness_detected"), 1u);
  auto re = a->access()->Import("counter");
  ASSERT_TRUE(re.Wait(bed.loop()));
  EXPECT_FALSE(re.value().from_cache);
  EXPECT_EQ(re.value().version, 2u);
}

TEST(PollTest, NoPollWhileDisconnected) {
  Testbed bed;
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("counter", "lww", kCounterCode, "0")).ok());
  ClientNodeOptions popts;
  popts.access.poll_interval = Duration::Seconds(10);
  RoverClientNode* client = bed.AddClient(
      "mobile", LinkProfile::WaveLan2(),
      std::make_unique<IntervalConnectivity>(std::vector<IntervalConnectivity::Interval>{
          {TimePoint::Epoch(), TimePoint::Epoch() + Duration::Seconds(15)}}),
      popts);
  client->access()->Import("counter").Wait(bed.loop());
  bed.loop()->RunUntil(TimePoint::Epoch() + Duration::Seconds(120));
  // One poll may fire inside the first 15 s window; none afterwards.
  EXPECT_LE(Count(client->metrics(), "access_manager.polls_sent"), 2u);
  EXPECT_EQ(client->transport()->scheduler()->TotalQueueDepth(), 0u);
}

// --- cache persistence ---

TEST(PersistenceTest, CacheSurvivesClientRestart) {
  Testbed bed;
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("counter", "lww", kCounterCode, "10")).ok());
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("notes", "lww", kCounterCode, "0")).ok());
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::WaveLan2());

  ImportOptions pin;
  pin.pin = true;
  client->access()->Import("counter", pin).Wait(bed.loop());
  client->access()->Import("notes").Wait(bed.loop());
  // Tentative local work on "notes".
  client->access()->Invoke("notes", "add", {"5"}).Wait(bed.loop());

  const Bytes snapshot = client->access()->SerializeCache();

  // "Reboot": a fresh access manager over the same transport stack. The
  // rpc-id counter is part of the durable state (see QrpcClient docs) --
  // restarting from 1 would collide with the server's duplicate cache.
  const uint64_t next_rpc_id = client->qrpc()->next_rpc_id();
  ClientNodeOptions fresh;
  auto restarted = std::make_unique<RoverClientNode>(
      bed.loop(), bed.network()->FindHost("mobile"), fresh);
  restarted->qrpc()->set_next_rpc_id(next_rpc_id);
  ASSERT_TRUE(restarted->access()->LoadCache(snapshot).ok());

  EXPECT_EQ(restarted->access()->CachedObjectCount(), 2u);
  EXPECT_EQ(*restarted->access()->ReadData("counter"), "10");
  EXPECT_EQ(*restarted->access()->ReadData("notes"), "5");
  EXPECT_TRUE(restarted->access()->IsTentative("notes"));
  EXPECT_FALSE(restarted->access()->IsTentative("counter"));

  // The restored tentative state exports with the correct base version.
  auto exp = restarted->access()->Export("notes");
  ASSERT_TRUE(exp.Wait(bed.loop()));
  EXPECT_TRUE(exp.value().status.ok());
  EXPECT_EQ(bed.server()->store()->Get("notes")->data, "5");

  // And local invocations work immediately (e.g. while disconnected).
  auto inv = restarted->access()->Invoke("counter", "get", {});
  ASSERT_TRUE(inv.Wait(bed.loop()));
  EXPECT_EQ(inv.value().value, "10");
}

TEST(PersistenceTest, CorruptSnapshotRejected) {
  Testbed bed;
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::WaveLan2());
  Bytes bogus{0x09, 0x01, 0x02};
  EXPECT_FALSE(client->access()->LoadCache(bogus).ok());
}

TEST(PersistenceTest, EmptyCacheRoundTrips) {
  Testbed bed;
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::WaveLan2());
  const Bytes snapshot = client->access()->SerializeCache();
  EXPECT_TRUE(client->access()->LoadCache(snapshot).ok());
  EXPECT_EQ(client->access()->CachedObjectCount(), 0u);
}

// --- cancellation ---

TEST(CancelTest, QueuedCallCancelledBeforeTransmission) {
  Testbed bed;
  // Never connected: the call stays queued.
  RoverClientNode* client =
      bed.AddClient("mobile", LinkProfile::WaveLan2(),
                    std::make_unique<ConstantConnectivity>(false));
  QrpcCall call = client->qrpc()->Call("server", "rover.list", {std::string("")});
  ASSERT_TRUE(call.committed.Wait(bed.loop()));
  EXPECT_EQ(client->qrpc()->PendingCount(), 1u);
  EXPECT_EQ(client->qrpc()->LogDepth(), 1u);

  EXPECT_TRUE(client->qrpc()->Cancel(call.rpc_id));
  ASSERT_TRUE(call.result.ready());
  EXPECT_EQ(call.result.value().status.code(), StatusCode::kCancelled);
  EXPECT_EQ(client->qrpc()->PendingCount(), 0u);
  EXPECT_EQ(client->qrpc()->LogDepth(), 0u);
  EXPECT_EQ(client->transport()->scheduler()->TotalQueueDepth(), 0u);
}

TEST(CancelTest, CancelledCallNeverReachesServer) {
  Testbed bed;
  RoverClientNode* client = bed.AddClient(
      "mobile", LinkProfile::WaveLan2(),
      std::make_unique<PeriodicConnectivity>(Duration::Seconds(1e6), Duration::Zero(),
                                             TimePoint::Epoch() + Duration::Seconds(100)));
  QrpcCall call = client->qrpc()->Call("server", "rover.list", {std::string("")});
  call.committed.Wait(bed.loop());
  client->qrpc()->Cancel(call.rpc_id);
  bed.Run();  // reconnect happens; nothing to send
  EXPECT_EQ(Count(bed.server()->metrics(), "qrpc_server.requests"), 0u);
}

TEST(CancelTest, UnknownOrCompletedIdReturnsFalse) {
  Testbed bed;
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::WaveLan2());
  EXPECT_FALSE(client->qrpc()->Cancel(999));
  QrpcCall call = client->qrpc()->Call("server", "rover.list", {std::string("")});
  ASSERT_TRUE(call.result.Wait(bed.loop()));
  EXPECT_FALSE(client->qrpc()->Cancel(call.rpc_id));  // already completed
}

TEST(CancelTest, RecoveryDoesNotResurrectCancelledCalls) {
  Testbed bed;
  RoverClientNode* client =
      bed.AddClient("mobile", LinkProfile::WaveLan2(),
                    std::make_unique<ConstantConnectivity>(false));
  QrpcCall keep = client->qrpc()->Call("server", "rover.list", {std::string("a")});
  QrpcCall drop = client->qrpc()->Call("server", "rover.list", {std::string("b")});
  keep.committed.Wait(bed.loop());
  drop.committed.Wait(bed.loop());
  client->qrpc()->Cancel(drop.rpc_id);

  client->log()->SimulateCrash();
  client->log()->Recover();
  // Only the surviving request is re-driven.
  EXPECT_EQ(client->qrpc()->RecoverFromLog(), 1u);
}

}  // namespace
}  // namespace rover

namespace rover {
namespace {

TEST(RelayAccessTest, FullToolkitLoopOverSmtpOnly) {
  // A field unit whose only connectivity is a 2.4 Kbit/s mail link to a
  // relay: import, local invoke, and export all work, end to end.
  Testbed bed;
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("counter", "lww", kCounterCode, "0")).ok());
  ClientNodeOptions options;
  options.access.relay_host = "relay";
  RoverClientNode* client = bed.AddDetachedClient("fieldunit", options);
  bed.AddRelay("relay", "fieldunit", LinkProfile::Cslip24(), LinkProfile::Ethernet10());

  auto import = client->access()->Import("counter");
  ASSERT_TRUE(import.Wait(bed.loop()));
  ASSERT_TRUE(import.value().status.ok()) << import.value().status;

  auto invoke = client->access()->Invoke("counter", "add", {"7"});
  ASSERT_TRUE(invoke.Wait(bed.loop()));
  EXPECT_EQ(invoke.value().site, ExecutionSite::kClient);  // no direct link

  auto exported = client->access()->Export("counter");
  ASSERT_TRUE(exported.Wait(bed.loop()));
  EXPECT_TRUE(exported.value().status.ok()) << exported.value().status;
  EXPECT_EQ(bed.server()->store()->Get("counter")->data, "7");
}

}  // namespace
}  // namespace rover

namespace rover {
namespace {

TEST(StalenessTest, StaleEntryServedWhileDisconnected) {
  Testbed bed;
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("counter", "lww", kCounterCode, "1")).ok());
  ClientNodeOptions opts;
  opts.access.subscribe_on_import = true;
  // Connected for the first 60 s only.
  RoverClientNode* a = bed.AddClient(
      "a", LinkProfile::WaveLan2(),
      std::make_unique<IntervalConnectivity>(std::vector<IntervalConnectivity::Interval>{
          {TimePoint::Epoch(), TimePoint::Epoch() + Duration::Seconds(60)}}),
      opts);
  RoverClientNode* b = bed.AddClient("b", LinkProfile::WaveLan2());

  a->access()->Import("counter").Wait(bed.loop());
  bed.loop()->RunFor(Duration::Seconds(5));  // subscription lands

  // b commits v2 while a is still connected: a's entry goes stale.
  b->access()->Import("counter").Wait(bed.loop());
  b->access()->Invoke("counter", "add", {"1"}).Wait(bed.loop());
  b->access()->Export("counter").Wait(bed.loop());
  bed.loop()->RunFor(Duration::Seconds(5));
  ASSERT_EQ(Count(a->metrics(), "access_manager.invalidations_received"), 1u);

  // Disconnect a, then import: the stale copy is served immediately
  // rather than queueing a refetch that cannot complete.
  bed.loop()->RunUntil(TimePoint::Epoch() + Duration::Seconds(100));
  ASSERT_FALSE(a->access()->Connected());
  auto import = a->access()->Import("counter");
  ASSERT_TRUE(import.Wait(bed.loop()));
  EXPECT_TRUE(import.value().status.ok());
  EXPECT_TRUE(import.value().from_cache);
  EXPECT_EQ(import.value().version, 1u);  // the stale-but-available copy
}

TEST(StalenessTest, StaleEntryRefetchedWhileConnected) {
  Testbed bed;
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("counter", "lww", kCounterCode, "1")).ok());
  ClientNodeOptions opts;
  opts.access.subscribe_on_import = true;
  RoverClientNode* a = bed.AddClient("a", LinkProfile::WaveLan2(), nullptr, opts);
  RoverClientNode* b = bed.AddClient("b", LinkProfile::WaveLan2());
  a->access()->Import("counter").Wait(bed.loop());
  bed.Run();
  b->access()->Import("counter").Wait(bed.loop());
  b->access()->Invoke("counter", "add", {"1"}).Wait(bed.loop());
  b->access()->Export("counter").Wait(bed.loop());
  bed.Run();
  auto import = a->access()->Import("counter");
  ASSERT_TRUE(import.Wait(bed.loop()));
  EXPECT_FALSE(import.value().from_cache);  // connected: fetch fresh
  EXPECT_EQ(import.value().version, 2u);
}

}  // namespace
}  // namespace rover

namespace rover {
namespace {

// --- server-side RDO instances ---

// `loads` is a scratch global zeroed when the code loads, so `bump` reports
// how many calls the current load of the object has served.
constexpr char kBumpCode[] = R"(
set loads 0
proc bump {} { global loads state; incr loads; incr state; return $loads }
proc get {} { global state; return $state }
proc bad {} { global state; set state 99; error oops }
)";

Promise<InvokeResult> AtServer(RoverClientNode* client, const std::string& method) {
  InvokeOptions io;
  io.force_site = ExecutionSite::kServer;
  return client->access()->Invoke("bump", method, {}, io);
}

// Runs `method` at the home server and returns its result.
std::string ServerCall(Testbed* bed, RoverClientNode* client, const std::string& method) {
  auto call = AtServer(client, method);
  EXPECT_TRUE(call.Wait(bed->loop()));
  EXPECT_TRUE(call.value().status.ok()) << method << ": " << call.value().status;
  EXPECT_EQ(call.value().site, ExecutionSite::kServer);
  return call.value().value;
}

// The instance survives the commits its own invokes make and reloads after
// any other: here a client's export and a server restart.
TEST(ServerInstanceTest, KeptAcrossOnlyItsOwnCommits) {
  Testbed bed;
  ASSERT_TRUE(bed.server()->rover()->CreateObject(MakeRdo("bump", "lww", kBumpCode, "0")).ok());
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::WaveLan2());
  EXPECT_EQ(ServerCall(&bed, client, "bump"), "1");
  EXPECT_EQ(ServerCall(&bed, client, "bump"), "2");
  EXPECT_EQ(ServerCall(&bed, client, "bump"), "3");
  EXPECT_EQ(*bed.server()->store()->VersionOf("bump"), 4u);

  // The client commits state 4 as version 5 from its own copy.
  ASSERT_TRUE(client->access()->Import("bump").Wait(bed.loop()));
  auto local = client->access()->Invoke("bump", "bump", {});
  ASSERT_TRUE(local.Wait(bed.loop()));
  ASSERT_EQ(local.value().site, ExecutionSite::kClient);
  auto exported = client->access()->Export("bump");
  ASSERT_TRUE(exported.Wait(bed.loop()));
  ASSERT_TRUE(exported.value().status.ok()) << exported.value().status;
  ASSERT_EQ(exported.value().new_version, 5u);
  EXPECT_EQ(ServerCall(&bed, client, "bump"), "1");
  EXPECT_EQ(ServerCall(&bed, client, "get"), "5");

  bed.server()->SimulateCrashAndRestart();
  EXPECT_EQ(ServerCall(&bed, client, "bump"), "1");
  EXPECT_EQ(ServerCall(&bed, client, "get"), "6");
}

// A removed and re-created object starts again at version 1, so only the
// remove itself can retire the old instance.
TEST(ServerInstanceTest, DroppedWhenObjectRemoved) {
  Testbed bed;
  ASSERT_TRUE(bed.server()->rover()->CreateObject(MakeRdo("bump", "lww", kBumpCode, "0")).ok());
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::WaveLan2());
  EXPECT_EQ(ServerCall(&bed, client, "get"), "0");

  ASSERT_TRUE(bed.server()->store()->Remove("bump").ok());
  ASSERT_TRUE(bed.server()->rover()->CreateObject(MakeRdo("bump", "lww", kBumpCode, "7")).ok());
  EXPECT_EQ(ServerCall(&bed, client, "get"), "7");
}

TEST(ServerInstanceTest, ReloadedOnPromotedBackup) {
  Testbed bed;
  RoverServerNode* backup = bed.AddBackup("backup", LinkProfile::Ethernet10());
  ASSERT_TRUE(bed.server()->rover()->CreateObject(MakeRdo("bump", "lww", kBumpCode, "0")).ok());
  ClientNodeOptions copts;
  copts.qrpc.failover_primary = "server";
  copts.qrpc.failover_backup = "backup";
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::WaveLan2(), nullptr, copts);
  bed.AddLink("mobile", "backup", LinkProfile::WaveLan2());
  EXPECT_EQ(ServerCall(&bed, client, "bump"), "1");
  EXPECT_EQ(ServerCall(&bed, client, "bump"), "2");

  bed.server()->Kill();
  ASSERT_GT(backup->Promote(), 0u);
  client->qrpc()->TriggerFailover();
  EXPECT_EQ(ServerCall(&bed, client, "bump"), "1");
  EXPECT_EQ(ServerCall(&bed, client, "get"), "3");
  EXPECT_EQ(backup->rover()->stats().invokes, 2u);
}

// A failed method's partial writes never reach the next call, and the
// instance it failed on stays loaded.
TEST(ServerInstanceTest, FailedInvokeLeavesCommittedState) {
  Testbed bed;
  ASSERT_TRUE(bed.server()->rover()->CreateObject(MakeRdo("bump", "lww", kBumpCode, "0")).ok());
  RoverClientNode* client = bed.AddClient("mobile", LinkProfile::WaveLan2());
  EXPECT_EQ(ServerCall(&bed, client, "bump"), "1");

  auto bad = AtServer(client, "bad");
  ASSERT_TRUE(bad.Wait(bed.loop()));
  EXPECT_FALSE(bad.value().status.ok());
  EXPECT_EQ(ServerCall(&bed, client, "get"), "1");
  EXPECT_EQ(ServerCall(&bed, client, "bump"), "2");
  EXPECT_EQ(bed.server()->store()->Get("bump")->data, "2");
  EXPECT_EQ(*bed.server()->store()->VersionOf("bump"), 3u);
}

}  // namespace
}  // namespace rover

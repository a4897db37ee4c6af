// Full-stack integration scenarios: multiple applications, multiple
// clients, relays, crashes, and long disconnections running together in
// one simulated world -- the kind of day the paper's introduction
// describes.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/apps/calendar.h"
#include "src/apps/mail.h"
#include "src/apps/web.h"
#include "src/core/toolkit.h"
#include "src/tclite/value.h"
#include "tests/test_metrics.h"

namespace rover {
namespace {

TEST(IntegrationTest, FullCommuterDay) {
  // Morning: docked Ethernet. Day: WaveLAN patches. Evening: dial-up.
  Testbed bed;
  MailService mail_service(bed.server());
  ASSERT_TRUE(mail_service.CreateFolder("inbox").ok());
  for (int i = 0; i < 6; ++i) {
    MailMessage m;
    m.id = std::to_string(i);
    m.from = "colleague@lcs.mit.edu";
    m.to = "user@lcs.mit.edu";
    m.subject = "item " + std::to_string(i);
    m.body = std::string(1200, 'b');
    ASSERT_TRUE(mail_service.DeliverLocal("inbox", m).ok());
  }
  ASSERT_TRUE(CreateCalendar(bed.server(), "me").ok());
  SyntheticWebOptions web;
  web.page_count = 15;
  ASSERT_TRUE(BuildSyntheticWeb(bed.server(), web).ok());

  // Ethernet while docked (first 10 min).
  bed.AddClient("laptop", LinkProfile::Ethernet10(),
                std::make_unique<IntervalConnectivity>(
                    std::vector<IntervalConnectivity::Interval>{
                        {TimePoint::Epoch(), TimePoint::Epoch() + Duration::Seconds(600)}}));
  // Spotty WaveLAN during the day (10 min on / 50 min off).
  bed.AddClient("laptop", LinkProfile::WaveLan2(),
                std::make_unique<PeriodicConnectivity>(
                    Duration::Seconds(600), Duration::Seconds(3000),
                    TimePoint::Epoch() + Duration::Seconds(3600)));
  // Evening dial-up from 10h on.
  RoverClientNode* laptop = bed.AddClient(
      "laptop", LinkProfile::Cslip144(),
      std::make_unique<PeriodicConnectivity>(Duration::Seconds(1e7), Duration::Zero(),
                                             TimePoint::Epoch() + Duration::Seconds(36000)));

  MailReader reader(bed.loop(), laptop);
  CalendarApp cal(bed.loop(), laptop, "me");
  BrowserProxy proxy(bed.loop(), laptop);

  // 1. Morning: open + prefetch everything.
  auto folder = reader.OpenFolder("inbox");
  ASSERT_TRUE(folder.Wait(bed.loop()));
  ASSERT_TRUE(reader.PrefetchFolder("inbox").ok());
  ASSERT_TRUE(cal.Open().Wait(bed.loop()));
  for (int i = 0; i < 15; ++i) {
    proxy.Request("page/" + std::to_string(i)).Wait(bed.loop());
  }
  bed.loop()->RunUntil(TimePoint::Epoch() + Duration::Seconds(599));

  // 2. Off the dock: work disconnected.
  bed.loop()->RunUntil(TimePoint::Epoch() + Duration::Seconds(1000));
  ASSERT_FALSE(laptop->access()->Connected());
  for (int i = 0; i < 6; ++i) {
    auto body = reader.ReadMessage("inbox", std::to_string(i));
    ASSERT_TRUE(body.Wait(bed.loop()));
    ASSERT_TRUE(body.value().ok());
  }
  ASSERT_TRUE(cal.Book("thu-4pm", "writing block").Wait(bed.loop()));
  auto page = proxy.Request("page/3");
  ASSERT_TRUE(page.Wait(bed.loop()));
  EXPECT_TRUE(page.value().from_cache);

  // Queue outgoing work.
  MailMessage reply;
  reply.id = "r1";
  reply.to = "colleague@lcs.mit.edu";
  reply.subject = "Re: item 2";
  reply.body = "answered on the train";
  QrpcCall sent = reader.Send("colleague-inbox", reply);
  auto synced = cal.Sync();
  reader.SyncReadMarks("inbox");

  // 3. Midday WaveLAN window at t=3600s drains some of the queue.
  bed.loop()->RunUntil(TimePoint::Epoch() + Duration::Seconds(5000));
  EXPECT_TRUE(sent.result.ready());
  EXPECT_TRUE(synced.ready());
  EXPECT_TRUE(synced.value().status.ok());

  // 4. End state: server saw everything exactly once.
  bed.loop()->set_event_limit(20'000'000);
  bed.Run();
  EXPECT_TRUE(bed.server()->store()->Exists(MailMessageObject("colleague-inbox", "r1")));
  EXPECT_NE(bed.server()->store()->Get(CalendarObject("me"))->data.find("writing block"),
            std::string::npos);
  auto inbox0 =
      DecodeMailState(bed.server()->store()->Get(MailMessageObject("inbox", "0"))->data);
  ASSERT_TRUE(inbox0.ok());
  EXPECT_TRUE(inbox0->read);
  EXPECT_EQ(laptop->access()->TentativeCount(), 0u);
}

TEST(IntegrationTest, RelayOnlyClientReachesServer) {
  // The client and server are never directly connected; everything flows
  // through the SMTP relay -- including the response, which the server
  // routes back via the request's reply_via hint (the paper's SMTP
  // transport carried both directions).
  Testbed bed;
  MailService mail_service(bed.server());
  ASSERT_TRUE(mail_service.CreateFolder("inbox").ok());
  RoverClientNode* client = bed.AddDetachedClient("fieldunit");
  SmtpRelay* relay = bed.AddRelay("relay", "fieldunit", LinkProfile::Cslip24(),
                                  LinkProfile::Ethernet10());
  ASSERT_NE(client, nullptr);

  QrpcCallOptions opts;
  opts.via_relay = true;
  opts.relay_host = "relay";
  MailMessage report;
  report.id = "field-report-1";
  report.to = "hq";
  report.subject = "daily report";
  report.body = std::string(2000, 'f');
  QrpcCall call = client->qrpc()->Call(
      "server", "mail.deliver", {std::string("inbox"), EncodeMailState(report)}, opts);
  bed.Run();
  EXPECT_TRUE(call.committed.ready());
  // Request out + response back: two envelopes through the relay, and the
  // client sees the server's answer despite never touching it directly.
  EXPECT_EQ(relay->stats().envelopes_forwarded, 2u);
  ASSERT_TRUE(call.result.ready());
  EXPECT_TRUE(call.result.value().status.ok());
  EXPECT_TRUE(bed.server()->store()->Exists(MailMessageObject("inbox", "field-report-1")));
  EXPECT_EQ(client->qrpc()->PendingCount(), 0u);
}

TEST(IntegrationTest, ServerRestartPreservesObjectsAndVersions) {
  Testbed bed;
  ASSERT_TRUE(CreateCalendar(bed.server(), "team").ok());
  RoverClientNode* client = bed.AddClient("laptop", LinkProfile::WaveLan2());
  CalendarApp cal(bed.loop(), client, "team");
  ASSERT_TRUE(cal.Open().Wait(bed.loop()));
  ASSERT_TRUE(cal.Book("mon-9am", "standup").Wait(bed.loop()));
  ASSERT_TRUE(cal.Sync().Wait(bed.loop()));
  const uint64_t version_before = *bed.server()->store()->VersionOf(CalendarObject("team"));

  // Server "restart": snapshot + reload the store in place.
  const Bytes snapshot = bed.server()->store()->Serialize();
  ASSERT_TRUE(bed.server()->store()->Load(snapshot).ok());
  EXPECT_EQ(*bed.server()->store()->VersionOf(CalendarObject("team")), version_before);

  // Post-restart: a stale-base export still reconciles against preserved
  // history (the ancestor survived the snapshot).
  ASSERT_TRUE(cal.Book("tue-9am", "review").Wait(bed.loop()));
  auto sync = cal.Sync();
  ASSERT_TRUE(sync.Wait(bed.loop()));
  EXPECT_TRUE(sync.value().status.ok());
  EXPECT_NE(bed.server()->store()->Get(CalendarObject("team"))->data.find("standup"),
            std::string::npos);
}

TEST(IntegrationTest, ThreeClientsShareCalendarThroughConflicts) {
  Testbed bed;
  ASSERT_TRUE(CreateCalendar(bed.server(), "room").ok());
  std::vector<RoverClientNode*> nodes;
  std::vector<std::unique_ptr<CalendarApp>> cals;
  for (int i = 0; i < 3; ++i) {
    nodes.push_back(bed.AddClient("user" + std::to_string(i), LinkProfile::WaveLan2()));
    cals.push_back(std::make_unique<CalendarApp>(bed.loop(), nodes.back(), "room"));
    ASSERT_TRUE(cals.back()->Open().Wait(bed.loop()));
  }
  // All three book: two distinct slots and one collision with user0.
  ASSERT_TRUE(cals[0]->Book("mon-10", "u0 meeting").Wait(bed.loop()));
  ASSERT_TRUE(cals[1]->Book("tue-11", "u1 meeting").Wait(bed.loop()));
  ASSERT_TRUE(cals[2]->Book("mon-10", "u2 meeting").Wait(bed.loop()));

  ASSERT_TRUE(cals[0]->Sync().Wait(bed.loop()));
  auto s1 = cals[1]->Sync();
  ASSERT_TRUE(s1.Wait(bed.loop()));
  EXPECT_TRUE(s1.value().status.ok());  // disjoint -> resolver merge
  auto s2 = cals[2]->Sync();
  ASSERT_TRUE(s2.Wait(bed.loop()));
  EXPECT_EQ(s2.value().status.code(), StatusCode::kConflict);  // true collision

  // user2 re-books and converges.
  ASSERT_TRUE(cals[2]->Cancel("mon-10").Wait(bed.loop()));
  ASSERT_TRUE(cals[2]->Book("wed-10", "u2 meeting").Wait(bed.loop()));
  auto retry = cals[2]->Sync();
  ASSERT_TRUE(retry.Wait(bed.loop()));
  EXPECT_TRUE(retry.value().status.ok());

  const std::string final_state = bed.server()->store()->Get(CalendarObject("room"))->data;
  EXPECT_NE(final_state.find("u0 meeting"), std::string::npos);
  EXPECT_NE(final_state.find("u1 meeting"), std::string::npos);
  EXPECT_NE(final_state.find("wed-10"), std::string::npos);
  EXPECT_EQ(bed.server()->store()->stats().unresolved_conflicts, 1u);
}

TEST(IntegrationTest, SchedulerCountersAccountForTraffic) {
  Testbed bed;
  ASSERT_TRUE(bed.server()->rover()->CreateObject(
      MakeRdo("obj", "lww", "proc get {} { global state; return $state }",
              std::string(5000, 'x'))).ok());
  RoverClientNode* client = bed.AddClient("laptop", LinkProfile::Cslip144());
  client->access()->Import("obj").Wait(bed.loop());
  EXPECT_EQ(Count(client->metrics(), "scheduler.messages_enqueued"), 1u);
  EXPECT_EQ(Count(client->metrics(), "scheduler.messages_delivered"), 1u);
  EXPECT_GT(Count(client->metrics(), "scheduler.bytes_sent"), 0u);
  // The link carried (at least) the request + the 5 KB response.
  uint64_t wire = 0;
  for (const auto& link : bed.network()->all_links()) {
    wire += link->stats().payload_bytes;
  }
  EXPECT_GT(wire, 5000u);
}

}  // namespace
}  // namespace rover

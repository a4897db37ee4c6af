#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/network.h"
#include "src/transport/message.h"
#include "src/transport/scheduler.h"
#include "src/transport/smtp.h"
#include "src/transport/transport.h"
#include "tests/test_metrics.h"

namespace rover {
namespace {

Message MakeMessage(const std::string& dst, size_t payload_size,
                    Priority priority = Priority::kDefault) {
  Message msg;
  msg.header.type = MessageType::kRequest;
  msg.header.priority = priority;
  msg.header.dst = dst;
  msg.payload = Bytes(payload_size, 0x5a);
  return msg;
}

TEST(MessageTest, EncodeDecodeRoundTrip) {
  Message msg;
  msg.header.message_id = 77;
  msg.header.type = MessageType::kResponse;
  msg.header.priority = Priority::kForeground;
  msg.header.src = "client";
  msg.header.dst = "server";
  msg.header.in_reply_to = 42;
  msg.payload = Bytes{1, 2, 3};

  auto decoded = Message::Decode(msg.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->header.message_id, 77u);
  EXPECT_EQ(decoded->header.type, MessageType::kResponse);
  EXPECT_EQ(decoded->header.priority, Priority::kForeground);
  EXPECT_EQ(decoded->header.src, "client");
  EXPECT_EQ(decoded->header.dst, "server");
  EXPECT_EQ(decoded->header.in_reply_to, 42u);
  EXPECT_EQ(decoded->payload, (Bytes{1, 2, 3}));
}

TEST(MessageTest, CorruptMessageRejected) {
  Message msg = MakeMessage("server", 10);
  Bytes data = msg.Encode();
  data.resize(data.size() / 2);
  EXPECT_FALSE(Message::Decode(data).ok());
}

TEST(MessageTest, FrameRoundTrip) {
  std::vector<Message> msgs;
  for (int i = 0; i < 5; ++i) {
    Message m = MakeMessage("server", static_cast<size_t>(i * 10));
    m.header.message_id = static_cast<uint64_t>(i + 1);
    msgs.push_back(m);
  }
  auto decoded = DecodeFrame(EncodeFrame(msgs));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ((*decoded)[static_cast<size_t>(i)].header.message_id,
              static_cast<uint64_t>(i + 1));
    EXPECT_EQ((*decoded)[static_cast<size_t>(i)].payload.size(),
              static_cast<size_t>(i * 10));
  }
}

TEST(MessageTest, EmptyFrameRoundTrip) {
  auto decoded = DecodeFrame(EncodeFrame(std::vector<Message>{}));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
}

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest() : net_(&loop_) {}

  void SetUpHosts(LinkProfile profile,
                  std::unique_ptr<ConnectivitySchedule> schedule = nullptr) {
    link_ = net_.Connect("mobile", "server", std::move(profile), std::move(schedule));
    mobile_ =
        std::make_unique<TransportManager>(&loop_, net_.FindHost("mobile"), &mobile_metrics_);
    server_ =
        std::make_unique<TransportManager>(&loop_, net_.FindHost("server"), &server_metrics_);
    server_->SetHandler(MessageType::kRequest,
                        [this](const Message& msg) { received_.push_back(msg); });
  }

  EventLoop loop_;
  Network net_;
  Link* link_ = nullptr;
  obs::Registry mobile_metrics_;
  obs::Registry server_metrics_;
  std::unique_ptr<TransportManager> mobile_;
  std::unique_ptr<TransportManager> server_;
  std::vector<Message> received_;
};

TEST_F(SchedulerTest, DeliversMessage) {
  SetUpHosts(LinkProfile::Ethernet10());
  mobile_->Send(MakeMessage("server", 100));
  loop_.Run();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].header.src, "mobile");
  EXPECT_EQ(received_[0].payload.size(), 100u);
}

TEST_F(SchedulerTest, QueuesWhileDisconnectedAndDrainsOnReconnect) {
  // Down until t=60s, then up.
  SetUpHosts(LinkProfile::WaveLan2(),
             std::make_unique<PeriodicConnectivity>(
                 Duration::Seconds(1e6), Duration::Zero(),
                 TimePoint::Epoch() + Duration::Seconds(60)));
  for (int i = 0; i < 5; ++i) {
    mobile_->Send(MakeMessage("server", 50));
  }
  loop_.RunUntil(TimePoint::Epoch() + Duration::Seconds(59));
  EXPECT_TRUE(received_.empty());
  EXPECT_EQ(mobile_->scheduler()->TotalQueueDepth(), 5u);
  loop_.Run();
  EXPECT_EQ(received_.size(), 5u);
  EXPECT_EQ(mobile_->scheduler()->TotalQueueDepth(), 0u);
  EXPECT_GT(loop_.now().seconds(), 60.0);
}

TEST_F(SchedulerTest, PriorityOrdering) {
  // Queue while down so all three are pending, then drain.
  SetUpHosts(LinkProfile::Cslip144(),
             std::make_unique<PeriodicConnectivity>(
                 Duration::Seconds(1e6), Duration::Zero(),
                 TimePoint::Epoch() + Duration::Seconds(10)));
  SchedulerOptions opts;
  opts.max_batch_messages = 1;  // one frame per message so order is observable
  mobile_ = std::make_unique<TransportManager>(&loop_, net_.FindHost("mobile"),
                                               &mobile_metrics_, opts);

  Message background = MakeMessage("server", 10, Priority::kBackground);
  background.header.message_id = 1;
  Message foreground = MakeMessage("server", 10, Priority::kForeground);
  foreground.header.message_id = 2;
  Message normal = MakeMessage("server", 10, Priority::kDefault);
  normal.header.message_id = 3;
  mobile_->Send(std::move(background));
  mobile_->Send(std::move(foreground));
  mobile_->Send(std::move(normal));
  loop_.Run();
  ASSERT_EQ(received_.size(), 3u);
  EXPECT_EQ(received_[0].header.message_id, 2u);  // foreground first
  EXPECT_EQ(received_[1].header.message_id, 3u);
  EXPECT_EQ(received_[2].header.message_id, 1u);  // background last
}

TEST_F(SchedulerTest, BatchingCoalescesMessages) {
  SetUpHosts(LinkProfile::Cslip144(),
             std::make_unique<PeriodicConnectivity>(
                 Duration::Seconds(1e6), Duration::Zero(),
                 TimePoint::Epoch() + Duration::Seconds(10)));
  for (int i = 0; i < 8; ++i) {
    mobile_->Send(MakeMessage("server", 20));
  }
  loop_.Run();
  EXPECT_EQ(received_.size(), 8u);
  // All 8 were waiting at reconnect; batching should use 1 frame.
  EXPECT_EQ(Count(&mobile_metrics_, "scheduler.frames_sent"), 1u);
  EXPECT_EQ(link_->stats().frames_delivered, 1u);
}

TEST_F(SchedulerTest, NoBatchingSendsIndividually) {
  SetUpHosts(LinkProfile::Cslip144(),
             std::make_unique<PeriodicConnectivity>(
                 Duration::Seconds(1e6), Duration::Zero(),
                 TimePoint::Epoch() + Duration::Seconds(10)));
  SchedulerOptions opts;
  opts.max_batch_messages = 1;
  mobile_ = std::make_unique<TransportManager>(&loop_, net_.FindHost("mobile"),
                                               &mobile_metrics_, opts);
  for (int i = 0; i < 8; ++i) {
    mobile_->Send(MakeMessage("server", 20));
  }
  loop_.Run();
  EXPECT_EQ(received_.size(), 8u);
  EXPECT_EQ(Count(&mobile_metrics_, "scheduler.frames_sent"), 8u);
}

TEST_F(SchedulerTest, PicksFastestUpLink) {
  net_.Connect("mobile", "server", LinkProfile::Cslip144());
  Link* ethernet = net_.Connect("mobile", "server", LinkProfile::Ethernet10());
  mobile_ =
      std::make_unique<TransportManager>(&loop_, net_.FindHost("mobile"), &mobile_metrics_);
  server_ =
      std::make_unique<TransportManager>(&loop_, net_.FindHost("server"), &server_metrics_);
  server_->SetHandler(MessageType::kRequest,
                      [this](const Message& msg) { received_.push_back(msg); });
  mobile_->Send(MakeMessage("server", 100));
  loop_.Run();
  EXPECT_EQ(received_.size(), 1u);
  EXPECT_EQ(ethernet->stats().frames_delivered, 1u);
}

TEST_F(SchedulerTest, FallsBackToSlowLinkWhenFastIsDown) {
  Link* slow = net_.Connect("mobile", "server", LinkProfile::Cslip144());
  net_.Connect("mobile", "server", LinkProfile::Ethernet10(),
               std::make_unique<ConstantConnectivity>(false));
  mobile_ =
      std::make_unique<TransportManager>(&loop_, net_.FindHost("mobile"), &mobile_metrics_);
  server_ =
      std::make_unique<TransportManager>(&loop_, net_.FindHost("server"), &server_metrics_);
  server_->SetHandler(MessageType::kRequest,
                      [this](const Message& msg) { received_.push_back(msg); });
  mobile_->Send(MakeMessage("server", 100));
  loop_.Run();
  EXPECT_EQ(received_.size(), 1u);
  EXPECT_EQ(slow->stats().frames_delivered, 1u);
}

TEST_F(SchedulerTest, RetriesAfterRandomLoss) {
  LinkProfile lossy = LinkProfile::WaveLan2();
  lossy.loss_prob = 0.5;
  SetUpHosts(lossy);
  for (int i = 0; i < 20; ++i) {
    mobile_->Send(MakeMessage("server", 200));
  }
  loop_.Run();
  EXPECT_EQ(received_.size(), 20u);  // reliability despite loss
  EXPECT_GT(Count(&mobile_metrics_, "scheduler.retries"), 0u);
}

TEST_F(SchedulerTest, SurvivesFlappingLink) {
  // 200ms up / 800ms down; a CSLIP 14.4 frame of ~1KB takes ~0.57s, so
  // transfers often straddle a disconnect and must be retried.
  SetUpHosts(LinkProfile::Cslip144(),
             std::make_unique<PeriodicConnectivity>(Duration::Millis(200),
                                                    Duration::Millis(800)));
  for (int i = 0; i < 5; ++i) {
    mobile_->Send(MakeMessage("server", 1000));
  }
  loop_.RunUntil(TimePoint::Epoch() + Duration::Seconds(300));
  EXPECT_EQ(received_.size(), 5u);
}

TEST_F(SchedulerTest, CompressionShrinksCompressiblePayloads) {
  SchedulerOptions opts;
  opts.compress = true;
  SetUpHosts(LinkProfile::Cslip144());
  mobile_ = std::make_unique<TransportManager>(&loop_, net_.FindHost("mobile"),
                                               &mobile_metrics_, opts);

  Message msg;
  msg.header.type = MessageType::kRequest;
  msg.header.dst = "server";
  std::string text;
  for (int i = 0; i < 100; ++i) {
    text += "repetitive mail header line\n";
  }
  msg.payload = BytesFromString(text);
  mobile_->Send(std::move(msg));
  loop_.Run();
  ASSERT_EQ(received_.size(), 1u);
  // Receiver sees the decompressed payload.
  EXPECT_EQ(received_[0].payload.ToString(), text);
  EXPECT_LT(Count(&mobile_metrics_, "scheduler.payload_bytes_sent"),
            Count(&mobile_metrics_, "scheduler.payload_bytes_original") / 4);
}

TEST_F(SchedulerTest, QueueObserverSeesDepthChanges) {
  SetUpHosts(LinkProfile::Ethernet10(),
             std::make_unique<PeriodicConnectivity>(
                 Duration::Seconds(1e6), Duration::Zero(),
                 TimePoint::Epoch() + Duration::Seconds(5)));
  std::vector<size_t> depths;
  mobile_->scheduler()->SetQueueObserver([&](size_t d) { depths.push_back(d); });
  mobile_->Send(MakeMessage("server", 10));
  mobile_->Send(MakeMessage("server", 10));
  loop_.Run();
  ASSERT_GE(depths.size(), 3u);
  EXPECT_EQ(depths[0], 1u);
  EXPECT_EQ(depths[1], 2u);
  EXPECT_EQ(depths.back(), 0u);
}

TEST_F(SchedulerTest, DeliveredCallbackFires) {
  SetUpHosts(LinkProfile::WaveLan2());
  bool delivered = false;
  Message msg = MakeMessage("server", 10);
  msg.header.src = "mobile";
  mobile_->scheduler()->Enqueue(std::move(msg),
                                [&](const Status& s) { delivered = s.ok(); });
  loop_.Run();
  EXPECT_TRUE(delivered);
}

TEST_F(SchedulerTest, TtlExpiresQueuedMessageWhileDisconnected) {
  // Link only comes up at t=60s; a 10s TTL withdraws the message first.
  SetUpHosts(LinkProfile::WaveLan2(),
             std::make_unique<PeriodicConnectivity>(
                 Duration::Seconds(1e6), Duration::Zero(),
                 TimePoint::Epoch() + Duration::Seconds(60)));
  Status expired_status;
  bool expired_fired = false;
  Message with_ttl = MakeMessage("server", 40);
  with_ttl.header.src = "mobile";
  with_ttl.header.message_id = 1;
  mobile_->scheduler()->Enqueue(std::move(with_ttl),
                                [&](const Status& s) {
                                  expired_fired = true;
                                  expired_status = s;
                                },
                                /*ttl=*/Duration::Seconds(10));
  Message forever = MakeMessage("server", 40);
  forever.header.src = "mobile";
  forever.header.message_id = 2;
  mobile_->scheduler()->Enqueue(std::move(forever));

  loop_.RunUntil(TimePoint::Epoch() + Duration::Seconds(30));
  EXPECT_TRUE(expired_fired);
  EXPECT_EQ(expired_status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(mobile_->scheduler()->TotalQueueDepth(), 1u);
  EXPECT_EQ(Count(&mobile_metrics_, "scheduler.messages_expired"), 1u);

  // Only the TTL-free message goes out when the link comes up.
  loop_.Run();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].header.message_id, 2u);
}

TEST_F(SchedulerTest, TtlDoesNotDropDeliverableMessage) {
  SetUpHosts(LinkProfile::WaveLan2());
  bool delivered_ok = false;
  Message msg = MakeMessage("server", 40);
  msg.header.src = "mobile";
  mobile_->scheduler()->Enqueue(std::move(msg),
                                [&](const Status& s) { delivered_ok = s.ok(); },
                                /*ttl=*/Duration::Seconds(10));
  loop_.Run();
  EXPECT_TRUE(delivered_ok);
  EXPECT_EQ(received_.size(), 1u);
  EXPECT_EQ(Count(&mobile_metrics_, "scheduler.messages_expired"), 0u);
}

TEST_F(SchedulerTest, AttachedLinkReevaluatesStaleUpWakeup) {
  // Regression: the queue parks with a wakeup armed for the only link's
  // next-up time (t=1000s). A second, always-up link attached afterwards
  // must re-trigger scheduling immediately instead of leaving the message
  // waiting on the stale wakeup.
  SetUpHosts(LinkProfile::Cslip144(),
             std::make_unique<PeriodicConnectivity>(
                 Duration::Seconds(1e6), Duration::Zero(),
                 TimePoint::Epoch() + Duration::Seconds(1000)));
  mobile_->Send(MakeMessage("server", 50));
  loop_.RunUntil(TimePoint::Epoch() + Duration::Seconds(5));
  EXPECT_TRUE(received_.empty());  // parked until t=1000s

  net_.Connect("mobile", "server", LinkProfile::Ethernet10());
  loop_.RunUntil(TimePoint::Epoch() + Duration::Seconds(10));
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_LT(loop_.now().seconds(), 1000.0);
}

TEST_F(SchedulerTest, PeerChangeDoesNotWakeQueueThatNeverParked) {
  // The only link loses every frame, so the queue backs off after its first
  // send without ever parking. A faster link attached during the backoff is
  // a peer change, but only a queue that has parked re-evaluates on one:
  // the retry still waits out the loss backoff.
  LinkProfile lossy = LinkProfile::Ethernet10();
  lossy.bandwidth_bps = 5e6;
  lossy.loss_prob = 1.0;
  SetUpHosts(lossy);
  TimePoint delivered_at;
  mobile_->Send(MakeMessage("server", 50),
                [&](const Status& s) { if (s.ok()) delivered_at = loop_.now(); });
  loop_.RunUntil(TimePoint::Epoch() + Duration::Millis(1));
  ASSERT_EQ(Count(&mobile_metrics_, "scheduler.retries"), 1u);  // loss seen, backing off

  net_.Connect("mobile", "server", LinkProfile::Ethernet10());
  loop_.Run();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_GE(delivered_at - TimePoint::Epoch(), SchedulerOptions().loss_retry_backoff);
}

TEST_F(SchedulerTest, CancelRacingInFlightFrameDeliversOnce) {
  // By the time Cancel arrives the frame is already on the (slow) wire:
  // the cancel must be refused and the delivered callback fire exactly once.
  SetUpHosts(LinkProfile::Cslip144());
  int delivered_calls = 0;
  Status last_status;
  Message msg = MakeMessage("server", 1000);  // ~0.57s of airtime at 14.4k
  msg.header.src = "mobile";
  msg.header.message_id = 77;
  mobile_->scheduler()->Enqueue(std::move(msg), [&](const Status& s) {
    ++delivered_calls;
    last_status = s;
  });
  loop_.RunUntil(TimePoint::Epoch() + Duration::Millis(100));  // mid-transmission
  EXPECT_FALSE(mobile_->scheduler()->CancelMessage("server", 77));
  loop_.Run();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(delivered_calls, 1);
  EXPECT_TRUE(last_status.ok());
  EXPECT_EQ(Count(&mobile_metrics_, "scheduler.messages_delivered"), 1u);
  EXPECT_EQ(Count(&mobile_metrics_, "scheduler.payload_bytes_cancelled"), 0u);
}

TEST_F(SchedulerTest, CancelBeforeTransmissionWithdrawsMessage) {
  // Queued while disconnected: cancel succeeds and nothing is ever sent.
  SetUpHosts(LinkProfile::WaveLan2(),
             std::make_unique<PeriodicConnectivity>(
                 Duration::Seconds(1e6), Duration::Zero(),
                 TimePoint::Epoch() + Duration::Seconds(60)));
  Message msg = MakeMessage("server", 100);
  msg.header.src = "mobile";
  msg.header.message_id = 78;
  mobile_->scheduler()->Enqueue(std::move(msg));
  loop_.RunUntil(TimePoint::Epoch() + Duration::Seconds(5));
  EXPECT_TRUE(mobile_->scheduler()->CancelMessage("server", 78));
  EXPECT_EQ(mobile_->scheduler()->TotalQueueDepth(), 0u);
  loop_.Run();
  EXPECT_TRUE(received_.empty());
  EXPECT_GT(Count(&mobile_metrics_, "scheduler.payload_bytes_cancelled"), 0u);
}

// --- Indexed-scheduler semantics: cancel / supersede-withdraw / rebind /
// shed interleavings. CancelMessage is the primitive the QRPC layer's
// supersede-withdraw uses, so mid-queue removals, shedding around them, and
// rebinding after them must all compose without drifting the index.
TEST(SchedulerIndexTest, CancelRebindShedInterleavings) {
  EventLoop loop;
  Network net(&loop);
  std::vector<IntervalConnectivity::Interval> up = {
      {TimePoint::Epoch() + Duration::Seconds(60),
       TimePoint::Epoch() + Duration::Seconds(1e6)}};
  net.Connect("mobile", "s1", LinkProfile::Ethernet10(),
              std::make_unique<IntervalConnectivity>(up));
  net.Connect("mobile", "s2", LinkProfile::Ethernet10(),
              std::make_unique<IntervalConnectivity>(up));
  SchedulerOptions opts;
  opts.max_queued_messages = 6;
  obs::Registry mobile_metrics;
  TransportManager mobile(&loop, net.FindHost("mobile"), &mobile_metrics, opts);
  obs::Registry s1_metrics;
  TransportManager s1(&loop, net.FindHost("s1"), &s1_metrics);
  obs::Registry s2_metrics;
  TransportManager s2(&loop, net.FindHost("s2"), &s2_metrics);
  std::vector<uint64_t> s1_ids, s2_ids;
  s1.SetHandler(MessageType::kRequest,
                [&](const Message& m) { s1_ids.push_back(m.header.message_id); });
  s2.SetHandler(MessageType::kRequest,
                [&](const Message& m) { s2_ids.push_back(m.header.message_id); });
  NetworkScheduler* sched = mobile.scheduler();

  auto enqueue = [&](const std::string& dst, uint64_t id, Priority prio) {
    Message m = MakeMessage(dst, 32, prio);
    m.header.src = "mobile";
    m.header.message_id = id;
    sched->Enqueue(std::move(m));
  };
  enqueue("s1", 1, Priority::kDefault);
  enqueue("s1", 2, Priority::kDefault);
  enqueue("s1", 3, Priority::kDefault);
  enqueue("s1", 4, Priority::kDefault);
  enqueue("s2", 5, Priority::kBackground);
  enqueue("s2", 6, Priority::kBackground);
  ASSERT_EQ(sched->TotalQueueDepth(), 6u);

  // Over-budget default enqueue sheds the NEWEST background (id 6).
  enqueue("s2", 7, Priority::kDefault);
  EXPECT_EQ(Count(&mobile_metrics, "scheduler.messages_shed"), 1u);
  EXPECT_EQ(sched->QueueDepthFor("s2"), 2u);

  // Mid-queue withdraw (the supersede path): erases entry 2 in place.
  EXPECT_TRUE(sched->CancelMessage("s1", 2));
  EXPECT_FALSE(sched->CancelMessage("s1", 2));  // already gone
  EXPECT_EQ(sched->QueueDepthFor("s1"), 3u);

  // Rebind everything still queued for s1 over to s2, order preserved.
  const std::vector<uint64_t> moved = sched->RebindDestination("s1", "s2");
  EXPECT_EQ(moved, (std::vector<uint64_t>{1, 3, 4}));
  EXPECT_EQ(sched->QueueDepthFor("s1"), 0u);
  EXPECT_EQ(sched->QueueDepthFor("s2"), 5u);

  // The index must have moved with the messages: cancellable at s2, not s1.
  EXPECT_FALSE(sched->CancelMessage("s1", 3));
  EXPECT_TRUE(sched->CancelMessage("s2", 3));

  const SchedulerQueueAudit audit = sched->AuditQueues();
  EXPECT_TRUE(audit.per_dest_consistent);
  EXPECT_EQ(audit.messages, sched->TotalQueueDepth());
  EXPECT_EQ(audit.payload_bytes, sched->QueuedPayloadBytes());

  loop.Run();
  EXPECT_TRUE(s1_ids.empty());
  // Priority order within s2: defaults in arrival order (7 was enqueued
  // before the rebind appended 1 and 4), then background 5.
  EXPECT_EQ(s2_ids, (std::vector<uint64_t>{7, 1, 4, 5}));
  EXPECT_EQ(sched->TotalQueueDepth(), 0u);
  EXPECT_TRUE(sched->AuditQueues().per_dest_consistent);
}

// Property test: after a long random interleaving of enqueue / cancel /
// rebind against disconnected destinations, the per-destination indexes and
// the incremental counters must agree exactly with a model kept on the side
// -- and with 10k messages queued the whole run must stay fast (nothing in
// the cancel/rebind path may scan queues).
TEST(SchedulerIndexTest, SeededRandomOpsKeepIndexAndCountsConsistent) {
  const auto wall_start = std::chrono::steady_clock::now();
  EventLoop loop;
  Network net(&loop);
  const std::vector<std::string> dests = {"d0", "d1", "d2", "d3", "d4"};
  for (const std::string& d : dests) {
    net.Connect("mobile", d, LinkProfile::WaveLan2(),
                std::make_unique<PeriodicConnectivity>(
                    Duration::Seconds(1e6), Duration::Zero(),
                    TimePoint::Epoch() + Duration::Seconds(1e6)));
  }
  obs::Registry mobile_metrics;
  TransportManager mobile(&loop, net.FindHost("mobile"), &mobile_metrics);
  NetworkScheduler* sched = mobile.scheduler();

  Rng rng(20260808);
  std::map<std::string, std::set<uint64_t>> model;
  uint64_t next_id = 1;
  const size_t kTarget = 10000;
  size_t cancels = 0, rebinds = 0;
  size_t queued = 0;
  while (queued < kTarget) {
    const uint64_t roll = rng.NextBelow(100);
    if (roll < 80 || queued < 10) {
      const std::string& d = dests[rng.NextBelow(dests.size())];
      Message m = MakeMessage(d, 1 + rng.NextBelow(64),
                              static_cast<Priority>(rng.NextBelow(3)));
      m.header.src = "mobile";
      m.header.message_id = next_id;
      sched->Enqueue(std::move(m));
      model[d].insert(next_id);
      ++next_id;
      ++queued;
    } else if (roll < 95) {
      // Cancel a random live message.
      const std::string& d = dests[rng.NextBelow(dests.size())];
      auto& ids = model[d];
      if (!ids.empty()) {
        auto it = ids.begin();
        std::advance(it, rng.NextBelow(ids.size()));
        ASSERT_TRUE(sched->CancelMessage(d, *it));
        ids.erase(it);
        --queued;
        ++cancels;
      }
    } else {
      const std::string& from = dests[rng.NextBelow(dests.size())];
      const std::string& to = dests[rng.NextBelow(dests.size())];
      if (from == to) {
        continue;
      }
      const std::vector<uint64_t> moved = sched->RebindDestination(from, to);
      EXPECT_EQ(moved.size(), model[from].size());
      model[to].insert(model[from].begin(), model[from].end());
      model[from].clear();
      ++rebinds;
    }
    if ((next_id & 0x3ff) == 0) {
      ASSERT_TRUE(sched->AuditQueues().per_dest_consistent);
    }
  }
  ASSERT_GT(cancels, 100u);
  ASSERT_GT(rebinds, 10u);

  size_t model_total = 0;
  for (const std::string& d : dests) {
    EXPECT_EQ(sched->QueueDepthFor(d), model[d].size()) << d;
    model_total += model[d].size();
  }
  EXPECT_EQ(sched->TotalQueueDepth(), model_total);
  const SchedulerQueueAudit audit = sched->AuditQueues();
  EXPECT_TRUE(audit.per_dest_consistent);
  EXPECT_EQ(audit.messages, model_total);
  EXPECT_EQ(audit.payload_bytes, sched->QueuedPayloadBytes());

  // Every surviving id is still individually cancellable (index intact).
  for (const std::string& d : dests) {
    for (uint64_t id : model[d]) {
      ASSERT_TRUE(sched->CancelMessage(d, id));
    }
  }
  EXPECT_EQ(sched->TotalQueueDepth(), 0u);
  EXPECT_TRUE(sched->AuditQueues().per_dest_consistent);

  const auto elapsed = std::chrono::steady_clock::now() - wall_start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(), 20)
      << "index ops degraded to queue scans";
}

// One mobile host with a single link to "server", for the remaining ways
// out of a queue: TTL purge, TTL drop at the head, cancel after a lossy
// requeue, and an id collision. Every delivered callback is logged.
struct QueueExitBed {
  explicit QueueExitBed(LinkProfile profile,
                        std::unique_ptr<ConnectivitySchedule> schedule = nullptr)
      : net(&loop) {
    net.Connect("mobile", "server", std::move(profile), std::move(schedule));
    mobile = std::make_unique<TransportManager>(&loop, net.FindHost("mobile"), &metrics);
    server = std::make_unique<TransportManager>(&loop, net.FindHost("server"), &server_metrics);
    server->SetHandler(MessageType::kRequest,
                       [this](const Message& m) { received.push_back(m); });
  }

  void Enqueue(uint64_t id, size_t bytes, Priority prio = Priority::kDefault,
               Duration ttl = Duration::Zero()) {
    Message m = MakeMessage("server", bytes, prio);
    m.header.src = "mobile";
    m.header.message_id = id;
    scheduler()->Enqueue(
        std::move(m), [this, id](const Status& s) { outcomes.emplace_back(id, s.code()); },
        ttl);
  }

  // The structural recount agrees with the incremental counters.
  void ExpectConsistent(const char* step) {
    SCOPED_TRACE(step);
    const SchedulerQueueAudit audit = scheduler()->AuditQueues();
    EXPECT_TRUE(audit.per_dest_consistent);
    EXPECT_EQ(audit.messages, scheduler()->TotalQueueDepth());
    EXPECT_EQ(audit.payload_bytes, scheduler()->QueuedPayloadBytes());
  }

  NetworkScheduler* scheduler() { return mobile->scheduler(); }

  EventLoop loop;
  Network net;
  obs::Registry metrics;
  obs::Registry server_metrics;
  std::unique_ptr<TransportManager> mobile;
  std::unique_ptr<TransportManager> server;
  std::vector<Message> received;
  std::vector<std::pair<uint64_t, StatusCode>> outcomes;
};

std::unique_ptr<ConnectivitySchedule> UpFrom(double seconds) {
  return std::make_unique<PeriodicConnectivity>(Duration::Seconds(1e6), Duration::Zero(),
                                                TimePoint::Epoch() + Duration::Seconds(seconds));
}

TEST(SchedulerIndexTest, TtlPurgeOfMidQueueEntry) {
  QueueExitBed bed(LinkProfile::WaveLan2(), UpFrom(60));
  bed.Enqueue(1, 10);
  bed.Enqueue(2, 20, Priority::kDefault, /*ttl=*/Duration::Seconds(10));
  bed.Enqueue(3, 30);
  bed.ExpectConsistent("three queued");

  // The purge event at t=10s takes entry 2 out from between 1 and 3.
  bed.loop.RunUntil(TimePoint::Epoch() + Duration::Seconds(30));
  ASSERT_EQ(bed.outcomes.size(), 1u);
  EXPECT_EQ(bed.outcomes[0], std::make_pair(uint64_t{2}, StatusCode::kDeadlineExceeded));
  EXPECT_EQ(bed.scheduler()->TotalQueueDepth(), 2u);
  EXPECT_EQ(bed.scheduler()->QueuedPayloadBytes(), 40u);
  EXPECT_FALSE(bed.scheduler()->CancelMessage("server", 2));
  bed.ExpectConsistent("mid-queue purge");

  bed.loop.Run();
  ASSERT_EQ(bed.received.size(), 2u);
  EXPECT_EQ(bed.received[0].header.message_id, 1u);
  EXPECT_EQ(bed.received[1].header.message_id, 3u);
  EXPECT_EQ(Count(&bed.metrics, "scheduler.messages_expired"), 1u);
  bed.ExpectConsistent("drained");
}

TEST(SchedulerIndexTest, TtlExpiredHeadDroppedWhenLinkComesUp) {
  QueueExitBed bed(LinkProfile::WaveLan2(), UpFrom(60));
  std::vector<size_t> depths;
  bed.scheduler()->SetQueueObserver([&](size_t d) { depths.push_back(d); });
  // Entry 1 parks the queue and arms the up-wakeup for t=60s; entry 2's TTL
  // purge is scheduled later for the same instant, so the wakeup runs first
  // and finds entry 2 expired at the head of its priority queue.
  bed.Enqueue(1, 10, Priority::kBackground);
  bed.Enqueue(2, 20, Priority::kDefault, /*ttl=*/Duration::Seconds(60));
  bed.ExpectConsistent("two queued");

  bed.loop.RunUntil(TimePoint::Epoch() + Duration::Seconds(60));
  ASSERT_GE(bed.outcomes.size(), 1u);
  EXPECT_EQ(bed.outcomes[0], std::make_pair(uint64_t{2}, StatusCode::kDeadlineExceeded));
  EXPECT_FALSE(bed.scheduler()->CancelMessage("server", 2));
  bed.ExpectConsistent("head drop");

  bed.loop.Run();
  ASSERT_EQ(bed.received.size(), 1u);
  EXPECT_EQ(bed.received[0].header.message_id, 1u);
  EXPECT_EQ(Count(&bed.metrics, "scheduler.messages_expired"), 1u);
  // The drop and entry 1's pull happened in one pass: the queue went from
  // two straight to empty, never through a purge's depth of one.
  EXPECT_EQ(depths, (std::vector<size_t>{1, 2, 0, 0}));
  bed.ExpectConsistent("drained");
}

TEST(SchedulerIndexTest, CancelDuringLossBackoffAfterRequeue) {
  LinkProfile lossy = LinkProfile::WaveLan2();
  lossy.loss_prob = 1.0;  // every frame is lost
  QueueExitBed bed(lossy);
  bed.Enqueue(1, 10);  // goes out at once, alone in its frame
  bed.Enqueue(2, 20);  // waits behind the in-flight frame
  bed.ExpectConsistent("one in flight");

  // The loss is reported a round trip later; entry 1 is requeued at the
  // front and the retry waits out at least the 200 ms base backoff.
  bed.loop.RunUntil(TimePoint::Epoch() + Duration::Millis(100));
  EXPECT_EQ(Count(&bed.metrics, "scheduler.frames_sent"), 1u);
  EXPECT_EQ(Count(&bed.metrics, "scheduler.retries"), 1u);
  EXPECT_EQ(bed.scheduler()->TotalQueueDepth(), 2u);
  EXPECT_EQ(bed.scheduler()->QueuedPayloadBytes(), 30u);
  bed.ExpectConsistent("requeued");

  EXPECT_TRUE(bed.scheduler()->CancelMessage("server", 1));
  ASSERT_EQ(bed.outcomes.size(), 1u);
  EXPECT_EQ(bed.outcomes[0], std::make_pair(uint64_t{1}, StatusCode::kCancelled));
  EXPECT_EQ(bed.scheduler()->TotalQueueDepth(), 1u);
  EXPECT_EQ(bed.scheduler()->QueuedPayloadBytes(), 20u);
  bed.ExpectConsistent("cancelled in backoff");

  // Retries carry entry 2 alone and keep losing it; entry 1 never reappears.
  bed.loop.RunUntil(TimePoint::Epoch() + Duration::Seconds(5));
  EXPECT_GT(Count(&bed.metrics, "scheduler.retries"), 1u);
  EXPECT_EQ(bed.outcomes.size(), 1u);
  EXPECT_FALSE(bed.scheduler()->CancelMessage("server", 1));
  EXPECT_TRUE(bed.received.empty());
  bed.ExpectConsistent("retrying");
}

TEST(SchedulerIndexTest, DuplicateIdFirstCancelsSecondStillDelivered) {
  QueueExitBed bed(LinkProfile::WaveLan2(), UpFrom(60));
  bed.Enqueue(9, 10);
  bed.Enqueue(9, 20);  // same id: queued and deliverable, but not indexed
  bed.ExpectConsistent("both queued");

  EXPECT_TRUE(bed.scheduler()->CancelMessage("server", 9));
  ASSERT_EQ(bed.outcomes.size(), 1u);
  EXPECT_EQ(bed.outcomes[0].second, StatusCode::kCancelled);
  EXPECT_EQ(bed.scheduler()->TotalQueueDepth(), 1u);
  EXPECT_EQ(bed.scheduler()->QueuedPayloadBytes(), 20u);
  bed.ExpectConsistent("first cancelled");

  EXPECT_FALSE(bed.scheduler()->CancelMessage("server", 9));
  EXPECT_EQ(bed.scheduler()->TotalQueueDepth(), 1u);
  bed.ExpectConsistent("second not cancellable");

  bed.loop.Run();
  ASSERT_EQ(bed.received.size(), 1u);
  EXPECT_EQ(bed.received[0].header.message_id, 9u);
  EXPECT_EQ(bed.received[0].payload.size(), 20u);
  ASSERT_EQ(bed.outcomes.size(), 2u);
  EXPECT_EQ(bed.outcomes[1], std::make_pair(uint64_t{9}, StatusCode::kOk));
  bed.ExpectConsistent("delivered");
}

TEST(SchedulerIndexTest, TakingUnindexedTwinKeepsIndexedOneCancellable) {
  QueueExitBed bed(LinkProfile::WaveLan2(), UpFrom(60));
  bed.Enqueue(9, 10, Priority::kBackground);  // indexed
  bed.Enqueue(9, 20, Priority::kDefault);     // same id: not indexed
  bed.ExpectConsistent("both queued");

  // At link-up the default-priority twin leaves first, alone in its frame.
  // Taking it must leave the index slot of the background one in place.
  bed.loop.RunUntil(TimePoint::Epoch() + Duration::Seconds(60));
  EXPECT_EQ(Count(&bed.metrics, "scheduler.frames_sent"), 1u);
  EXPECT_EQ(bed.scheduler()->TotalQueueDepth(), 1u);
  bed.ExpectConsistent("twin in flight");
  EXPECT_TRUE(bed.scheduler()->CancelMessage("server", 9));
  ASSERT_EQ(bed.outcomes.size(), 1u);
  EXPECT_EQ(bed.outcomes[0], std::make_pair(uint64_t{9}, StatusCode::kCancelled));
  bed.ExpectConsistent("indexed one cancelled");

  bed.loop.Run();
  ASSERT_EQ(bed.received.size(), 1u);
  EXPECT_EQ(bed.received[0].payload.size(), 20u);
  bed.ExpectConsistent("drained");
}

TEST(SmtpTest, RelayStoresAndForwards) {
  EventLoop loop;
  Network net(&loop);
  // Mobile and server are never directly connected; both reach the relay,
  // but at disjoint times.
  net.Connect("mobile", "relay", LinkProfile::WaveLan2(),
              std::make_unique<IntervalConnectivity>(
                  std::vector<IntervalConnectivity::Interval>{
                      {TimePoint::Epoch(), TimePoint::Epoch() + Duration::Seconds(10)}}));
  net.Connect("relay", "server", LinkProfile::Ethernet10(),
              std::make_unique<PeriodicConnectivity>(
                  Duration::Seconds(1e6), Duration::Zero(),
                  TimePoint::Epoch() + Duration::Seconds(30)));

  obs::Registry mobile_metrics;
  TransportManager mobile(&loop, net.FindHost("mobile"), &mobile_metrics);
  obs::Registry relay_metrics;
  TransportManager relay_tm(&loop, net.FindHost("relay"), &relay_metrics);
  obs::Registry server_metrics;
  TransportManager server(&loop, net.FindHost("server"), &server_metrics);
  SmtpRelay relay(&loop, &relay_tm);

  std::vector<Message> received;
  server.SetHandler(MessageType::kRequest,
                    [&](const Message& msg) { received.push_back(msg); });

  bool accepted = false;
  Message msg = MakeMessage("server", 64);
  mobile.SendViaRelay("relay", std::move(msg), [&](const Status& s) { accepted = s.ok(); });

  // Mobile disconnects at t=10s; the server link only opens at t=30s.
  loop.RunUntil(TimePoint::Epoch() + Duration::Seconds(20));
  EXPECT_TRUE(accepted);  // relay took custody while mobile was up
  EXPECT_TRUE(received.empty());
  loop.Run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].header.src, "mobile");  // relay is transparent
  EXPECT_EQ(relay.stats().envelopes_accepted, 1u);
  EXPECT_EQ(relay.stats().envelopes_forwarded, 1u);
}

TEST(SmtpTest, MalformedEnvelopeCounted) {
  EventLoop loop;
  Network net(&loop);
  net.Connect("a", "relay", LinkProfile::Ethernet10());
  obs::Registry a_metrics;
  TransportManager a(&loop, net.FindHost("a"), &a_metrics);
  obs::Registry relay_metrics;
  TransportManager relay_tm(&loop, net.FindHost("relay"), &relay_metrics);
  SmtpRelay relay(&loop, &relay_tm);

  Message bogus;
  bogus.header.type = MessageType::kControl;
  bogus.header.dst = "relay";
  bogus.payload = Bytes{9, 9, 9};
  a.Send(std::move(bogus));
  loop.Run();
  EXPECT_EQ(relay.stats().envelopes_malformed, 1u);
  EXPECT_EQ(relay.stats().envelopes_accepted, 0u);
}

TEST(TransportTest, EnvelopeRoundTrip) {
  Message inner = MakeMessage("server", 33);
  inner.header.src = "mobile";
  inner.header.message_id = 5;
  auto decoded = TransportManager::DecodeEnvelope(TransportManager::EncodeEnvelope(inner));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->header.src, "mobile");
  EXPECT_EQ(decoded->header.dst, "server");
  EXPECT_EQ(decoded->payload.size(), 33u);
}

TEST(SchedulerScaleTest, LinkLookupWorkPerSendIsFlatInAttachedLinks) {
  // The fan-in pathology: a server host with one link per client used to
  // re-scan ALL of them on every send (PickLink). With the peer index the
  // scan work per send must be identical at 16 and 4096 attached peers.
  auto scans_per_send = [](int peers) -> uint64_t {
    EventLoop loop;
    Network net(&loop);
    for (int i = 0; i < peers; ++i) {
      net.Connect("server", "c" + std::to_string(i), LinkProfile::Ethernet10());
    }
    obs::Registry server_metrics;
    TransportManager server(&loop, net.FindHost("server"), &server_metrics);
    constexpr uint64_t kSends = 64;
    ResetHostLinkScanSteps();
    for (uint64_t i = 0; i < kSends; ++i) {
      Message m = MakeMessage("c0", 32);
      m.header.src = "server";
      m.header.message_id = i + 1;
      server.scheduler()->Enqueue(std::move(m));
      loop.Run();
    }
    EXPECT_EQ(Count(&server_metrics, "scheduler.messages_delivered"), kSends);
    return HostLinkScanSteps() / kSends;
  };
  const uint64_t small = scans_per_send(16);
  const uint64_t large = scans_per_send(4096);
  EXPECT_EQ(small, large);
}

TEST(SchedulerScaleTest, ParkedQueueWakesViaPeerObserverOnLateAttach) {
  // No link at all at enqueue time: the queue parks, and the host's
  // peer-change upcall for a link attached later -- with no global
  // link-change listener in the picture -- triggers delivery.
  EventLoop loop;
  Network net(&loop);
  Host* mobile = net.AddHost("mobile");
  obs::Registry transport_metrics;
  TransportManager transport(&loop, mobile, &transport_metrics);
  TransportManager* server = nullptr;

  Status delivered = InternalError("pending");
  Message m = MakeMessage("server", 16);
  m.header.src = "mobile";
  m.header.message_id = 1;
  transport.scheduler()->Enqueue(std::move(m),
                                 [&](const Status& s) { delivered = s; });
  loop.Run();
  EXPECT_FALSE(delivered.ok());  // parked: nothing to send over

  net.Connect("mobile", "server", LinkProfile::Ethernet10());
  obs::Registry server_transport_metrics;
  TransportManager server_transport(&loop, net.FindHost("server"), &server_transport_metrics);
  server = &server_transport;
  (void)server;
  loop.Run();
  EXPECT_TRUE(delivered.ok());
}

}  // namespace
}  // namespace rover

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/qrpc/marshal.h"
#include "src/qrpc/promise.h"
#include "src/qrpc/qrpc.h"
#include "src/qrpc/stable_log.h"
#include "src/sim/network.h"
#include "src/transport/smtp.h"
#include "src/util/rng.h"
#include "tests/test_metrics.h"

namespace rover {
namespace {

TEST(PromiseTest, SetAndCallbacks) {
  Promise<int> p;
  EXPECT_FALSE(p.ready());
  int seen = 0;
  p.OnReady([&](const int& v) { seen = v; });
  p.Set(42);
  EXPECT_TRUE(p.ready());
  EXPECT_EQ(p.value(), 42);
  EXPECT_EQ(seen, 42);
  // Late callback fires immediately.
  int late = 0;
  p.OnReady([&](const int& v) { late = v; });
  EXPECT_EQ(late, 42);
}

TEST(PromiseTest, CopiesShareState) {
  Promise<std::string> a;
  Promise<std::string> b = a;
  a.Set("hello");
  EXPECT_TRUE(b.ready());
  EXPECT_EQ(b.value(), "hello");
}

TEST(PromiseTest, WaitDrivesLoop) {
  EventLoop loop;
  Promise<int> p;
  loop.ScheduleAfter(Duration::Seconds(5), [&] { p.Set(7); });
  EXPECT_TRUE(p.Wait(&loop));
  EXPECT_EQ(p.value(), 7);
  EXPECT_EQ(loop.now().seconds(), 5.0);
}

TEST(PromiseTest, WaitReturnsFalseIfLoopRunsDry) {
  EventLoop loop;
  Promise<int> p;
  EXPECT_FALSE(p.Wait(&loop));
}

TEST(MarshalTest, RpcValueRoundTrip) {
  WireWriter w;
  EncodeRpcValue(int64_t{-42}, &w);
  EncodeRpcValue(2.718, &w);
  EncodeRpcValue(std::string("rover"), &w);
  EncodeRpcValue(Bytes{9, 8, 7}, &w);
  WireReader r(w.data());
  EXPECT_EQ(*RpcValueAsInt(*DecodeRpcValue(&r)), -42);
  EXPECT_DOUBLE_EQ(*RpcValueAsDouble(*DecodeRpcValue(&r)), 2.718);
  EXPECT_EQ(*RpcValueAsString(*DecodeRpcValue(&r)), "rover");
  EXPECT_EQ(*RpcValueAsBytes(*DecodeRpcValue(&r)), (Bytes{9, 8, 7}));
}

TEST(MarshalTest, TypeMismatchErrors) {
  RpcValue v = std::string("text");
  EXPECT_FALSE(RpcValueAsInt(v).ok());
  EXPECT_FALSE(RpcValueAsBytes(v).ok());
  // Int coerces to double but not vice versa.
  EXPECT_TRUE(RpcValueAsDouble(RpcValue(int64_t{3})).ok());
  EXPECT_FALSE(RpcValueAsInt(RpcValue(3.0)).ok());
}

TEST(MarshalTest, RequestBodyRoundTrip) {
  RpcRequestBody body;
  body.method = "calendar.book";
  body.args = {int64_t{5}, std::string("room 5"), 1.5};
  auto decoded = RpcRequestBody::Decode(body.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->method, "calendar.book");
  ASSERT_EQ(decoded->args.size(), 3u);
  EXPECT_EQ(std::get<int64_t>(decoded->args[0]), 5);
}

TEST(MarshalTest, ResponseBodyRoundTrip) {
  RpcResponseBody body;
  body.code = StatusCode::kConflict;
  body.error_message = "slot taken";
  body.result = std::string("partial");
  auto decoded = RpcResponseBody::Decode(body.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->code, StatusCode::kConflict);
  EXPECT_EQ(decoded->ToStatus().message(), "slot taken");
}

class StableLogTest : public ::testing::Test {
 protected:
  EventLoop loop_;
};

TEST_F(StableLogTest, AppendFlushTruncate) {
  obs::Registry metrics;
  StableLog log(&loop_, &metrics);
  const uint64_t id1 = log.Append(Bytes{1});
  const uint64_t id2 = log.Append(Bytes{2});
  EXPECT_FALSE(log.FullyDurable());
  bool flushed = false;
  log.Flush([&](const Status&) { flushed = true; });
  loop_.Run();
  EXPECT_TRUE(flushed);
  EXPECT_TRUE(log.FullyDurable());
  EXPECT_EQ(log.DurableRecords().size(), 2u);
  log.Truncate(id1);
  EXPECT_EQ(log.RecordCount(), 1u);
  EXPECT_EQ(log.FrontRecordId(), id2);
}

TEST_F(StableLogTest, FlushCostModelCharged) {
  StableLogCostModel model;
  model.flush_base = Duration::Millis(10);
  model.write_bytes_per_sec = 1e6;
  obs::Registry metrics;
  StableLog log(&loop_, &metrics);
  obs::Registry paid_metrics;
  StableLog paid(&loop_, &paid_metrics, model);
  paid.Append(Bytes(10000, 1));
  TimePoint done;
  paid.Flush([&](const Status&) { done = loop_.now(); });
  loop_.Run();
  // 10ms base + ~10KB/1MBps = ~10ms.
  EXPECT_NEAR(done.seconds(), 0.020, 0.001);
}

TEST_F(StableLogTest, CrashDropsVolatileRecords) {
  obs::Registry metrics;
  StableLog log(&loop_, &metrics);
  log.Append(Bytes{1});
  log.Flush(nullptr);
  loop_.Run();
  log.Append(Bytes{2});  // never flushed
  log.SimulateCrash();
  EXPECT_EQ(log.Recover(), 1u);
  ASSERT_EQ(log.DurableRecords().size(), 1u);
  EXPECT_EQ(log.DurableRecords()[0].data, Bytes{1});
}

TEST_F(StableLogTest, TornWriteDetectedByCrc) {
  obs::Registry metrics;
  StableLog log(&loop_, &metrics);
  log.Append(Bytes{1, 2, 3});
  log.Append(Bytes{4, 5, 6});
  log.Flush(nullptr);
  loop_.Run();
  log.SimulateCrash(/*tear_last_record=*/true);
  EXPECT_EQ(log.Recover(), 1u);  // torn record dropped
  EXPECT_EQ(log.DurableRecords()[0].data, (Bytes{1, 2, 3}));
}

TEST_F(StableLogTest, SerialFlushesQueue) {
  StableLogCostModel model;
  model.flush_base = Duration::Millis(5);
  obs::Registry metrics;
  StableLog log(&loop_, &metrics, model);
  std::vector<double> completions;
  log.Append(Bytes(100, 1));
  log.Flush([&](const Status&) { completions.push_back(loop_.now().seconds()); });
  log.Append(Bytes(100, 2));
  log.Flush([&](const Status&) { completions.push_back(loop_.now().seconds()); });
  loop_.Run();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_GT(completions[1], completions[0]);
}

// --- end-to-end QRPC fixture ---

class QrpcTest : public ::testing::Test {
 protected:
  QrpcTest() : net_(&loop_) {}

  void Wire(LinkProfile profile, std::unique_ptr<ConnectivitySchedule> schedule = nullptr) {
    net_.Connect("mobile", "server", std::move(profile), std::move(schedule));
    client_tm_ =
        std::make_unique<TransportManager>(&loop_, net_.FindHost("mobile"), &client_metrics_);
    server_tm_ =
        std::make_unique<TransportManager>(&loop_, net_.FindHost("server"), &server_metrics_);
    log_ = std::make_unique<StableLog>(&loop_, &client_metrics_);
    client_ = std::make_unique<QrpcClient>(&loop_, client_tm_.get(), log_.get(),
                                           &client_metrics_);
    server_ = std::make_unique<QrpcServer>(&loop_, server_tm_.get(), &server_metrics_);
    server_->RegisterHandler(
        "echo", [](const RpcRequestBody& req, const Message&, QrpcServer::Responder respond) {
          RpcResponseBody body;
          body.result = req.args.empty() ? RpcValue(std::string("")) : req.args[0];
          respond(body);
        });
    server_->RegisterHandler(
        "count", [this](const RpcRequestBody&, const Message&, QrpcServer::Responder respond) {
          ++executions_;
          RpcResponseBody body;
          body.result = int64_t{executions_};
          respond(body);
        });
  }

  EventLoop loop_;
  Network net_;
  // One registry per host, as on a toolkit node; a rebuilt client counts on.
  obs::Registry client_metrics_;
  obs::Registry server_metrics_;
  std::unique_ptr<TransportManager> client_tm_;
  std::unique_ptr<TransportManager> server_tm_;
  std::unique_ptr<StableLog> log_;
  std::unique_ptr<QrpcClient> client_;
  std::unique_ptr<QrpcServer> server_;
  int64_t executions_ = 0;
};

TEST_F(QrpcTest, EchoRoundTrip) {
  Wire(LinkProfile::Ethernet10());
  QrpcCall call = client_->Call("server", "echo", {std::string("hello")});
  ASSERT_TRUE(call.result.Wait(&loop_));
  EXPECT_TRUE(call.result.value().status.ok());
  EXPECT_EQ(std::get<std::string>(call.result.value().value), "hello");
  EXPECT_TRUE(call.committed.ready());
  EXPECT_LE(call.committed.value(), call.result.value().completed_at);
}

TEST_F(QrpcTest, CommitPrecedesTransmission) {
  Wire(LinkProfile::Ethernet10());
  QrpcCall call = client_->Call("server", "echo", {std::string("x")});
  ASSERT_TRUE(call.committed.Wait(&loop_));
  // Commit time includes at least the log flush base cost (8ms default).
  EXPECT_GE(call.committed.value().seconds(), 0.008);
}

TEST_F(QrpcTest, UnloggedCallSkipsFlush) {
  Wire(LinkProfile::Ethernet10());
  QrpcCallOptions opts;
  opts.log_request = false;
  QrpcCall call = client_->Call("server", "echo", {std::string("x")}, opts);
  ASSERT_TRUE(call.committed.Wait(&loop_));
  EXPECT_LT(call.committed.value().seconds(), 0.001);
  ASSERT_TRUE(call.result.Wait(&loop_));
  EXPECT_EQ(log_->RecordCount(), 0u);
}

TEST_F(QrpcTest, NonBlockingWhileDisconnected) {
  // Link comes up at t=120s.
  Wire(LinkProfile::Cslip144(),
       std::make_unique<PeriodicConnectivity>(Duration::Seconds(1e6), Duration::Zero(),
                                              TimePoint::Epoch() + Duration::Seconds(120)));
  QrpcCall call = client_->Call("server", "echo", {std::string("queued")});
  // The call commits locally long before any connectivity.
  ASSERT_TRUE(call.committed.Wait(&loop_));
  EXPECT_LT(call.committed.value().seconds(), 1.0);
  EXPECT_FALSE(call.result.ready());
  EXPECT_EQ(client_->PendingCount(), 1u);
  ASSERT_TRUE(call.result.Wait(&loop_));
  EXPECT_GT(call.result.value().completed_at.seconds(), 120.0);
  EXPECT_TRUE(call.result.value().status.ok());
}

TEST_F(QrpcTest, ManyCallsPreserveOrderAndAllComplete) {
  Wire(LinkProfile::Cslip144());
  std::vector<QrpcCall> calls;
  for (int i = 0; i < 20; ++i) {
    calls.push_back(client_->Call("server", "echo", {int64_t{i}}));
  }
  loop_.Run();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(calls[static_cast<size_t>(i)].result.ready());
    EXPECT_EQ(std::get<int64_t>(calls[static_cast<size_t>(i)].result.value().value), i);
  }
  EXPECT_EQ(client_->PendingCount(), 0u);
}

TEST_F(QrpcTest, LogTruncatedAfterResponses) {
  Wire(LinkProfile::Ethernet10());
  for (int i = 0; i < 5; ++i) {
    client_->Call("server", "echo", {int64_t{i}});
  }
  loop_.Run();
  EXPECT_EQ(log_->RecordCount(), 0u);  // all answered and truncated
}

TEST_F(QrpcTest, UnknownMethodReturnsUnimplemented) {
  Wire(LinkProfile::Ethernet10());
  QrpcCall call = client_->Call("server", "no.such.method", {});
  ASSERT_TRUE(call.result.Wait(&loop_));
  EXPECT_EQ(call.result.value().status.code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Count(&server_metrics_, "qrpc_server.unknown_methods"), 1u);
}

TEST_F(QrpcTest, AtMostOnceUnderDuplicateDelivery) {
  Wire(LinkProfile::Ethernet10());
  QrpcCall call = client_->Call("server", "count", {});
  ASSERT_TRUE(call.result.Wait(&loop_));
  EXPECT_EQ(executions_, 1);

  // Simulate a retransmitted request (client crash-recovery resend): a
  // fresh message with the same rpc id from the same host.
  Message dup;
  dup.header.message_id = call.rpc_id;
  dup.header.type = MessageType::kRequest;
  dup.header.dst = "server";
  RpcRequestBody body;
  body.method = "count";
  dup.payload = body.Encode();
  client_tm_->Send(std::move(dup));
  loop_.Run();
  EXPECT_EQ(executions_, 1);  // not re-executed
  EXPECT_EQ(Count(&server_metrics_, "qrpc_server.duplicates"), 1u);
}

TEST_F(QrpcTest, CrashRecoveryResendsUnansweredRequests) {
  // Disconnected until t=500s: requests commit to the log but get no
  // response before the crash.
  Wire(LinkProfile::WaveLan2(),
       std::make_unique<PeriodicConnectivity>(Duration::Seconds(1e6), Duration::Zero(),
                                              TimePoint::Epoch() + Duration::Seconds(500)));
  client_->Call("server", "count", {});
  client_->Call("server", "count", {});
  loop_.RunUntil(TimePoint::Epoch() + Duration::Seconds(10));
  EXPECT_EQ(log_->RecordCount(), 2u);

  // Crash the client host: rebuild transport + engine over the recovered log.
  log_->SimulateCrash();
  ASSERT_EQ(log_->Recover(), 2u);
  client_tm_ =
      std::make_unique<TransportManager>(&loop_, net_.FindHost("mobile"), &client_metrics_);
  client_ =
      std::make_unique<QrpcClient>(&loop_, client_tm_.get(), log_.get(), &client_metrics_);
  EXPECT_EQ(client_->RecoverFromLog(), 2u);
  loop_.Run();
  EXPECT_EQ(executions_, 2);  // both executed exactly once
  EXPECT_EQ(client_->PendingCount(), 0u);
  EXPECT_EQ(log_->RecordCount(), 0u);
}

TEST_F(QrpcTest, RecoveryAfterPartialResponsesOnlyResendsUnanswered) {
  Wire(LinkProfile::Ethernet10());
  QrpcCall done = client_->Call("server", "count", {});
  ASSERT_TRUE(done.result.Wait(&loop_));
  EXPECT_EQ(executions_, 1);

  // Second call committed but the link dies before transmission completes:
  // emulate by tearing the network down via a fresh disconnected topology.
  // Simplest deterministic variant: crash right after commit.
  QrpcCall pending = client_->Call("server", "count", {});
  ASSERT_TRUE(pending.committed.Wait(&loop_));
  log_->SimulateCrash();
  log_->Recover();
  client_tm_ =
      std::make_unique<TransportManager>(&loop_, net_.FindHost("mobile"), &client_metrics_);
  client_ =
      std::make_unique<QrpcClient>(&loop_, client_tm_.get(), log_.get(), &client_metrics_);
  const size_t resent = client_->RecoverFromLog();
  EXPECT_EQ(resent, 1u);
  loop_.Run();
  EXPECT_EQ(executions_, 2);  // duplicate suppression would keep it at 2 anyway
}

TEST_F(QrpcTest, PriorityReachesWire) {
  Wire(LinkProfile::Cslip144(),
       std::make_unique<PeriodicConnectivity>(Duration::Seconds(1e6), Duration::Zero(),
                                              TimePoint::Epoch() + Duration::Seconds(30)));
  QrpcCallOptions bg;
  bg.priority = Priority::kBackground;
  QrpcCallOptions fg;
  fg.priority = Priority::kForeground;
  QrpcCall slow = client_->Call("server", "count", {}, bg);
  QrpcCall fast = client_->Call("server", "count", {}, fg);
  loop_.Run();
  ASSERT_TRUE(slow.result.ready());
  ASSERT_TRUE(fast.result.ready());
  // Foreground was issued second but executes first.
  EXPECT_EQ(std::get<int64_t>(fast.result.value().value), 1);
  EXPECT_EQ(std::get<int64_t>(slow.result.value().value), 2);
}

TEST_F(QrpcTest, ViaRelayDeliversWithoutDirectLink) {
  // No direct mobile<->server link at all.
  net_.Connect("mobile", "relay", LinkProfile::WaveLan2());
  net_.Connect("relay", "server", LinkProfile::Ethernet10());
  client_tm_ =
      std::make_unique<TransportManager>(&loop_, net_.FindHost("mobile"), &client_metrics_);
  server_tm_ =
      std::make_unique<TransportManager>(&loop_, net_.FindHost("server"), &server_metrics_);
  obs::Registry relay_metrics;
  auto relay_tm =
      std::make_unique<TransportManager>(&loop_, net_.FindHost("relay"), &relay_metrics);
  SmtpRelay relay(&loop_, relay_tm.get());
  log_ = std::make_unique<StableLog>(&loop_, &client_metrics_);
  client_ =
      std::make_unique<QrpcClient>(&loop_, client_tm_.get(), log_.get(), &client_metrics_);
  server_ = std::make_unique<QrpcServer>(&loop_, server_tm_.get(), &server_metrics_);
  server_->RegisterHandler(
      "echo", [](const RpcRequestBody& req, const Message&, QrpcServer::Responder respond) {
        RpcResponseBody body;
        body.result = req.args[0];
        respond(body);
      });

  QrpcCallOptions opts;
  opts.via_relay = true;
  opts.relay_host = "relay";
  QrpcCall call = client_->Call("server", "echo", {std::string("mail")}, opts);
  loop_.Run();
  // The response cannot return: the server has no route to "mobile"
  // except... it does not. So only check the request executed? No --
  // the server schedules the response to "mobile"; with no link it queues
  // forever. The request itself must have been dispatched:
  EXPECT_TRUE(call.committed.ready());
  EXPECT_EQ(Count(&server_metrics_, "qrpc_server.requests"), 1u);
}

TEST_F(QrpcTest, DeadlineFiresWhileDisconnected) {
  // Link only comes up at t=120s; the 30s deadline fires first.
  Wire(LinkProfile::WaveLan2(),
       std::make_unique<PeriodicConnectivity>(Duration::Seconds(1e6), Duration::Zero(),
                                              TimePoint::Epoch() + Duration::Seconds(120)));
  QrpcCallOptions opts;
  opts.deadline = Duration::Seconds(30);
  QrpcCall call = client_->Call("server", "count", {}, opts);
  ASSERT_TRUE(call.result.Wait(&loop_));
  EXPECT_EQ(call.result.value().status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NEAR(call.result.value().completed_at.seconds(), 30.0, 0.001);
  EXPECT_TRUE(call.committed.ready());  // waiters on commit must not hang
  // The durable record is withdrawn and the queued message cancelled: the
  // expired request is neither resent after a crash nor transmitted when
  // the link finally comes up.
  EXPECT_EQ(log_->RecordCount(), 0u);
  EXPECT_EQ(client_tm_->scheduler()->TotalQueueDepth(), 0u);
  EXPECT_EQ(client_->PendingCount(), 0u);
  EXPECT_EQ(Count(&client_metrics_, "qrpc_client.deadline_exceeded"), 1u);
  loop_.Run();  // link comes up at t=120s; nothing is sent
  EXPECT_EQ(executions_, 0);
  EXPECT_EQ(Count(&server_metrics_, "qrpc_server.requests"), 0u);
}

TEST_F(QrpcTest, DeadlineDoesNotFireWhenResponseArrivesFirst) {
  Wire(LinkProfile::Ethernet10());
  QrpcCallOptions opts;
  opts.deadline = Duration::Seconds(10);
  QrpcCall call = client_->Call("server", "echo", {std::string("fast")}, opts);
  ASSERT_TRUE(call.result.Wait(&loop_));
  EXPECT_TRUE(call.result.value().status.ok());
  loop_.Run();  // the armed deadline event was cancelled; nothing fires
  EXPECT_EQ(Count(&client_metrics_, "qrpc_client.deadline_exceeded"), 0u);
  EXPECT_EQ(Count(&client_metrics_, "qrpc_client.completed"), 1u);
}

TEST_F(QrpcTest, LateResponseAfterDeadlineIsIgnored) {
  // CSLIP is slow enough that the request is on the wire (past the point of
  // cancellation) when a 50ms deadline fires: the server still executes,
  // but the late response finds no outstanding call and is dropped.
  Wire(LinkProfile::Cslip144());
  QrpcCallOptions opts;
  opts.deadline = Duration::Millis(50);
  QrpcCall call = client_->Call("server", "count", {}, opts);
  ASSERT_TRUE(call.result.Wait(&loop_));
  EXPECT_EQ(call.result.value().status.code(), StatusCode::kDeadlineExceeded);
  loop_.Run();
  EXPECT_EQ(executions_, 1);  // best-effort: it did run at the server
  EXPECT_EQ(client_->PendingCount(), 0u);
  EXPECT_EQ(Count(&client_metrics_, "qrpc_client.completed"), 0u);
}

TEST_F(QrpcTest, EpochObserverFiresOnServerEpochBump) {
  Wire(LinkProfile::Ethernet10());
  std::vector<std::pair<std::string, uint64_t>> observed;
  client_->SetEpochObserver([&](const std::string& server, uint64_t epoch) {
    observed.push_back({server, epoch});
  });

  // First contact records the epoch silently.
  QrpcCall first = client_->Call("server", "echo", {std::string("a")});
  ASSERT_TRUE(first.result.Wait(&loop_));
  EXPECT_EQ(first.result.value().server_epoch, 1u);
  EXPECT_EQ(client_->LastSeenEpoch("server"), 1u);
  EXPECT_TRUE(observed.empty());

  // The server "restarts": its epoch bumps, and the next response reveals it.
  server_->set_epoch(2);
  QrpcCall second = client_->Call("server", "echo", {std::string("b")});
  ASSERT_TRUE(second.result.Wait(&loop_));
  ASSERT_EQ(observed.size(), 1u);
  EXPECT_EQ(observed[0].first, "server");
  EXPECT_EQ(observed[0].second, 2u);
  EXPECT_EQ(client_->LastSeenEpoch("server"), 2u);

  // Same epoch again: no further notification.
  QrpcCall third = client_->Call("server", "echo", {std::string("c")});
  ASSERT_TRUE(third.result.Wait(&loop_));
  EXPECT_EQ(observed.size(), 1u);
}

TEST_F(QrpcTest, ServerDispatchCostDelaysResponse) {
  QrpcServerOptions sopts;
  sopts.dispatch_cost = Duration::Millis(100);
  Wire(LinkProfile::Ethernet10());
  server_ = std::make_unique<QrpcServer>(&loop_, server_tm_.get(), &server_metrics_, sopts);
  server_->RegisterHandler(
      "noop", [](const RpcRequestBody&, const Message&, QrpcServer::Responder respond) {
        respond(RpcResponseBody{});
      });
  QrpcCall call = client_->Call("server", "noop", {});
  ASSERT_TRUE(call.result.Wait(&loop_));
  EXPECT_GE(call.result.value().completed_at.seconds(), 0.100);
}

}  // namespace
}  // namespace rover

namespace rover {
namespace {

TEST(StableLogGroupCommitTest, BurstCoalescesIntoFewWrites) {
  EventLoop loop;
  StableLogCostModel model;
  model.group_commit = true;
  obs::Registry metrics;
  StableLog log(&loop, &metrics, model);
  int completed = 0;
  for (int i = 0; i < 16; ++i) {
    log.Append(Bytes(64, static_cast<uint8_t>(i)));
    log.Flush([&](const Status&) { ++completed; });
  }
  loop.Run();
  EXPECT_EQ(completed, 16);
  EXPECT_TRUE(log.FullyDurable());
  // First flush starts immediately; everything else joins the second write.
  EXPECT_LE(Count(&metrics, "stable_log.flushes"), 2u);
}

TEST(StableLogGroupCommitTest, RecordsAppendedDuringWriteJoinNextWrite) {
  EventLoop loop;
  StableLogCostModel model;
  model.group_commit = true;
  model.flush_base = Duration::Millis(10);
  obs::Registry metrics;
  StableLog log(&loop, &metrics, model);

  log.Append(Bytes{1});
  bool first_done = false;
  log.Flush([&](const Status&) { first_done = true; });
  // While the first write is in flight, append + flush another record.
  loop.ScheduleAfter(Duration::Millis(5), [&] {
    log.Append(Bytes{2});
    log.Flush(nullptr);
  });
  loop.Run();
  EXPECT_TRUE(first_done);
  EXPECT_TRUE(log.FullyDurable());
  EXPECT_EQ(Count(&metrics, "stable_log.flushes"), 2u);
}

TEST(StableLogGroupCommitTest, SerialModeWritesPerFlush) {
  EventLoop loop;
  StableLogCostModel model;
  model.group_commit = false;  // opt out of the (default-on) group commit
  obs::Registry metrics;
  StableLog log(&loop, &metrics, model);
  for (int i = 0; i < 8; ++i) {
    log.Append(Bytes{static_cast<uint8_t>(i)});
    log.Flush(nullptr);
  }
  loop.Run();
  EXPECT_EQ(Count(&metrics, "stable_log.flushes"), 8u);
}

TEST(StableLogGroupCommitTest, GroupCommitFasterThanSerialForBursts) {
  EventLoop serial_loop;
  StableLogCostModel serial_model;
  serial_model.group_commit = false;
  obs::Registry serial_metrics;
  StableLog serial(&serial_loop, &serial_metrics, serial_model);
  for (int i = 0; i < 10; ++i) {
    serial.Append(Bytes(32, 0));
    serial.Flush(nullptr);
  }
  serial_loop.Run();

  EventLoop group_loop;
  StableLogCostModel model;
  model.group_commit = true;
  obs::Registry grouped_metrics;
  StableLog grouped(&group_loop, &grouped_metrics, model);
  for (int i = 0; i < 10; ++i) {
    grouped.Append(Bytes(32, 0));
    grouped.Flush(nullptr);
  }
  group_loop.Run();

  EXPECT_LT(group_loop.now().seconds(), serial_loop.now().seconds() / 3);
}

// --- Operation coalescing: a supersedable call withdraws its queued
// --- predecessor (scheduler queue AND stable log) and chains its result.

TEST_F(QrpcTest, SupersededCallCoalescesWhileQueued) {
  // Link comes up at t=120s: both calls queue disconnected.
  Wire(LinkProfile::Cslip144(),
       std::make_unique<PeriodicConnectivity>(Duration::Seconds(1e6), Duration::Zero(),
                                              TimePoint::Epoch() + Duration::Seconds(120)));
  QrpcCallOptions opts;
  opts.supersede_key = "obj";
  QrpcCall a = client_->Call("server", "echo", {std::string("old")}, opts);
  QrpcCall b = client_->Call("server", "echo", {std::string("new")}, opts);
  loop_.RunUntil(TimePoint::Epoch() + Duration::Seconds(10));
  // The predecessor was withdrawn: gone from the engine and the log.
  EXPECT_EQ(client_->PendingCount(), 1u);
  EXPECT_EQ(log_->RecordCount(), 1u);
  EXPECT_EQ(Count(&client_metrics_, "qrpc_client.coalesced"), 1u);
  EXPECT_FALSE(a.result.ready());

  loop_.Run();
  ASSERT_TRUE(a.result.ready());
  ASSERT_TRUE(b.result.ready());
  // Both promises resolve (exactly once -- Promise::Set asserts otherwise)
  // with the successor's result.
  EXPECT_TRUE(a.result.value().status.ok());
  EXPECT_EQ(std::get<std::string>(a.result.value().value), "new");
  EXPECT_EQ(std::get<std::string>(b.result.value().value), "new");
  EXPECT_EQ(client_->PendingCount(), 0u);
}

TEST_F(QrpcTest, TransmittedCallIsNotCoalesced) {
  // On CSLIP the request spends tens of ms on the wire; by t=40ms the first
  // call has been dispatched and is transmitting, so it must run to
  // completion -- coalescing never drops an op the server might execute.
  Wire(LinkProfile::Cslip144());
  QrpcCallOptions opts;
  opts.supersede_key = "obj";
  QrpcCall a = client_->Call("server", "echo", {std::string("old")}, opts);
  QrpcCall b;
  loop_.ScheduleAfter(Duration::Millis(40), [&] {
    b = client_->Call("server", "echo", {std::string("new")}, opts);
  });
  loop_.Run();
  EXPECT_EQ(Count(&client_metrics_, "qrpc_client.coalesced"), 0u);
  ASSERT_TRUE(a.result.ready());
  ASSERT_TRUE(b.result.ready());
  EXPECT_EQ(std::get<std::string>(a.result.value().value), "old");
  EXPECT_EQ(std::get<std::string>(b.result.value().value), "new");
}

TEST_F(QrpcTest, DistinctSupersedeKeysDoNotCoalesce) {
  Wire(LinkProfile::Cslip144(),
       std::make_unique<PeriodicConnectivity>(Duration::Seconds(1e6), Duration::Zero(),
                                              TimePoint::Epoch() + Duration::Seconds(60)));
  QrpcCallOptions a_opts;
  a_opts.supersede_key = "obj-a";
  QrpcCallOptions b_opts;
  b_opts.supersede_key = "obj-b";
  QrpcCall a = client_->Call("server", "echo", {std::string("a")}, a_opts);
  QrpcCall b = client_->Call("server", "echo", {std::string("b")}, b_opts);
  loop_.Run();
  EXPECT_EQ(Count(&client_metrics_, "qrpc_client.coalesced"), 0u);
  EXPECT_EQ(std::get<std::string>(a.result.value().value), "a");
  EXPECT_EQ(std::get<std::string>(b.result.value().value), "b");
}

TEST_F(QrpcTest, CoalescingSurvivesCrashRecovery) {
  // Coalesce while disconnected, then crash: only the successor's record is
  // in the log, and recovery re-issues exactly that one.
  Wire(LinkProfile::WaveLan2(),
       std::make_unique<PeriodicConnectivity>(Duration::Seconds(1e6), Duration::Zero(),
                                              TimePoint::Epoch() + Duration::Seconds(500)));
  QrpcCallOptions opts;
  opts.supersede_key = "obj";
  client_->Call("server", "count", {}, opts);
  client_->Call("server", "count", {}, opts);
  loop_.RunUntil(TimePoint::Epoch() + Duration::Seconds(10));
  EXPECT_EQ(log_->RecordCount(), 1u);

  log_->SimulateCrash();
  ASSERT_EQ(log_->Recover(), 1u);
  client_tm_ =
      std::make_unique<TransportManager>(&loop_, net_.FindHost("mobile"), &client_metrics_);
  client_ =
      std::make_unique<QrpcClient>(&loop_, client_tm_.get(), log_.get(), &client_metrics_);
  EXPECT_EQ(client_->RecoverFromLog(), 1u);
  loop_.Run();
  EXPECT_EQ(executions_, 1);  // the withdrawn predecessor never executes
  EXPECT_EQ(client_->PendingCount(), 0u);
}

TEST_F(QrpcTest, CrashBetweenCoalesceAndSuccessorFlushResendsPredecessor) {
  // The predecessor commits (durably flushed, committed ack delivered) and
  // sits queued on the disconnected link. A successor then coalesces it,
  // and the client crashes before the successor's own record reaches the
  // disk. The predecessor's record must still be in the log -- withdrawing
  // it before the successor is durable would silently lose an operation
  // whose durability was already acknowledged -- so recovery conservatively
  // resends the predecessor and it executes exactly once.
  Wire(LinkProfile::WaveLan2(),
       std::make_unique<PeriodicConnectivity>(Duration::Seconds(1e6), Duration::Zero(),
                                              TimePoint::Epoch() + Duration::Seconds(500)));
  QrpcCallOptions opts;
  opts.supersede_key = "obj";
  QrpcCall a = client_->Call("server", "count", {}, opts);
  loop_.RunUntil(TimePoint::Epoch() + Duration::Seconds(5));
  ASSERT_TRUE(a.committed.ready());  // durability acknowledged
  ASSERT_EQ(log_->RecordCount(), 1u);

  client_->Call("server", "count", {}, opts);
  EXPECT_EQ(Count(&client_metrics_, "qrpc_client.coalesced"), 1u);
  // Crash immediately: the successor's record is appended but not flushed,
  // so it is lost with the volatile tail -- the predecessor's durable
  // record must be what survives.
  log_->SimulateCrash();
  ASSERT_EQ(log_->Recover(), 1u);
  client_tm_ =
      std::make_unique<TransportManager>(&loop_, net_.FindHost("mobile"), &client_metrics_);
  client_ =
      std::make_unique<QrpcClient>(&loop_, client_tm_.get(), log_.get(), &client_metrics_);
  EXPECT_EQ(client_->RecoverFromLog(), 1u);
  loop_.Run();
  EXPECT_EQ(executions_, 1);  // the acknowledged operation is not lost
  EXPECT_EQ(client_->PendingCount(), 0u);
}

// --- Stable-log compression ---

TEST(StableLogCompressionTest, CompressedRecordsRoundTripAndRecover) {
  EventLoop loop;
  StableLogCostModel model;
  model.compress_log = true;
  obs::Registry metrics;
  StableLog log(&loop, &metrics, model);
  const Bytes payload(4096, 7);  // highly compressible
  log.Append(payload);
  log.Flush(nullptr);
  loop.Run();

  EXPECT_EQ(Count(&metrics, "stable_log.records_compressed"), 1u);
  EXPECT_LT(Count(&metrics, "stable_log.stored_bytes_appended"),
            Count(&metrics, "stable_log.raw_bytes_appended"));
  std::vector<StableLog::Record> records = log.DurableRecords();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].compressed);
  EXPECT_LT(records[0].data.size(), payload.size());
  EXPECT_EQ(*log.RecordPayload(records[0]), payload);

  // Crash + recover: the CRC covers the stored (compressed) form, and the
  // payload still decompresses to the original.
  log.SimulateCrash();
  ASSERT_EQ(log.Recover(), 1u);
  std::vector<StableLog::Record> recovered = log.DurableRecords();
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(*log.RecordPayload(recovered[0]), payload);
}

TEST(StableLogCompressionTest, IncompressibleRecordStoredRaw) {
  EventLoop loop;
  StableLogCostModel model;
  model.compress_log = true;
  obs::Registry metrics;
  StableLog log(&loop, &metrics, model);
  Rng rng(77);
  Bytes payload(512);
  for (uint8_t& b : payload) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  log.Append(payload);
  log.Flush(nullptr);
  loop.Run();
  std::vector<StableLog::Record> records = log.DurableRecords();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_FALSE(records[0].compressed);  // compression would have expanded it
  EXPECT_EQ(records[0].data, payload);
  EXPECT_EQ(*log.RecordPayload(records[0]), payload);
  EXPECT_EQ(Count(&metrics, "stable_log.records_compressed"), 0u);
}

}  // namespace
}  // namespace rover

// --- Promise hygiene: every issued call resolves its result promise
// --- exactly once, whatever ends it -- response, deadline, cancel, shed,
// --- admission rejection, or coalescing -- and a crash in the middle
// --- neither drops a durable call nor resurrects a withdrawn one.

namespace rover {
namespace {

// A call plus a count of how often its result promise fired. Promise::Set
// already asserts on a second Set; the counter additionally catches a
// path that never resolves at all.
struct TrackedCall {
  const char* label = "";
  QrpcCall call;
  int resolutions = 0;
};

TEST_F(QrpcTest, ResolutionMatrixEveryPathResolvesExactlyOnce) {
  // Link up only at t=300s: every call below queues disconnected, so the
  // shed/deadline/cancel/coalesce paths race nothing on the wire.
  Wire(LinkProfile::WaveLan2(),
       std::make_unique<PeriodicConnectivity>(Duration::Seconds(1e6), Duration::Zero(),
                                              TimePoint::Epoch() + Duration::Seconds(300)));
  QrpcClientOptions copts;
  copts.max_outstanding_calls = 5;
  client_ = std::make_unique<QrpcClient>(&loop_, client_tm_.get(), log_.get(),
                                         &client_metrics_, copts);

  std::vector<std::shared_ptr<TrackedCall>> calls;
  auto issue = [&](const char* label, QrpcCallOptions opts = {}) {
    auto t = std::make_shared<TrackedCall>();
    t->label = label;
    t->call = client_->Call("server", "count", {}, opts);
    // A weak capture: `t` owns the promise holding this callback.
    t->call.result.OnReady([weak = std::weak_ptr<TrackedCall>(t)](const QrpcResult&) {
      if (auto tracked = weak.lock()) {
        ++tracked->resolutions;
      }
    });
    calls.push_back(t);
    return t;
  };

  QrpcCallOptions supersede;
  supersede.supersede_key = "obj";
  auto pred = issue("coalesced-predecessor", supersede);
  auto succ = issue("coalescing-successor", supersede);
  EXPECT_EQ(Count(&client_metrics_, "qrpc_client.coalesced"), 1u);

  QrpcCallOptions with_deadline;
  with_deadline.deadline = Duration::Seconds(30);
  auto dead = issue("deadline-expired", with_deadline);

  auto canc = issue("cancelled");
  EXPECT_TRUE(client_->Cancel(canc->call.rpc_id));

  QrpcCallOptions background;
  background.priority = Priority::kBackground;
  auto victim = issue("shed-victim", background);
  auto kept1 = issue("kept-1");
  auto kept2 = issue("kept-2");
  // Outstanding is now at the bound of 5 (succ, dead, victim, kept1,
  // kept2): admitting one more foreground call sheds the background
  // victim; the background call after that finds nothing sheddable left
  // and is refused at Call().
  auto kept3 = issue("overflow-foreground");
  EXPECT_EQ(Count(&client_metrics_, "qrpc_client.background_shed"), 1u);
  auto rejected = issue("admission-rejected", background);
  EXPECT_EQ(Count(&client_metrics_, "qrpc_client.admission_rejected"), 1u);

  loop_.RunUntil(TimePoint::Epoch() + Duration::Seconds(60));  // deadline fired at 30s
  EXPECT_EQ(Count(&client_metrics_, "qrpc_client.deadline_exceeded"), 1u);
  EXPECT_EQ(Count(&client_metrics_, "qrpc_client.cancelled"), 1u);

  // Terminal paths resolved exactly once, with their own status.
  EXPECT_EQ(canc->resolutions, 1);
  EXPECT_EQ(canc->call.result.value().status.code(), StatusCode::kCancelled);
  EXPECT_EQ(dead->resolutions, 1);
  EXPECT_EQ(dead->call.result.value().status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(victim->resolutions, 1);
  EXPECT_EQ(victim->call.result.value().status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(rejected->resolutions, 1);
  EXPECT_EQ(rejected->call.result.value().status.code(), StatusCode::kResourceExhausted);
  // The survivors wait for connectivity; nobody resolved them early, but
  // every one of them has its durability commit acknowledged.
  for (const auto& t : {pred, succ, kept1, kept2, kept3}) {
    EXPECT_EQ(t->resolutions, 0) << t->label;
    EXPECT_TRUE(t->call.committed.ready()) << t->label;
  }
  // The log holds exactly the four live requests (succ subsumed pred's
  // record once its own flush completed); everything withdrawn stays gone.
  EXPECT_EQ(log_->RecordCount(), 4u);
  EXPECT_EQ(client_->PendingCount(), 4u);

  // Crash before the link ever came up. The four durable records -- and
  // only those -- are re-issued by the next incarnation; the withdrawn
  // deadline/cancel/shed records must not resurrect.
  log_->SimulateCrash();
  ASSERT_EQ(log_->Recover(), 4u);
  client_tm_ =
      std::make_unique<TransportManager>(&loop_, net_.FindHost("mobile"), &client_metrics_);
  client_ = std::make_unique<QrpcClient>(&loop_, client_tm_.get(), log_.get(),
                                         &client_metrics_, copts);
  EXPECT_EQ(client_->RecoverFromLog(), 4u);
  loop_.Run();

  EXPECT_EQ(executions_, 4);  // succ, kept1, kept2, kept3: exactly once each
  EXPECT_EQ(Count(&server_metrics_, "qrpc_server.duplicates"), 0u);
  EXPECT_EQ(client_->PendingCount(), 0u);
  EXPECT_EQ(log_->RecordCount(), 0u);
  // Promises owned by the dead incarnation stay unresolved -- recovery
  // answers the log, not process state that did not survive.
  for (const auto& t : {pred, succ, kept1, kept2, kept3}) {
    EXPECT_EQ(t->resolutions, 0) << t->label;
  }
}

TEST_F(QrpcTest, DeadlineOnCoalescedPredecessorIsDisarmed) {
  // The predecessor carries a 30s deadline and is coalesced immediately.
  // Its deadline event dies with the coalesce: the chained promise must
  // resolve exactly once with the successor's (much later) result, not a
  // second time when the stale deadline would have fired.
  Wire(LinkProfile::WaveLan2(),
       std::make_unique<PeriodicConnectivity>(Duration::Seconds(1e6), Duration::Zero(),
                                              TimePoint::Epoch() + Duration::Seconds(300)));
  QrpcCallOptions pred_opts;
  pred_opts.supersede_key = "obj";
  pred_opts.deadline = Duration::Seconds(30);
  QrpcCall pred = client_->Call("server", "count", {}, pred_opts);
  QrpcCallOptions succ_opts;
  succ_opts.supersede_key = "obj";
  QrpcCall succ = client_->Call("server", "count", {}, succ_opts);
  EXPECT_EQ(Count(&client_metrics_, "qrpc_client.coalesced"), 1u);

  loop_.RunUntil(TimePoint::Epoch() + Duration::Seconds(60));
  EXPECT_FALSE(pred.result.ready());  // the disarmed deadline never fired
  EXPECT_EQ(Count(&client_metrics_, "qrpc_client.deadline_exceeded"), 0u);

  loop_.Run();
  ASSERT_TRUE(pred.result.ready());
  ASSERT_TRUE(succ.result.ready());
  EXPECT_TRUE(pred.result.value().status.ok());
  EXPECT_EQ(std::get<int64_t>(pred.result.value().value),
            std::get<int64_t>(succ.result.value().value));
  EXPECT_EQ(executions_, 1);  // the pair collapsed to one server execution
  EXPECT_EQ(client_->PendingCount(), 0u);
}

// The ways a coalescing successor can leave the engine without a response.
enum class ChainExit { kCancel, kDeadline, kShed, kQuarantine };

void PrintTo(ChainExit exit, std::ostream* os) {
  static const char* const kNames[] = {"Cancel", "Deadline", "Shed", "Quarantine"};
  *os << kNames[static_cast<int>(exit)];
}

class QrpcChainExitTest : public QrpcTest,
                          public ::testing::WithParamInterface<ChainExit> {};

TEST_P(QrpcChainExitTest, CoalescedChainResolvesPredecessorOnce) {
  const ChainExit exit = GetParam();
  // Link up only at t=300s: the chain queues disconnected, so no exit races
  // anything on the wire.
  Wire(LinkProfile::WaveLan2(),
       std::make_unique<PeriodicConnectivity>(Duration::Seconds(1e6), Duration::Zero(),
                                              TimePoint::Epoch() + Duration::Seconds(300)));
  if (exit == ChainExit::kShed) {
    QrpcClientOptions copts;
    copts.max_outstanding_calls = 2;
    client_ = std::make_unique<QrpcClient>(&loop_, client_tm_.get(), log_.get(),
                                           &client_metrics_, copts);
  }
  QrpcCallOptions opts;
  opts.supersede_key = "obj";
  if (exit == ChainExit::kDeadline) {
    opts.deadline = Duration::Seconds(30);
  }
  if (exit == ChainExit::kShed) {
    opts.priority = Priority::kBackground;
  }
  QrpcCall pred = client_->Call("server", "count", {}, opts);
  QrpcCall succ = client_->Call("server", "count", {}, opts);
  const uint64_t succ_record = log_->BackRecordId();
  EXPECT_EQ(Count(&client_metrics_, "qrpc_client.coalesced"), 1u);
  int pred_resolutions = 0;
  int succ_resolutions = 0;
  pred.result.OnReady([&](const QrpcResult&) { ++pred_resolutions; });
  succ.result.OnReady([&](const QrpcResult&) { ++succ_resolutions; });

  // The predecessor already left the engine: it has no independent call to
  // cancel any more, so Cancel must say so rather than touch the chain.
  EXPECT_FALSE(client_->Cancel(pred.rpc_id));

  // Whichever way the successor leaves, it ends the whole chain: both
  // promises resolve (exactly once each) with the exit's status, and
  // nothing survives in the log to resurrect either operation after a crash.
  StatusCode want = StatusCode::kOk;
  const char* counter = "";
  int64_t want_executions = 0;
  switch (exit) {
    case ChainExit::kCancel:
      EXPECT_TRUE(client_->Cancel(succ.rpc_id));
      want = StatusCode::kCancelled;
      counter = "qrpc_client.cancelled";
      break;
    case ChainExit::kDeadline:
      want = StatusCode::kDeadlineExceeded;
      counter = "qrpc_client.deadline_exceeded";
      break;
    case ChainExit::kShed: {
      // Coalescing freed the predecessor's slot, so a filler takes the
      // second one; the foreground call after it is over the bound and
      // sheds the background successor. Cancelling the filler leaves the
      // shedding call as the only one to execute.
      QrpcCall filler = client_->Call("server", "count", {});
      QrpcCallOptions foreground;
      foreground.priority = Priority::kForeground;
      client_->Call("server", "count", {}, foreground);
      EXPECT_TRUE(client_->Cancel(filler.rpc_id));
      want = StatusCode::kResourceExhausted;
      counter = "qrpc_client.background_shed";
      want_executions = 1;
      break;
    }
    case ChainExit::kQuarantine:
      EXPECT_EQ(client_->FailQuarantinedRecords({succ_record}), 1u);
      want = StatusCode::kDataLoss;
      counter = "qrpc_client.storage_quarantined_calls";
      break;
  }
  loop_.RunUntil(TimePoint::Epoch() + Duration::Seconds(60));  // past the deadline
  ASSERT_TRUE(pred.result.ready());
  ASSERT_TRUE(succ.result.ready());
  EXPECT_EQ(pred_resolutions, 1);
  EXPECT_EQ(succ_resolutions, 1);
  EXPECT_EQ(pred.result.value().status.code(), want);
  EXPECT_EQ(succ.result.value().status.code(), want);
  EXPECT_TRUE(pred.committed.ready());
  EXPECT_EQ(Count(&client_metrics_, counter), 1u);

  loop_.Run();  // link comes up at t=300s; the chain is never transmitted
  EXPECT_EQ(executions_, want_executions);
  EXPECT_EQ(Count(&server_metrics_, "qrpc_server.requests"),
            static_cast<uint64_t>(want_executions));
  EXPECT_EQ(log_->RecordCount(), 0u);
  EXPECT_EQ(client_->PendingCount(), 0u);
  EXPECT_EQ(pred_resolutions, 1);
  EXPECT_EQ(succ_resolutions, 1);
}

INSTANTIATE_TEST_SUITE_P(Exits, QrpcChainExitTest,
                         ::testing::Values(ChainExit::kCancel, ChainExit::kDeadline,
                                           ChainExit::kShed, ChainExit::kQuarantine));

}  // namespace
}  // namespace rover
